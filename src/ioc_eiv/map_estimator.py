"""Maximum a posteriori errors-in-variables estimator.

The estimator first runs the Gibbs sampler to obtain a demo covariance
estimate and a good starting point, then maximizes the posterior over
``(beta, U)`` for that fixed covariance by alternating two convex QPs:

* beta-step: constraint rows active at the current latent input keep free
  nonnegative multipliers, all others are pinned to zero; the posterior is
  quadratic in ``beta`` with ``theta >= 0`` and the normalization rule as
  an equality.
* U-step: rows whose multiplier exceeds the activity tolerance become
  equalities ``g_i(U) = 0``, the rest inequalities ``g_i(U) <= 0``; the
  posterior is quadratic in ``U``.

The normalization equality in the beta-step anchors the scale that the
stationarity term cannot see.  The residual ``J(U) beta`` is homogeneous
in ``beta``, so its squared norm always prefers a smaller ``beta``; with
noisy demonstrations no constraint row is exactly active at the start, the
multipliers get pinned to zero, and an unanchored weight vector would be
shrunk toward the origin faster than the wide prior could hold it.  Scale
is not identifiable from the data anyway (benchmark comparisons rescale),
so fixing it by constraint loses nothing and keeps every iterate on the
same section of the cone, where the cost comparisons are meaningful.

Each accepted half-step must not increase the MAP cost, so the recorded
trace is non-increasing by construction; the first full iteration is a
projection onto the complementarity constraints (the Gibbs means generally
violate them) and marks the start of the trace.  The best iterate is
returned, which guards against limit cycles between equal-cost points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .demos import DemoSet, generate, noise_cov_stacked
from .kkt_baseline import NormalizationRule
from .mcmc import Priors, default_priors, gibbs_run
from .numerics import Infeasible, Qp, cholesky, cholesky_solve, solve_qp

__all__ = [
    "GibbsConfig",
    "MapConfig",
    "MapResult",
    "map_cost",
    "estimate",
    "consistency_cost_check",
    "rescale_to_l1",
]

_ZERO_ROW_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GibbsConfig:
    n_iter: int = 2000
    n_keep: int = 300
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class MapConfig:
    max_outer_iters: int = 100
    cost_tol: float = 1e-9
    active_tol: float = 1e-7
    priors: Priors | None = None
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)
    norm: NormalizationRule | None = None
    sigma_y: float = 1e-2


@dataclass(frozen=True, eq=False)
class MapResult:
    theta: np.ndarray
    lam: np.ndarray
    U_hat: np.ndarray
    Sigma_U_hat: np.ndarray
    cost_trace: tuple
    gibbs_diag: dict


def _spd_solve_factory(M):
    L = cholesky(np.asarray(M, dtype=float))

    def solve(rhs):
        return cholesky_solve(L, rhs)

    return solve


def map_cost(U, beta, Sigma_U, ds: DemoSet, priors: Priors, bs=None) -> float:
    """Negative log posterior of ``(beta, U)`` up to an additive constant."""
    fp = ds.fp_ref
    if bs is None:
        bs = model.build_stationarity(fp)
    U = np.asarray(U, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]

    solve_SU = _spd_solve_factory(Sigma_U)
    solve_SY = _spd_solve_factory(priors.Sigma_Y)
    solve_SU0 = _spd_solve_factory(priors.Sigma_U0)
    solve_Sb = _spd_solve_factory(priors.Sigma_beta)

    R = ds.stacked() - U
    total = float(np.sum(R * solve_SU(R.T).T))
    s = bs.stationarity(U, theta, lam)
    total += ds.n_demos * float(s @ solve_SY(s))
    dU = U - priors.U0
    total += float(dU @ solve_SU0(dU))
    db = beta - priors.beta0
    total += float(db @ solve_Sb(db))
    return total


def _activity(bs, U, active_tol, h_ref):
    g = bs.constraint_values(U)
    return np.abs(g) <= active_tol * (1.0 + h_ref)


def _beta_step(bs, ds, U, priors, active_tol, h_ref, norm: NormalizationRule):
    """Minimize the MAP cost over beta at fixed U. Returns full beta."""
    q = bs.n_features
    L = bs.n_multipliers
    act = np.flatnonzero(_activity(bs, U, active_tol, h_ref))
    B = np.hstack([bs.J_theta(U), bs.J_lambda[:, act]])
    nv = q + act.size

    solve_SY = _spd_solve_factory(priors.Sigma_Y)
    Pi = np.linalg.inv(priors.Sigma_beta)
    Pi = 0.5 * (Pi + Pi.T)
    free = np.concatenate([np.arange(q), q + act])
    Pf = np.zeros((q + L, nv))
    Pf[free, np.arange(nv)] = 1.0

    D = ds.n_demos
    H = 2.0 * D * (B.T @ solve_SY(B)) + 2.0 * (Pf.T @ Pi @ Pf)
    H = 0.5 * (H + H.T)
    c = -2.0 * (Pf.T @ (Pi @ priors.beta0))
    norm_row = np.zeros(nv)
    norm_row[:q] = norm.row(q)
    sol = solve_qp(
        Qp(H=H, c=c, Aeq=norm_row[None, :], beq=np.array([norm.value]),
           Ain=-np.eye(nv), bin=np.zeros(nv))
    )
    beta = np.zeros(q + L)
    beta[free] = sol.z
    return beta


def _u_step(bs, ds, beta, Sigma_U, priors, active_tol):
    """Minimize the MAP cost over U at fixed beta. Returns (U, eq_rows)."""
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]
    Mb = bs.M_beta(theta)
    Ebeta = bs.E_theta @ theta + bs.J_lambda @ lam
    D = ds.n_demos

    solve_SU = _spd_solve_factory(Sigma_U)
    solve_SY = _spd_solve_factory(priors.Sigma_Y)
    solve_SU0 = _spd_solve_factory(priors.Sigma_U0)

    mN = bs.n_inputs
    H = 2.0 * D * solve_SU(np.eye(mN)) + 2.0 * D * (Mb.T @ solve_SY(Mb)) + 2.0 * solve_SU0(np.eye(mN))
    H = 0.5 * (H + H.T)
    demo_sum = ds.stacked().sum(axis=0)
    c = -2.0 * solve_SU(demo_sum) + 2.0 * D * (Mb.T @ solve_SY(Ebeta)) - 2.0 * solve_SU0(priors.U0)

    G = bs.J_lambda.T
    g0 = bs.g_offset
    row_norm = np.max(np.abs(G), axis=1, initial=0.0) if G.shape[0] else np.zeros(0)
    nonzero = row_norm > _ZERO_ROW_TOL
    pinned = (lam > active_tol) & nonzero
    free_rows = nonzero & ~pinned

    def _solve(with_equalities: bool):
        kw = {}
        if with_equalities and np.any(pinned):
            kw["Aeq"] = G[pinned]
            kw["beq"] = -g0[pinned]
        if np.any(free_rows if with_equalities else nonzero):
            rows = free_rows if with_equalities else nonzero
            kw["Ain"] = G[rows]
            kw["bin"] = -g0[rows]
        return solve_qp(Qp(H=H, c=c, **kw))

    try:
        sol = _solve(True)
        return sol.z, np.flatnonzero(pinned)
    except Infeasible:
        # conflicting pinned faces: fall back to pure inequalities
        sol = _solve(False)
        return sol.z, np.zeros(0, dtype=int)


def estimate(ds: DemoSet, fp: model.ForwardProblem, cfg: MapConfig | None = None,
             rng: np.random.Generator | None = None) -> MapResult:
    """Run the full MAP pipeline: Gibbs warm start, then QP alternation.

    Raises ValueError when ``cfg.max_outer_iters < 1``: without one
    alternation step there is no iterate to return.
    """
    cfg = cfg or MapConfig()
    if cfg.max_outer_iters < 1:
        raise ValueError(f"max_outer_iters must be >= 1, got {cfg.max_outer_iters}")
    if rng is None:
        rng = np.random.default_rng()
    bs = model.build_stationarity(fp)
    priors = cfg.priors if cfg.priors is not None else default_priors(
        ds, fp, norm=cfg.norm, sigma_y=cfg.sigma_y
    )
    gibbs_rng = np.random.default_rng(cfg.gibbs.seed) if cfg.gibbs.seed is not None else rng
    chain = gibbs_run(ds, fp, priors, n_iter=cfg.gibbs.n_iter, n_keep=cfg.gibbs.n_keep, rng=gibbs_rng)
    Sigma_U = 0.5 * (chain.Sigma_U_mean + chain.Sigma_U_mean.T)
    U = chain.U_mean.copy()
    beta = chain.beta_mean.copy()
    h_ref = np.abs(np.tile(fp.constraints.h, fp.horizon + 1))
    norm = cfg.norm
    if norm is None:
        # anchor the scale where the prior sits so the two do not fight
        anchor = float(np.sum(priors.beta0[: fp.q]))
        norm = NormalizationRule(kind="sum", value=anchor if anchor > 0 else float(fp.q))

    trace: list[float] = []
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    prev_full = None
    for it in range(cfg.max_outer_iters):
        beta_new = _beta_step(bs, ds, U, priors, cfg.active_tol, h_ref, norm)
        cost_b = map_cost(U, beta_new, Sigma_U, ds, priors, bs=bs)
        if it > 0 and cost_b > trace[-1]:
            break
        U_new, pinned = _u_step(bs, ds, beta_new, Sigma_U, priors, cfg.active_tol)
        if pinned.size == 0 and np.any(beta_new[bs.n_features :] > cfg.active_tol):
            # fallback ran: drop multipliers that lost their face
            g = bs.constraint_values(U_new)
            lam_new = beta_new[bs.n_features :].copy()
            lam_new[np.abs(g) > cfg.active_tol * (1.0 + h_ref)] = 0.0
            beta_new = np.concatenate([beta_new[: bs.n_features], lam_new])
        cost_u = map_cost(U_new, beta_new, Sigma_U, ds, priors, bs=bs)
        if it == 0:
            # first iteration projects the Gibbs means onto complementarity;
            # the trace starts at the first feasible iterate
            trace = [cost_u]
        else:
            if cost_u > cost_b:
                break
            trace.extend([cost_b, cost_u])
        U, beta = U_new, beta_new
        if best is None or cost_u < best[0]:
            best = (cost_u, U.copy(), beta.copy())
        if prev_full is not None and prev_full - cost_u <= cfg.cost_tol * max(1.0, abs(prev_full)):
            break
        prev_full = cost_u

    _, U_best, beta_best = best
    q = bs.n_features
    return MapResult(
        theta=beta_best[:q],
        lam=beta_best[q:],
        U_hat=U_best,
        Sigma_U_hat=Sigma_U,
        cost_trace=tuple(trace),
        gibbs_diag={
            "acceptance_rate": chain.acceptance_rate,
            "n_kept": len(chain.samples),
        },
    )


def rescale_to_l1(theta, target_l1: float) -> np.ndarray:
    """Rescale a weight vector to a prescribed l1 norm (scale is only weakly
    identified; benchmark comparisons fix it to the ground truth's)."""
    theta = np.asarray(theta, dtype=float)
    s = float(np.sum(np.abs(theta)))
    if s <= 0:
        return theta.copy()
    return theta * (target_l1 / s)


def consistency_cost_check(
    fp: model.ForwardProblem,
    theta_star,
    U_star,
    D_large: int,
    noise,
    rng: np.random.Generator,
    lam_star=None,
    epsilons=(0.01, 0.1),
    n_per_eps: int = 50,
    sigma_y: float = 1e-2,
) -> dict:
    """Empirical check that the large-D cost separates the true solution.

    Generates ``D_large`` demos, evaluates the normalized cost (demo term
    averaged over demos plus the stationarity term; priors scaled away) at
    ``(U*, beta*)`` and at random joint perturbations of the stated
    magnitudes, and reports the fraction of perturbations with strictly
    higher cost.
    """
    bs = model.build_stationarity(fp)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    U_star = np.asarray(U_star, dtype=float).ravel()
    if lam_star is None:
        from .forward import solve as forward_solve

        lam_star = forward_solve(fp, theta_star).lam
    beta_star = np.concatenate([theta_star, np.asarray(lam_star, dtype=float).ravel()])

    ds = generate(U_star, noise, D_large, fp)
    Sigma_U = noise_cov_stacked(noise, fp.system.m, fp.horizon)
    Sigma_U = Sigma_U + 1e-12 * np.eye(Sigma_U.shape[0])
    solve_SU = _spd_solve_factory(Sigma_U)
    SY_inv = np.linalg.inv(sigma_y * np.eye(fp.n_inputs))

    stackd = ds.stacked()
    q = fp.q

    def cost(U, beta):
        R = stackd - U
        val = float(np.sum(R * solve_SU(R.T).T)) / ds.n_demos
        s = bs.stationarity(U, beta[:q], beta[q:])
        return val + float(s @ SY_inv @ s)

    c_star = cost(U_star, beta_star)
    dim = U_star.shape[0] + beta_star.shape[0]
    results = {}
    n_higher_total = 0
    for eps in epsilons:
        n_higher = 0
        for _ in range(n_per_eps):
            d = rng.standard_normal(dim)
            d *= eps / np.linalg.norm(d)
            c = cost(U_star + d[: U_star.shape[0]], beta_star + d[U_star.shape[0]:])
            n_higher += int(c > c_star)
        results[eps] = n_higher / n_per_eps
        n_higher_total += n_higher
    results["overall"] = n_higher_total / (n_per_eps * len(epsilons))
    results["cost_at_truth"] = c_star
    return results
