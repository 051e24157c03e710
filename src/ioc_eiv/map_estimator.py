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

Both steps classify rows at ``model.ITERATE_ACTIVE_TOL``.

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
from .mcmc import SIGMA_Y, Priors, default_priors, gibbs_run
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

COST_TOL = 1e-9  # stop once an iteration lowers the cost by at most this, relatively
MAX_OUTER_ITERS = 100  # alternation iterations


@dataclass(frozen=True, eq=False)
class GibbsConfig:
    n_iter: int = 2000
    n_keep: int = 300


@dataclass(frozen=True, eq=False)
class MapConfig:
    priors: Priors | None = None
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)
    norm: NormalizationRule | None = None


@dataclass(frozen=True, eq=False)
class MapResult:
    theta: np.ndarray
    lam: np.ndarray
    U_hat: np.ndarray
    Sigma_U_hat: np.ndarray
    cost_trace: tuple


class _Workspace:
    """What the MAP cost and both half-steps hold fixed for one ``Sigma_U``.

    The four covariances are factored once, beta's prior precision ``Pi``
    is inverted once, and the U-step keeps its constant Hessian and linear
    terms.  The terms are stored apart, not summed: each step adds them to
    its varying term in the order of the one-line formula, so the sums
    round exactly as they would if everything were recomputed.
    """

    def __init__(self, bs, ds: DemoSet, Sigma_U, priors: Priors):
        self.bs = bs
        self.ds = ds
        self.L_SU = cholesky(np.asarray(Sigma_U, dtype=float))
        self.L_SY = cholesky(np.asarray(priors.Sigma_Y, dtype=float))
        self.L_SU0 = cholesky(np.asarray(priors.Sigma_U0, dtype=float))
        self.L_Sb = cholesky(np.asarray(priors.Sigma_beta, dtype=float))
        Pi = np.linalg.inv(priors.Sigma_beta)
        self.Pi = 0.5 * (Pi + Pi.T)
        self.Pi_beta0 = self.Pi @ priors.beta0
        D = ds.n_demos
        eye = np.eye(bs.n_inputs)
        # U-step: H = H_demo + 2D Mb' SY^-1 Mb + H_prior,
        #         c = c_demo + 2D Mb' SY^-1 E(beta) - c_prior
        self.H_demo = 2.0 * D * cholesky_solve(self.L_SU, eye)
        self.H_prior = 2.0 * cholesky_solve(self.L_SU0, eye)
        self.c_demo = -2.0 * cholesky_solve(self.L_SU, ds.demo_sum())
        self.c_prior = 2.0 * cholesky_solve(self.L_SU0, priors.U0)


def map_cost(U, beta, Sigma_U, ds: DemoSet, priors: Priors, bs=None, *,
             workspace: _Workspace | None = None) -> float:
    """Negative log posterior of ``(beta, U)`` up to an additive constant.

    ``workspace`` is an estimate's own, built from these ``Sigma_U``,
    ``ds`` and ``priors``; without one the call builds its own.
    """
    if workspace is None:
        if bs is None:
            bs = model.build_stationarity(ds.fp_ref)
        workspace = _Workspace(bs, ds, Sigma_U, priors)
    ws = workspace
    U = np.asarray(U, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    q = ws.bs.n_features
    theta, lam = beta[:q], beta[q:]

    R = ds.stacked() - U
    total = float(np.sum(R * cholesky_solve(ws.L_SU, R.T).T))
    s = ws.bs.stationarity(U, theta, lam)
    total += ds.n_demos * float(s @ cholesky_solve(ws.L_SY, s))
    dU = U - priors.U0
    total += float(dU @ cholesky_solve(ws.L_SU0, dU))
    db = beta - priors.beta0
    total += float(db @ cholesky_solve(ws.L_Sb, db))
    return total


def _beta_step(ws: _Workspace, U, norm: NormalizationRule):
    """Minimize the MAP cost over beta at fixed U. Returns full beta."""
    bs = ws.bs
    q = bs.n_features
    act = np.flatnonzero(bs.active_rows(U, model.ITERATE_ACTIVE_TOL))
    B = np.hstack([bs.J_theta(U), bs.J_lambda[:, act]])
    free = np.concatenate([np.arange(q), q + act])

    D = ws.ds.n_demos
    H = 2.0 * D * (B.T @ cholesky_solve(ws.L_SY, B)) + 2.0 * ws.Pi[np.ix_(free, free)]
    H = 0.5 * (H + H.T)
    c = -2.0 * ws.Pi_beta0[free]
    sol = solve_qp(Qp(H=H, c=c, **norm.beta_blocks(q, free.size)))
    beta = np.zeros(q + bs.n_multipliers)
    beta[free] = sol.z
    return beta


def _u_step(ws: _Workspace, beta):
    """Minimize the MAP cost over U at fixed beta. Returns ``(U, beta)``.

    The held rows are equalities and the others inequalities.  When the
    held faces conflict, U comes from the inequalities alone, and the
    returned beta drops the multipliers of the faces that U left.
    """
    bs = ws.bs
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]
    Mb = bs.M_beta(theta)
    Ebeta = bs.E_theta @ theta + bs.J_lambda @ lam
    D = ws.ds.n_demos

    H = ws.H_demo + 2.0 * D * (Mb.T @ cholesky_solve(ws.L_SY, Mb)) + ws.H_prior
    H = 0.5 * (H + H.T)
    c = ws.c_demo + 2.0 * D * (Mb.T @ cholesky_solve(ws.L_SY, Ebeta)) - ws.c_prior
    held = bs.held_rows(lam)
    try:
        return solve_qp(Qp(H=H, c=c, **bs.face_blocks(eq=held, ineq=~held))).z, beta
    except Infeasible:
        U = solve_qp(Qp(H=H, c=c, **bs.face_blocks(ineq=bs.nonzero_rows))).z
        lam = np.where(bs.active_rows(U, model.ITERATE_ACTIVE_TOL), lam, 0.0)
        return U, np.concatenate([theta, lam])


def estimate(ds: DemoSet, fp: model.ForwardProblem, cfg: MapConfig | None = None,
             rng: np.random.Generator | None = None) -> MapResult:
    """Run the full MAP pipeline: Gibbs warm start, then QP alternation."""
    cfg = cfg or MapConfig()
    if rng is None:
        rng = np.random.default_rng()
    bs = model.build_stationarity(fp)
    priors = cfg.priors if cfg.priors is not None else default_priors(ds, fp, norm=cfg.norm)
    chain = gibbs_run(ds, fp, priors, n_iter=cfg.gibbs.n_iter, n_keep=cfg.gibbs.n_keep, rng=rng)
    Sigma_U = 0.5 * (chain.Sigma_U_mean + chain.Sigma_U_mean.T)
    U = chain.U_mean.copy()
    beta = chain.beta_mean.copy()
    ws = _Workspace(bs, ds, Sigma_U, priors)
    norm = cfg.norm
    if norm is None:
        # anchor the scale where the prior sits so the two do not fight
        anchor = float(np.sum(priors.beta0[: fp.q]))
        norm = NormalizationRule(kind="sum", value=anchor if anchor > 0 else float(fp.q))

    trace: list[float] = []
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    prev_full = None
    for it in range(MAX_OUTER_ITERS):
        beta_new = _beta_step(ws, U, norm)
        cost_b = map_cost(U, beta_new, Sigma_U, ds, priors, workspace=ws)
        if it > 0 and cost_b > trace[-1]:
            break
        U_new, beta_new = _u_step(ws, beta_new)
        cost_u = map_cost(U_new, beta_new, Sigma_U, ds, priors, workspace=ws)
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
        if prev_full is not None and prev_full - cost_u <= COST_TOL * max(1.0, abs(prev_full)):
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
) -> dict:
    """Empirical check that the large-D cost separates the true solution.

    Generates ``D_large`` demos, evaluates the normalized cost (demo term
    averaged over demos plus the stationarity term at variance ``SIGMA_Y``;
    priors scaled away) at ``(U*, beta*)`` and at random joint
    perturbations of the stated magnitudes, and reports the fraction of
    perturbations with strictly higher cost.
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
    L_SU = cholesky(Sigma_U)
    SY_inv = np.linalg.inv(SIGMA_Y * np.eye(fp.n_inputs))

    stackd = ds.stacked()
    q = fp.q

    def cost(U, beta):
        R = stackd - U
        val = float(np.sum(R * cholesky_solve(L_SU, R.T).T)) / ds.n_demos
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
