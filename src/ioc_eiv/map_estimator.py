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

Each step's objective is half the MAP cost, written in the Gaussian form
the Gibbs sampler draws from: its Hessian and linear term are the precision
and the negated information vector that ``mcmc._beta_information`` returns
on the beta-step's free coordinates, and that ``mcmc._u_information``
returns for the demo precision fixed by the chain.  :func:`map_cost` reads
the same precisions from the priors.

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
from .demos import DemoSet, generate, noise_cov
from .kkt_baseline import NormalizationRule, _require_rule
from .mcmc import SIGMA_Y, Priors, _beta_information, _u_information, default_priors, gibbs_run
from .numerics import Infeasible, Qp, cholesky, cholesky_solve, solve_qp, spd_inverse

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
    norm: NormalizationRule
    priors: Priors | None = None
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)


@dataclass(frozen=True, eq=False)
class MapResult:
    theta: np.ndarray
    lam: np.ndarray
    U_hat: np.ndarray
    Sigma_U_hat: np.ndarray
    cost_trace: tuple
    # the alternation's exit: "cap" (all MAX_OUTER_ITERS iterations ran), "rise"
    # (a half-step would raise the cost) or "tolerance" (COST_TOL was met)
    stop_reason: str


def map_cost(U, beta, Sigma_U, ds: DemoSet, priors: Priors, bs=None) -> float:
    """Twice the negative log posterior of ``(beta, U)``, up to an additive constant.

    The demo term is ``tr(W S) + D |U - Ubar|^2_W`` with ``W = Sigma_U^{-1}``;
    the stationarity, U-prior and beta-prior terms are weighted by the priors' precisions.
    """
    if bs is None:
        bs = model.build_stationarity(ds.fp_ref)
    U = np.asarray(U, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]

    L_SU = cholesky(np.asarray(Sigma_U, dtype=float))
    d = U - ds.mean
    total = float(np.trace(cholesky_solve(L_SU, ds.scatter)))
    total += ds.n_demos * float(d @ cholesky_solve(L_SU, d))
    s = bs.stationarity(U, theta, lam)
    total += ds.n_demos * float(s @ priors.Sigma_Y_inv @ s)
    dU = U - priors.U0
    total += float(dU @ priors.Sigma_U0_inv @ dU)
    db = beta - priors.beta0
    total += float(db @ priors.Sigma_beta_inv @ db)
    return total


def _beta_step(bs, ds: DemoSet, priors: Priors, U, norm: NormalizationRule):
    """Minimize the MAP cost over beta at fixed U. Returns full beta."""
    q = bs.n_features
    Jt, Ja, act = bs.free_columns(U, model.ITERATE_ACTIVE_TOL)
    free = np.concatenate([np.arange(q), q + act])
    H, info = _beta_information(ds, np.hstack([Jt, Ja]), priors, free)
    sol = solve_qp(Qp(H, -info, norm.beta_rows(q, free.size)))
    beta = np.zeros(q + bs.n_multipliers)
    beta[free] = sol.z
    return beta


def _u_step(bs, ds: DemoSet, priors: Priors, SU_inv, beta):
    """Minimize the MAP cost over U at fixed beta. Returns ``(U, beta)``.

    ``SU_inv`` is the demo precision.  The held rows are equalities and the
    others inequalities.  When the held faces conflict, U comes from the
    inequalities alone, and the returned beta drops the multipliers of the
    faces that U left.
    """
    q = bs.n_features
    theta, lam = beta[:q], beta[q:]
    H, info = _u_information(ds, theta, lam, SU_inv, bs, priors)
    held = bs.held_rows(lam)
    try:
        return solve_qp(Qp(H, -info, bs.face_rows(eq=held, ineq=~held))).z, beta
    except Infeasible:
        U = solve_qp(Qp(H, -info, bs.forward_rows)).z
        lam = np.where(bs.active_rows(U, model.ITERATE_ACTIVE_TOL), lam, 0.0)
        return U, np.concatenate([theta, lam])


def estimate(ds: DemoSet, fp: model.ForwardProblem, cfg: MapConfig,
             rng: np.random.Generator) -> MapResult:
    """Run the full MAP pipeline: Gibbs warm start, then QP alternation."""
    norm = cfg.norm
    _require_rule(norm)
    bs = model.build_stationarity(fp)
    priors = cfg.priors if cfg.priors is not None else default_priors(ds, fp, norm)
    chain = gibbs_run(ds, fp, priors, n_iter=cfg.gibbs.n_iter, n_keep=cfg.gibbs.n_keep, rng=rng)
    Sigma_U = chain.Sigma_U_mean
    U = chain.U_mean.copy()
    SU_inv = spd_inverse(Sigma_U)

    trace: list[float] = []
    # the trace never rises, so the best iterate is the last one except on
    # an exact cost tie, which keeps the earlier: the tls_positivity bench
    # row map,20.0,5 ends on one, and the last iterate differs in its last bit
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    stop_reason = "cap"
    for it in range(MAX_OUTER_ITERS):
        beta_new = _beta_step(bs, ds, priors, U, norm)
        cost_b = map_cost(U, beta_new, Sigma_U, ds, priors, bs)
        if it > 0 and cost_b > trace[-1]:
            stop_reason = "rise"
            break
        U_new, beta_new = _u_step(bs, ds, priors, SU_inv, beta_new)
        cost_u = map_cost(U_new, beta_new, Sigma_U, ds, priors, bs)
        if it == 0:
            # first iteration projects the Gibbs means onto complementarity;
            # the trace starts at the first feasible iterate
            trace = [cost_u]
        else:
            if cost_u > cost_b:
                stop_reason = "rise"
                break
            trace.extend([cost_b, cost_u])
        U, beta = U_new, beta_new
        if best is None or cost_u < best[0]:
            best = (cost_u, U.copy(), beta.copy())
        # trace[-3] is the previous iteration's cost_u
        if it > 0 and trace[-3] - cost_u <= COST_TOL * max(1.0, abs(trace[-3])):
            stop_reason = "tolerance"
            break

    _, U_best, beta_best = best
    q = bs.n_features
    return MapResult(
        theta=beta_best[:q],
        lam=beta_best[q:],
        U_hat=U_best,
        Sigma_U_hat=Sigma_U,
        cost_trace=tuple(trace),
        stop_reason=stop_reason,
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
    lam_star,
    epsilons=(0.01, 0.1),
    n_per_eps: int = 50,
) -> dict:
    """Empirical check that the large-D cost separates the true solution.

    Generates ``D_large`` demos, evaluates the normalized cost (demo term
    averaged over demos plus the stationarity term at variance ``SIGMA_Y``;
    priors scaled away) at ``(U*, beta*)``, with ``beta*`` the weights
    ``theta_star`` and the multipliers ``lam_star``, and at random joint
    perturbations of the stated magnitudes, and reports the fraction of
    perturbations with strictly higher cost.

    The demo term keeps the residual form so that noiseless demos cost exactly
    zero at ``U*``; the mean of many identical demos can round away from it.
    """
    bs = model.build_stationarity(fp)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    U_star = np.asarray(U_star, dtype=float).ravel()
    beta_star = np.concatenate([theta_star, np.asarray(lam_star, dtype=float).ravel()])

    ds = generate(U_star, noise, D_large, fp)
    m = fp.system.m
    L_u = cholesky(noise_cov(noise, m) + 1e-12 * np.eye(m))

    stackd = np.vstack(ds.U_list)
    q = fp.q

    def cost(U, beta):
        R = (stackd - U).reshape(-1, m)  # one row per demo and step
        val = float(np.sum(R * cholesky_solve(L_u, R.T).T)) / ds.n_demos
        s = bs.stationarity(U, beta[:q], beta[q:])
        return val + float(s @ s) / SIGMA_Y

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
