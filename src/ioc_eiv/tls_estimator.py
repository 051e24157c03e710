"""Total least squares estimator with hard stationarity.

TLS corrects the demonstrations as little as possible, in the metric
``W = Sigma_u^{-1}`` of the per-step noise covariance ``Sigma_u`` (m x m),
so that the KKT conditions of the forward problem hold exactly at the
corrected inputs ``U``.  For ``theta > 0`` those conditions are the
optimality conditions of the strictly convex forward QP, so the only
feasible ``U`` is the forward optimum ``U*(theta)``, and at a fixed
covariance TLS is the fit in the ``q`` weights alone

    min_theta  f(theta) = sum_d sum_k |U*_k(theta) - U_dk|^2_W   (k: the step)

over the normalization cone.  In the demo statistics (``DemoSet``), ``f`` is
``D sum_k |U*_k(theta) - Ubar_k|^2_W + tr(W sum_k S_kk)``, with ``S_kk`` the
scatter's diagonal blocks, and the trace does not depend on ``theta``: TLS
is a weighted forward fit to the sample mean.  With one input channel (both
shipped configs) ``W`` is a scalar, so ``theta`` depends on ``Sigma_u`` only
through the stop tests.  :func:`tls_inner` solves the fit by projected Gauss-Newton:

* each evaluation of ``f`` is one :func:`~ioc_eiv.forward.solve`, which
  gives ``U``, the multipliers and the demo cost at once; a backtracking
  trial's solve starts from the face the current solution's multipliers
  hold, since the forward QP's constraints do not depend on ``theta`` and
  a trial moves its optimal face little, so most trials end after one try
  of the QP's face search, and the rest repair that face in a few more;
  either way with the bits a cold solve would give;
* the derivative ``G = dU*/dtheta`` is the sensitivity of the forward QP
  on the rows its multipliers hold (:func:`_sensitivity`);
* each step solves the ``q``-variable QP ``min f`` with ``U*`` replaced by
  its linearization ``U + G (theta' - theta)``, plus a small
  Levenberg-Marquardt term, on the weight cone
  ``NormalizationRule.beta_rows`` with every weight floored at
  ``_FLOOR * norm.value`` (``forward.solve`` needs ``theta > 0``), and
  backtracks from it until ``f`` falls by an Armijo fraction of the
  predicted decrease.

The cone's :class:`~ioc_eiv.numerics.QpRows` are shared by every fit
under an equal rule: the projection and every step QP pose only their
``(H, c)`` on them, as each forward QP does on the rows the face model
prepared once per problem.

The fit starts from the given weights projected onto the floored cone.  It
stops after ``MAX_INNER_ITERS`` steps, when a step lowers ``f`` by at most
``COST_TOL`` relatively, when backtracking finds no decrease, or when
``U*`` does not move with ``theta`` (every input held by a constraint,
say), so that no step could lower ``f`` by ``COST_TOL``.  Its path is
``"floor"`` when a weight ends on the floor and ``"exact"`` otherwise;
either way the returned ``U`` is ``forward.solve(theta).U`` bit for bit,
so stationarity, complementarity, signs and feasibility hold to the
forward solver's tolerance.

:func:`estimate` runs :func:`tls_inner` once, from a
:func:`~ioc_eiv.kkt_baseline.kkt_single` fit to the sample mean.  The demos
are drawn independently per step, so ``Sigma_u`` is identified without
``theta``: ``sum_k S_kk`` over ``N (D - 1)``, plus ``RIDGE`` times its mean
variance; the identity when the scatter is zero (one demo, or noiseless
demos).  It scales with the inputs, so ``theta`` is unit-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .demos import DemoSet
from .forward import solve as forward_solve
from .kkt_baseline import NormalizationRule, _require_rule, kkt_single
from .numerics import Qp, _identity, _lu_solve, solve_qp, spd_inverse

__all__ = ["TlsResult", "tls_inner", "estimate"]

RIDGE = 1e-8  # added to the per-step covariance, relative to its mean variance
MAX_INNER_ITERS = 100  # Gauss-Newton steps per inner call
COST_TOL = 1e-9  # an inner call stops once a step lowers the cost by at most this, relatively
_FLOOR = 1e-6  # every weight stays >= _FLOOR * norm.value
# Levenberg-Marquardt term of each step, relative to the mean curvature: U*
# does not change along theta itself, so the Gauss-Newton Hessian is
# singular there, and on some problems along a second direction that the
# normalization does not pin
_DAMPING = 1e-10
_ARMIJO = 1e-4  # share of the predicted decrease a backtracked step must attain
_HALVINGS = 30  # backtracking gives up after this many step halvings


@dataclass(frozen=True, eq=False)
class TlsResult:
    theta: np.ndarray
    lam: np.ndarray
    U_hat: np.ndarray
    Sigma_u: np.ndarray
    path: str
    inner_traces: tuple


def _sensitivity(bs: model.BilinearStationarity, theta, sol) -> np.ndarray:
    """``dU*/dtheta`` (``mN x q``) of the forward optimum ``sol`` at ``theta``.

    Differentiates the forward KKT system with the rows ``A`` held by
    ``sol.lam`` kept as equalities:
    ``[[M_beta, J_A], [J_A', 0]] [G; dlam_A] = -[J_theta(U); 0]``.
    That system is symmetric but indefinite, so it is solved by LU with
    partial pivoting (``numerics._lu_solve``), all ``q`` columns at once.
    """
    held = np.flatnonzero(bs.held_rows(sol.lam))
    mN, k = bs.n_inputs, held.size
    J_A = bs.J_lambda[:, held]
    K = np.zeros((mN + k, mN + k))
    K[:mN, :mN] = bs.M_beta(theta)
    K[:mN, mN:] = J_A
    K[mN:, :mN] = J_A.T
    rhs = np.zeros((mN + k, bs.n_features))
    rhs[:mN] = -bs.J_theta(sol.U)
    return _lu_solve(K, rhs)[:mN]


def _pooled_scatter(ds: DemoSet, m: int) -> np.ndarray:
    """``sum_k S_kk``: the sum of the scatter's ``m x m`` diagonal blocks."""
    N = ds.mean.shape[0] // m
    return np.trace(ds.scatter.reshape(N, m, N, m), axis1=0, axis2=2)


def tls_inner(ds: DemoSet, fp: model.ForwardProblem, Sigma_u, norm: NormalizationRule,
              init_theta):
    """One inner solve at the per-step covariance ``Sigma_u``: Gauss-Newton in theta.

    Starts from ``init_theta`` projected onto the floored weight cone.
    Returns ``(U, theta, lam, cost, path, step_trace)`` where ``cost`` is
    the attained demo term, ``path`` is ``"floor"`` when a weight ends on
    the floor and ``"exact"`` otherwise, and ``step_trace`` records
    ``("gauss_newton", cost)`` at the start and after every accepted step,
    so it is strictly decreasing.
    """
    _require_rule(norm)
    bs = model.build_stationarity(fp)
    q, D, m = bs.n_features, ds.n_demos, fp.system.m
    W = spd_inverse(Sigma_u)
    tr_WS = float(np.sum(W * _pooled_scatter(ds, m)))  # tr(W sum_k S_kk), both symmetric
    floor = _FLOOR * norm.value
    cone = norm.beta_rows(q, q, floor)  # the rows of every QP of the fit

    def evaluate(theta, start=None):
        sol = forward_solve(fp, theta, start)
        d = (sol.U - ds.mean).reshape(-1, m)
        return sol, D * float(np.vdot(d @ W, d)) + tr_WS

    start = np.asarray(init_theta, dtype=float).ravel()
    theta = solve_qp(Qp(_identity(q), -start, cone)).z
    sol, cost = evaluate(theta)
    trace = [("gauss_newton", cost)]
    for _ in range(MAX_INNER_ITERS):
        G = _sensitivity(bs, theta, sol)
        WG = (W @ G.reshape(-1, m, q)).reshape(G.shape)  # W applied step by step
        grad = 2.0 * D * (WG.T @ (sol.U - ds.mean))
        H = 2.0 * D * (G.T @ WG)
        curvature = float(np.trace(H)) / q
        if curvature * norm.value**2 <= COST_TOL * max(1.0, cost):
            break  # U* does not move with theta here
        # the step QP at unit mean curvature, so the solver sees one scale
        H = 0.5 * (H + H.T) / curvature + _DAMPING * _identity(q)
        target = solve_qp(Qp(H, grad / curvature - H @ theta, cone)).z
        step = target - theta
        slope = float(grad @ step)
        if not slope < 0.0:
            break
        for k in range(_HALVINGS):
            trial = theta + 0.5**k * step
            sol_t, cost_t = evaluate(trial, sol)
            if cost_t <= cost + _ARMIJO * 0.5**k * slope:
                break
        else:
            break
        last = cost
        theta, sol, cost = trial, sol_t, cost_t
        trace.append(("gauss_newton", cost))
        if last - cost <= COST_TOL * max(1.0, last):
            break
    on_floor = theta.min() - floor <= model.ITERATE_ACTIVE_TOL * (1.0 + floor)
    return sol.U, theta, sol.lam, cost, "floor" if on_floor else "exact", tuple(trace)


def estimate(ds: DemoSet, fp: model.ForwardProblem, norm: NormalizationRule) -> TlsResult:
    """Full TLS pipeline: one inner solve at the per-step noise covariance."""
    m, N, D = fp.system.m, fp.horizon, ds.n_demos
    Sigma_u = _pooled_scatter(ds, m)
    if np.trace(Sigma_u) == 0.0:  # one demo, or noiseless demos
        Sigma_u = np.eye(m)
    else:
        Sigma_u /= N * (D - 1)
        Sigma_u += RIDGE * np.trace(Sigma_u) / m * np.eye(m)
    theta = kkt_single(ds.mean, fp, norm).theta
    U, theta, lam, cost, path, steps = tls_inner(ds, fp, Sigma_u, norm, theta)
    return TlsResult(
        theta=theta,
        lam=lam,
        U_hat=U,
        Sigma_u=Sigma_u,
        path=path,
        inner_traces=(steps,),
    )
