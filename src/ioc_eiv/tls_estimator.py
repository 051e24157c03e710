"""Total least squares estimator with hard stationarity.

:func:`tls_inner` solves, for a fixed demo covariance, the projection
problem

    min_{U, beta}  sum_d (U - U_d)' Sigma_U^{-1} (U - U_d)
    s.t.           J(U) beta = 0,  complementarity, signs, normalization,

and :func:`estimate` repeats it with the covariance re-estimated at the
latest ``U`` until the covariance moves less than ``SIGMA_TOL``.  The
bilinear constraint is handled blockwise: at fixed ``beta`` it is linear in
``U`` (slope ``M_beta``), at fixed ``U`` linear in ``beta``.  Every QP takes
its constraint rows and faces from :class:`~ioc_eiv.model.BilinearStationarity`
and its weight cone from ``NormalizationRule.beta_blocks``.

What runs on noisy data: :func:`estimate` starts from the sample mean and a
:func:`~ioc_eiv.kkt_baseline.kkt_single` fit to it.  In the first inner call
the exact alternation fails in its first iteration: at fixed ``U`` there
are more stationarity rows than free multipliers, so the hard constraint
set is empty.  That call runs a penalty homotopy on
``||J(U) beta||^2`` over ``PENALTY_WEIGHTS`` instead, each phase a
proximal beta-step alternating with a U-step, and ends with an exact
re-projection: a joint ``(U, lambda)`` step at fixed ``theta`` that restores
``J(U) beta = 0`` and complementarity.  When no face pattern admits that
projection, the forward optimizer for the current weights completes the
estimate instead, which satisfies every optimality block by construction.
At fixed ``beta``, hard stationarity is ``mN`` equations in the ``mN``
inputs, so a projected ``U`` does not depend on the covariance.  After a
projected call the next one starts on an exactly feasible point, runs the
exact alternation, moves the iterate only by rounding, and the unchanged
covariance ends the outer loop; on the shipped configurations every
estimate makes exactly these two inner calls.  A call that ends
``penalty_unprojected`` leaves ``U`` off the constraint set, so the refit
covariance moves and the outer loop feeds back: on ``spring_damper`` at
``N = 25`` most estimates make one to four such calls before a projected
one, and each of those ends at a corner where one weight is zero.  The
result reports the path of the last inner call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .demos import DemoSet, sample_mean
from .forward import solve as forward_solve
from .kkt_baseline import NormalizationRule, _require_rule, kkt_single
from .numerics import (
    Infeasible,
    IterationLimit,
    NotPositiveDefinite,
    Qp,
    _identity,
    cholesky,
    cholesky_inverse,
    solve_qp,
)

__all__ = ["TlsResult", "tls_inner", "estimate"]

_PROX_WEIGHT = 1e-6
SIGMA_TOL = 1e-6  # outer loop stops once the covariance moves less (Frobenius)
RIDGE = 1e-8  # added to every covariance estimate
MAX_INNER_ITERS = 100  # alternations per inner phase
MAX_OUTER_ITERS = 50  # covariance updates per estimate
COST_TOL = 1e-9  # an inner phase stops once the merit falls by at most this, relatively
PENALTY_WEIGHTS = (1e2, 1e4, 1e6)  # homotopy run when the hard constraint set is empty


@dataclass(frozen=True, eq=False)
class TlsResult:
    theta: np.ndarray
    lam: np.ndarray
    U_hat: np.ndarray
    Sigma_U_hat: np.ndarray
    residuals: tuple
    outer_trace: tuple
    path: str
    inner_traces: tuple


class _Inner:
    """Workspace for one tls_inner call (fixed Sigma_U).

    Holds the terms of every U-step that do not change with the iterate:
    the demo term's Hessian ``2 D Sigma_U^{-1}`` and linear term
    ``-2 Sigma_U^{-1} sum_d U_d``.
    """

    def __init__(self, ds, Sigma_U, norm, bs):
        self.norm = norm
        self.bs = bs
        self.q = bs.n_features
        self.L = bs.n_multipliers
        self.SU_inv = cholesky_inverse(cholesky(np.asarray(Sigma_U, dtype=float)))
        self.stackd = ds.stacked()
        self.H_demo = 2.0 * ds.n_demos * self.SU_inv
        self.c_demo = -2.0 * (self.SU_inv @ ds.demo_sum())

    def demo_cost(self, U):
        R = self.stackd - U
        return float(((R @ self.SU_inv) * R).sum())

    def beta_step(self, U, beta_prev, weight=None):
        """Update beta at fixed U; exact when weight is None."""
        act = np.flatnonzero(self.bs.active_rows(U, model.ITERATE_ACTIVE_TOL))
        B = np.hstack([self.bs.J_theta(U), self.bs.J_lambda[:, act]])
        nv = self.q + act.size
        v_prev = np.concatenate([beta_prev[: self.q], beta_prev[self.q + act]])
        cone = self.norm.beta_blocks(self.q, nv)
        if weight is None:
            cone["Aeq"] = np.vstack([B, cone["Aeq"]])
            cone["beq"] = np.concatenate([np.zeros(B.shape[0]), cone["beq"]])
            qp = Qp(H=_identity(nv), c=-v_prev, **cone)
        else:
            H = 2.0 * weight * (B.T @ B) + _PROX_WEIGHT * _identity(nv)
            qp = Qp(H=0.5 * (H + H.T), c=-_PROX_WEIGHT * v_prev, **cone)
        sol = solve_qp(qp)
        beta = np.zeros(self.q + self.L)
        beta[: self.q] = sol.z[: self.q]
        beta[self.q + act] = sol.z[self.q :]
        return beta

    def u_step(self, beta, weight=None, Mb=None):
        """Update U at fixed beta; hard stationarity when weight is None.

        ``Mb``, when given, is ``M_beta`` of beta's theta.
        """
        theta, lam = beta[: self.q], beta[self.q :]
        if Mb is None:
            Mb = self.bs.M_beta(theta)
        Ebeta = self.bs.E_theta @ theta + self.bs.J_lambda @ lam
        H, c = self.H_demo, self.c_demo
        held = self.bs.held_rows(lam)
        kw = self.bs.face_blocks(eq=held, ineq=~held)
        if weight is None:
            kw["Aeq"] = np.vstack([Mb, kw.get("Aeq", np.zeros((0, Mb.shape[1])))])
            kw["beq"] = np.concatenate([-Ebeta, kw.get("beq", np.zeros(0))])
        else:
            H = H + 2.0 * weight * (Mb.T @ Mb)
            c = c + 2.0 * weight * (Mb.T @ Ebeta)
        sol = solve_qp(Qp(H=0.5 * (H + H.T), c=c, **kw))
        return sol.z

    def project(self, U, beta):
        """Joint (U, lambda) equality projection at fixed theta.

        Restores hard stationarity and complementarity; tries the faces of
        the current iterate first, then the multiplier support, then no
        faces at all.  Returns (U, beta) or None if every pattern fails.
        """
        theta, lam = beta[: self.q], beta[self.q :]
        Mb = self.bs.M_beta(theta)
        Etheta = self.bs.E_theta @ theta
        mN = self.bs.n_inputs
        candidates = [
            self.bs.active_rows(U, model.ITERATE_ACTIVE_TOL),
            self.bs.held_rows(lam),
            np.zeros(self.L, dtype=bool),
        ]
        for faces in candidates:
            S = np.flatnonzero(faces)
            nS = S.size
            H = np.zeros((mN + nS, mN + nS))
            H[:mN, :mN] = self.H_demo
            H[mN:, mN:] = _PROX_WEIGHT * _identity(nS)
            c = np.concatenate([self.c_demo, -_PROX_WEIGHT * lam[S]])
            # variables (U, lam_S): stationarity and the faces S are
            # equalities; the other rows and lam_S >= 0 are inequalities
            rows = self.bs.face_blocks(eq=faces, ineq=~faces)
            G_S, G_rest = (rows.get(k, np.zeros((0, mN))) for k in ("Aeq", "Ain"))
            g_S, g_rest = (rows.get(k, np.zeros(0)) for k in ("beq", "bin"))
            blocks = {
                "Aeq": np.block([[Mb, self.bs.J_lambda[:, S]], [G_S, np.zeros((nS, nS))]]),
                "beq": np.concatenate([-Etheta, g_S]),
                "Ain": np.block([[G_rest, np.zeros((G_rest.shape[0], nS))],
                                 [np.zeros((nS, mN)), -np.eye(nS)]]),
                "bin": np.concatenate([g_rest, np.zeros(nS)]),
            }
            try:
                sol = solve_qp(Qp(H=0.5 * (H + H.T), c=c, **blocks))
            except Infeasible:
                continue
            U_new = sol.z[:mN]
            beta_new = np.zeros(self.q + self.L)
            beta_new[: self.q] = theta
            beta_new[self.q + S] = sol.z[mN:]
            return U_new, beta_new
        return None


def tls_inner(ds: DemoSet, fp: model.ForwardProblem, Sigma_U, norm: NormalizationRule,
              init_U, init_beta, bs: model.BilinearStationarity | None = None):
    """One inner solve at fixed covariance.

    Returns ``(U, theta, lam, cost, path, step_trace)`` where ``cost`` is
    the attained demo term and ``step_trace`` records (label, merit value)
    per half-step; the merit is non-increasing within each labelled phase.
    """
    _require_rule(norm)
    if bs is None:
        bs = model.build_stationarity(fp)
    ws = _Inner(ds, Sigma_U, norm, bs)
    U = np.asarray(init_U, dtype=float).ravel().copy()
    beta = np.asarray(init_beta, dtype=float).ravel().copy()
    trace = []
    path = "exact"

    def alternate(weight):
        nonlocal U, beta
        label = "exact" if weight is None else f"penalty_{weight:g}"
        bs, q = ws.bs, ws.q

        def merit(cost, U_, beta_, Mb=None):
            # cost is demo_cost(U_); Mb, when given, is M_beta of beta_'s theta
            if weight is None:
                return cost
            s = bs.stationarity(U_, beta_[:q], beta_[q:], Mb)
            return cost + weight * float(s @ s)

        cost_u = ws.demo_cost(U)
        last = merit(cost_u, U, beta)
        trace.append((label, last))
        for _ in range(MAX_INNER_ITERS):
            beta_new = ws.beta_step(U, beta, weight)
            # the exact merit does not read M_beta: u_step builds it there
            Mb = None if weight is None else bs.M_beta(beta_new[:q])
            m_b = merit(cost_u, U, beta_new, Mb)
            if m_b > last + 1e-12 * max(1.0, abs(last)):
                break
            U_new = ws.u_step(beta_new, weight, Mb)
            cost_new = ws.demo_cost(U_new)
            m_u = merit(cost_new, U_new, beta_new, Mb)
            if m_u > m_b + 1e-12 * max(1.0, abs(m_b)):
                beta = beta_new
                trace.append((label, m_b))
                break
            moved = max(
                float(np.abs(U_new - U).max(initial=0.0)),
                float(np.abs(beta_new - beta).max(initial=0.0)),
            )
            U, beta, cost_u = U_new, beta_new, cost_new
            trace.append((label, m_b))
            trace.append((label, m_u))
            if last - m_u <= COST_TOL * max(1.0, abs(last)) and moved <= 1e-9 * (
                1.0 + float(np.abs(U).max(initial=0.0))
            ):
                break
            last = m_u

    try:
        alternate(None)
    except Infeasible:
        path = "penalty"
        for w in PENALTY_WEIGHTS:
            alternate(w)
        proj = ws.project(U, beta)
        if proj is None:
            # the joint projection found no workable face pattern; completing
            # the estimate with the exact optimizer for the current weights
            # restores every optimality block at once
            try:
                fsol = forward_solve(fp, beta[: ws.q])
                proj = fsol.U, np.concatenate([beta[: ws.q], fsol.lam])
            except (Infeasible, IterationLimit, NotPositiveDefinite, ValueError):
                proj = None
        if proj is not None:
            U, beta = proj
        else:
            path = "penalty_unprojected"
    cost = ws.demo_cost(U)
    return U, beta[: ws.q], beta[ws.q :], cost, path, tuple(trace)


def _covariance(ds: DemoSet, U) -> np.ndarray:
    R = ds.stacked() - np.asarray(U, dtype=float).ravel()
    return (R.T @ R) / ds.n_demos + RIDGE * np.eye(R.shape[1])


def estimate(ds: DemoSet, fp: model.ForwardProblem, norm: NormalizationRule) -> TlsResult:
    """Full TLS pipeline: alternate covariance updates with inner solves."""
    bs = model.build_stationarity(fp)
    U = sample_mean(ds)
    fit = kkt_single(U, fp, norm)
    beta = np.concatenate([fit.theta, fit.lam_list[0]])

    Sigma_prev = None
    outer_trace = []
    inner_traces = []
    path = "exact"
    theta, lam = beta[: fp.q], beta[fp.q :]
    for _ in range(MAX_OUTER_ITERS):
        Sigma_U = _covariance(ds, U)
        delta = (
            float(np.linalg.norm(Sigma_U - Sigma_prev, ord="fro"))
            if Sigma_prev is not None
            else float("nan")
        )
        if Sigma_prev is not None and delta < SIGMA_TOL:
            outer_trace.append((float("nan"), delta))
            break
        Sigma_prev = Sigma_U
        U, theta, lam, cost, path, steps = tls_inner(
            ds, fp, Sigma_U, norm, U, np.concatenate([theta, lam]), bs=bs
        )
        outer_trace.append((cost, delta))
        inner_traces.append(steps)

    U_hat = U
    Sigma_hat = _covariance(ds, U_hat)
    residuals = tuple(U_d - U_hat for U_d in ds.U_list)
    return TlsResult(
        theta=theta,
        lam=lam,
        U_hat=U_hat,
        Sigma_U_hat=Sigma_hat,
        residuals=residuals,
        outer_trace=tuple(outer_trace),
        path=path,
        inner_traces=tuple(inner_traces),
    )
