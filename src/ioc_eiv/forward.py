"""Forward solver: optimal inputs and multipliers for a given weight vector.

Because the dynamics are linear and every feature is a squared deviation,
the stage cost summed over the horizon is a strictly convex quadratic in
the stacked input ``U`` whenever the weighted curvature ``sum_j theta_j Mj``
is positive definite (guaranteed in practice by giving every input channel
its own quadratic feature).  The constrained problem is therefore one QP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import objective
from .numerics import Infeasible, Qp, solve_qp

__all__ = ["ForwardSolution", "solve", "objective"]


@dataclass(frozen=True, eq=False)
class ForwardSolution:
    """Optimal stacked input and full multiplier vector."""

    U: np.ndarray
    lam: np.ndarray


def solve(fp: model.ForwardProblem, theta) -> ForwardSolution:
    """Solve the forward problem for weights ``theta`` (elementwise positive and finite).

    Returns the optimal ``U``, the multiplier vector (flat, step-major,
    zero on the constant rows).  Which rows are active at ``U`` is the
    face model's question: :meth:`ioc_eiv.model.BilinearStationarity.active_rows`.
    The result satisfies the stationarity, complementarity, and
    feasibility blocks of :func:`ioc_eiv.model.kkt_residual` to 1e-6.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != fp.q:
        raise ValueError(f"theta has length {theta.shape[0]}, expected q = {fp.q}")
    if not (np.isfinite(theta).all() and (theta > 0).all()):
        raise ValueError("theta must be elementwise positive and finite")
    bs = model.build_stationarity(fp)

    H = bs.M_beta(theta)
    c = bs.E_theta @ theta

    # constraint rows: g(U) = J_lambda' U + g_offset <= 0; a constant row,
    # which no input moves, must hold as it is
    const = np.where(bs.nonzero_rows, 0.0, bs.g_offset)
    bad = np.flatnonzero(const > 1e-9)
    if bad.size:
        k_bad = int(bad[0])
        raise Infeasible(
            f"constraint row {k_bad} is constant and violated (value {const[k_bad]:.3e})"
        )
    sol = solve_qp(Qp(H=H, c=c, **bs.face_blocks(ineq=bs.nonzero_rows)))

    idx = np.flatnonzero(bs.nonzero_rows)
    lam = np.zeros(fp.n_multipliers)
    lam[idx] = sol.mult_in
    return ForwardSolution(U=sol.z, lam=lam)
