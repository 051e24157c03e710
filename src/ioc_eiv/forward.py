"""Forward solver: optimal inputs and multipliers for a given weight vector.

Because the dynamics are linear and every feature is a squared deviation,
the stage cost summed over the horizon is a strictly convex quadratic in
the stacked input ``U`` whenever the weighted curvature ``sum_j theta_j Mj``
is positive definite (guaranteed in practice by giving every input channel
its own quadratic feature).  The constrained problem is therefore one QP.
Only its Hessian and linear term depend on the weights.  Its rows, and the
first constant row that fails to hold, come from the face model,
:class:`ioc_eiv.model.BilinearStationarity`, which prepares the rows once
per problem as a :class:`~ioc_eiv.numerics.QpRows`: every solve on a
problem poses only ``(H, c)`` on them, and the first stores their
reduction for the rest.
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


def solve(fp: model.ForwardProblem, theta, start: ForwardSolution | None = None
          ) -> ForwardSolution:
    """Solve the forward problem for weights ``theta`` (elementwise positive and finite).

    Returns the optimal ``U``, the multiplier vector (flat, step-major,
    zero on the constant rows).  Which rows are active at ``U`` is the
    face model's question: :meth:`ioc_eiv.model.BilinearStationarity.active_rows`.
    The result satisfies the stationarity, complementarity, and
    feasibility blocks of :func:`ioc_eiv.model.kkt_residual` to 1e-6.

    The QP's face search (:func:`ioc_eiv.numerics.solve_qp`) starts from
    the rows the unconstrained minimizer violates.  ``start``, an earlier
    solution of the same problem at other weights, starts it instead from
    the face ``BilinearStationarity.held_rows(start.lam)``, since the QP's
    constraints do not depend on ``theta``.  The answer is the same
    optimum; it has the cold solve's bits whenever both end on the same face.

    Raises :class:`~ioc_eiv.numerics.Infeasible` when a constant row is
    violated by more than ``model.CONST_ROW_TOL`` of the terms that form it.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != fp.q:
        raise ValueError(f"theta has length {theta.shape[0]}, expected q = {fp.q}")
    if not (np.isfinite(theta).all() and (theta > 0).all()):
        raise ValueError("theta must be elementwise positive and finite")
    bs = model.build_stationarity(fp)
    k = bs.violated_row
    if k is not None:
        raise Infeasible(f"constraint row {k} is constant and violated "
                         f"(value {bs.g_offset[k]:.3e})")

    H = bs.M_beta(theta)
    c = bs.E_theta @ theta
    face = None if start is None else np.flatnonzero(bs.held_rows(start.lam)[bs.ineq_rows])
    sol = solve_qp(Qp(H, c, bs.forward_rows), face=face)

    lam = np.zeros(fp.n_multipliers)
    lam[bs.ineq_rows] = sol.mult_in
    return ForwardSolution(U=sol.z, lam=lam)
