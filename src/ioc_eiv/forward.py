"""Forward solver: optimal inputs and multipliers for a given weight vector.

Because the dynamics are linear and every feature is a squared deviation,
the stage cost summed over the horizon is a strictly convex quadratic in
the stacked input ``U`` whenever the weighted curvature ``sum_j theta_j Mj``
is positive definite (guaranteed in practice by giving every input channel
its own quadratic feature).  The constrained problem is therefore one QP.
Only its Hessian and linear term depend on the weights; its rows, and the
check that every constant row holds, are built once per problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import model
from .model import objective
from .numerics import Infeasible, Qp, solve_qp

__all__ = ["ForwardSolution", "solve", "objective"]


# a constant row is violated when its value exceeds this share of the size
# of the terms that form it (BilinearStationarity.g_scale)
CONST_ROW_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ForwardSolution:
    """Optimal stacked input and full multiplier vector."""

    U: np.ndarray
    lam: np.ndarray


class _Rows(NamedTuple):
    """The theta-independent constraint pieces of one problem's forward QP."""

    index: np.ndarray  # flat multiplier index of each QP inequality row
    blocks: dict  # the Qp keyword blocks of those rows
    violated: str | None  # why a constant row fails, or None


@lru_cache(maxsize=64)
def _rows(bs: model.BilinearStationarity) -> _Rows:
    """The forward QP's rows, built once per problem.

    g(U) = J_lambda' U + g_offset <= 0 on the rows some input moves; a
    constant row, which no input moves, must hold as it is, to
    ``CONST_ROW_TOL`` of the terms that form its value.
    """
    index = np.flatnonzero(bs.nonzero_rows)
    index.flags.writeable = False
    blocks = bs.face_blocks(ineq=bs.nonzero_rows)
    for a in blocks.values():
        a.flags.writeable = False
    const = ~bs.nonzero_rows & (bs.g_offset > CONST_ROW_TOL * bs.g_scale)
    violated = None
    if const.any():
        k_bad = int(np.flatnonzero(const)[0])
        violated = (f"constraint row {k_bad} is constant and violated "
                    f"(value {bs.g_offset[k_bad]:.3e})")
    return _Rows(index, blocks, violated)


def solve(fp: model.ForwardProblem, theta, start: ForwardSolution | None = None
          ) -> ForwardSolution:
    """Solve the forward problem for weights ``theta`` (elementwise positive and finite).

    Returns the optimal ``U``, the multiplier vector (flat, step-major,
    zero on the constant rows).  Which rows are active at ``U`` is the
    face model's question: :meth:`ioc_eiv.model.BilinearStationarity.active_rows`.
    The result satisfies the stationarity, complementarity, and
    feasibility blocks of :func:`ioc_eiv.model.kkt_residual` to 1e-6.

    ``start``, an earlier solution of the same problem at other weights,
    warm-starts the QP, whose constraints do not depend on ``theta``: from
    ``start.U`` and the rows ``BilinearStationarity.held_rows(start.lam)``
    (see :func:`ioc_eiv.numerics.solve_qp` for the order it tries them in).
    The answer is the same optimum; it has the cold solve's bits whenever
    both end on the same face.

    Raises :class:`~ioc_eiv.numerics.Infeasible` when a constant row is
    violated by more than ``CONST_ROW_TOL`` of the terms that form it.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != fp.q:
        raise ValueError(f"theta has length {theta.shape[0]}, expected q = {fp.q}")
    if not (np.isfinite(theta).all() and (theta > 0).all()):
        raise ValueError("theta must be elementwise positive and finite")
    bs = model.build_stationarity(fp)
    rows = _rows(bs)
    if rows.violated:
        raise Infeasible(rows.violated)

    H = bs.M_beta(theta)
    c = bs.E_theta @ theta
    qp_start = None
    if start is not None:
        qp_start = (start.U, np.flatnonzero(bs.held_rows(start.lam)[rows.index]))
    sol = solve_qp(Qp(H=H, c=c, **rows.blocks), start=qp_start)

    lam = np.zeros(fp.n_multipliers)
    lam[rows.index] = sol.mult_in
    return ForwardSolution(U=sol.z, lam=lam)
