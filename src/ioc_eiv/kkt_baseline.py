"""Baseline inverse KKT estimator: least squares on the stationarity residual.

Weights ``theta`` are shared across demonstrations while each demonstration
gets its own multipliers.  Complementarity is handled by classifying each
constraint row as active or inactive at the (noisy) demonstration itself,
with :meth:`ioc_eiv.model.BilinearStationarity.active_rows` at
``model.DEMO_ACTIVE_TOL``: inactive rows have their multiplier pinned to
zero, active rows keep a free nonnegative multiplier.  Because the
stationarity residual is homogeneous in ``(theta, lam)``, a normalization
rule is mandatory; without one the zero vector is a perfect minimizer and
the estimator refuses to run.

This estimator treats the noisy inputs as exact regressors, which is what
makes it inconsistent: the quadratic terms of the residual accumulate a
noise-variance bias that does not average away with more demonstrations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .demos import DemoSet
from .numerics import Qp, QpRows, solve_qp

__all__ = ["NormalizationRule", "KktLsResult", "kkt_ls", "kkt_single"]


@dataclass(frozen=True, eq=False)
class NormalizationRule:
    """Scale anchor for the homogeneous stationarity fit.

    ``kind='sum'`` fixes ``sum(theta) = value``; ``kind='component'`` fixes
    ``theta[index] = value``.  ``index`` must be an integer, or building
    the rule raises TypeError; :meth:`beta_rows` checks that it names one
    of the ``q`` weights.
    """

    kind: str
    value: float = 1.0
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("sum", "component"):
            raise ValueError(f"kind must be 'sum' or 'component', got {self.kind!r}")
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"normalization value must be positive and finite, got {self.value}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "index", operator.index(self.index))

    def beta_rows(self, q: int, nv: int, floor: float = 0.0) -> QpRows:
        """The weight cone: :class:`~ioc_eiv.numerics.QpRows` in ``(theta, free multipliers)``.

        The variables are ``nv`` in all with ``theta`` first: the rule is
        one equality on ``theta``, and every variable is at least
        ``floor``.  The rows depend only on the rule's values and the
        arguments, so equal rules share one :class:`QpRows`, and with it
        the reduction that the first solve on them stores, across QPs, fits
        and estimators.
        """
        if self.kind == "component" and not 0 <= self.index < q:
            raise ValueError(f"component index {self.index} out of range for q = {q}")
        return _cone(self.kind, self.value, self.index, q, nv, floor)


# weight cones kept: the shipped bench grids pose their kkt, MAP and TLS
# QPs on 5 to 7 distinct cones each; a cone holds about 3 nv**2 floats
# (10 MB for the nv = 643 of a kkt fit to 320 noiseless demos)
_CONE_CACHE_SIZE = 16


@lru_cache(maxsize=_CONE_CACHE_SIZE)
def _cone(kind: str, value: float, index: int, q: int, nv: int, floor: float) -> QpRows:
    """The rows of :meth:`NormalizationRule.beta_rows`, built once per distinct key."""
    row = np.zeros(nv)
    if kind == "sum":
        row[:q] = 1.0
    else:
        row[index] = 1.0
    # 0.0 - floor keeps the bounds of a zero floor +0.0
    return QpRows(nv, row[None, :], [value], -np.eye(nv), np.zeros(nv) - floor)


def _require_rule(norm) -> None:
    """Refuse a missing rule, as every estimator does: the stationarity
    residual is homogeneous in the weights, so zero weights would fit it."""
    if norm is None:
        raise ValueError(
            "a NormalizationRule is required: without one the zero solution "
            "minimizes the homogeneous residual"
        )


@dataclass(frozen=True, eq=False)
class KktLsResult:
    theta: np.ndarray
    lam_list: tuple
    residual: float


def kkt_ls(ds: DemoSet, fp: model.ForwardProblem, norm: NormalizationRule) -> KktLsResult:
    """Joint least-squares fit of shared weights and per-demo multipliers.

    Minimizes the summed squared stationarity residual over all
    demonstrations subject to ``theta >= 0``, active multipliers >= 0, and
    the normalization rule.  Returns full-length multiplier vectors with
    zeros on inactive rows; ``residual`` is the attained sum of squares.
    """
    _require_rule(norm)
    bs = model.build_stationarity(fp)
    q, L = fp.q, fp.n_multipliers
    if not any(np.any(np.abs(E) > 0) or np.any(np.abs(M) > 0)
               for E, M in zip(bs.E_theta.T, bs.Mj)):
        raise ValueError("all features have identically zero gradients")

    blocks = [bs.free_columns(U_d, model.DEMO_ACTIVE_TOL) for U_d in ds.U_list]
    offsets = [q]
    for _, _, act in blocks:
        offsets.append(offsets[-1] + act.size)
    nvar = offsets[-1]

    H = np.zeros((nvar, nvar))
    for d, (Jt, Ja, act) in enumerate(blocks):
        s = slice(offsets[d], offsets[d + 1])
        H[:q, :q] += 2.0 * Jt.T @ Jt
        if act.size:
            H[:q, s] = 2.0 * Jt.T @ Ja
            H[s, :q] = H[:q, s].T
            H[s, s] = 2.0 * Ja.T @ Ja
    c = np.zeros(nvar)

    sol = solve_qp(Qp(H, c, norm.beta_rows(q, nvar)))
    theta = sol.z[:q].copy()
    lam_list = []
    for d, (_, _, act) in enumerate(blocks):
        lam = np.zeros(L)
        lam[act] = sol.z[offsets[d] : offsets[d + 1]]
        lam_list.append(lam)
    resid = 0.5 * float(sol.z @ H @ sol.z)
    return KktLsResult(theta=theta, lam_list=tuple(lam_list), residual=resid)


def kkt_single(U, fp: model.ForwardProblem, norm: NormalizationRule) -> KktLsResult:
    """Single-trajectory inverse KKT fit (the D = 1 case of :func:`kkt_ls`)."""
    U = np.asarray(U, dtype=float).ravel()
    ds = DemoSet(U_list=(U,), fp_ref=fp, U_star=None)
    return kkt_ls(ds, fp, norm)
