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

from dataclasses import dataclass

import numpy as np

from . import model
from .demos import DemoSet
from .numerics import Qp, solve_qp

__all__ = ["NormalizationRule", "KktLsResult", "kkt_ls", "kkt_single"]


@dataclass(frozen=True, eq=False)
class NormalizationRule:
    """Scale anchor for the homogeneous stationarity fit.

    ``kind='sum'`` fixes ``sum(theta) = value``; ``kind='component'`` fixes
    ``theta[index] = value``.
    """

    kind: str
    value: float = 1.0
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("sum", "component"):
            raise ValueError(f"kind must be 'sum' or 'component', got {self.kind!r}")
        if self.value <= 0:
            raise ValueError(f"normalization value must be positive, got {self.value}")
        object.__setattr__(self, "value", float(self.value))

    def beta_blocks(self, q: int, nv: int) -> dict:
        """:class:`~ioc_eiv.numerics.Qp` keyword blocks of the weight cone.

        The variables are ``(theta, free multipliers)``, ``nv`` in all with
        ``theta`` first: the rule is one equality on ``theta``, and every
        variable is nonnegative.
        """
        row = np.zeros(nv)
        if self.kind == "sum":
            row[:q] = 1.0
        else:
            if not 0 <= self.index < q:
                raise ValueError(f"component index {self.index} out of range for q = {q}")
            row[self.index] = 1.0
        return {"Aeq": row[None, :], "beq": np.array([self.value]),
                "Ain": -np.eye(nv), "bin": np.zeros(nv)}


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
    if norm is None:
        raise ValueError(
            "a NormalizationRule is required: without one the zero solution "
            "minimizes the homogeneous residual"
        )
    bs = model.build_stationarity(fp)
    q, L = fp.q, fp.n_multipliers
    if not any(np.any(np.abs(E) > 0) or np.any(np.abs(M) > 0)
               for E, M in zip(bs.E_theta.T, bs.Mj)):
        raise ValueError("all features have identically zero gradients")

    blocks = []   # per demo: (J_theta_d, J_act_d, active_idx)
    offsets = [q]
    for U_d in ds.U_list:
        act = np.flatnonzero(bs.active_rows(U_d, model.DEMO_ACTIVE_TOL))
        Jt = bs.J_theta(U_d)
        Ja = bs.J_lambda[:, act]
        blocks.append((Jt, Ja, act))
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

    sol = solve_qp(Qp(H=H, c=c, **norm.beta_blocks(q, nvar)))
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
