"""Linear-quadratic-polytopic optimal control problems and their KKT structure.

The forward problem is a discrete-time optimal control problem with linear
dynamics ``x_{k+1} = A x_k + B u_k``, a stage cost that is a nonnegative
combination of squared-deviation features ``(coordinate - target)**2``
accumulated over ``k = 0..N-1``, and polytopic inequality constraints
``Hx x_k + Hu u_k <= h`` enforced at every step ``k = 0..N``.  At the
terminal step only the state part of each constraint row applies (there is
no ``u_N``).

Everything downstream exploits one structural fact: with the inputs stacked
into a single vector ``U = (u_0, ..., u_{N-1})``, the gradient of the
Lagrangian with respect to ``U`` is *affine* in ``U`` and *linear* in the
weights and multipliers,

    grad_U L = (sum_j theta_j M_j) U + E_theta theta + J_lambda lam,

with constant matrices ``M_j``, ``E_theta`` and ``J_lambda`` that depend
only on the problem data.  :func:`build_stationarity` assembles this
decomposition once; estimators then treat stationarity as a bilinear
residual in ``(U, beta)`` where ``beta = (theta, lam)``.

Multipliers are stored flat in step-major order: entry ``k * I + i`` belongs
to constraint row ``i`` at step ``k``, for ``k = 0..N``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import QpRows, _finite

__all__ = [
    "LinearSystem",
    "QuadraticFeature",
    "PolytopicConstraints",
    "ForwardProblem",
    "StackedDynamics",
    "BilinearStationarity",
    "KktResidual",
    "rollout",
    "stack_dynamics",
    "build_stationarity",
    "feature_values",
    "constraint_values",
    "objective",
    "kkt_residual",
    "multiplier_index",
]


# a constraint row whose coefficients on U are all at most this in magnitude
# is treated as constant
ZERO_ROW_TOL = 1e-13
# a constant row is violated when its value exceeds this share of the size
# of the terms that form it (BilinearStationarity.g_scale)
CONST_ROW_TOL = 1e-9
# activity tolerances of BilinearStationarity.active_rows: the inverse-KKT
# baseline classifies noisy demonstrations with the looser one, MAP and TLS
# classify their own iterates with the tighter one, which is also the
# multiplier threshold of BilinearStationarity.held_rows
DEMO_ACTIVE_TOL = 1e-6
ITERATE_ACTIVE_TOL = 1e-7


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _check_finite(**arrays) -> None:
    """Raise ValueError naming the first of the float ``arrays`` with a NaN or an infinity."""
    for name, a in arrays.items():
        if not _finite(a):
            raise ValueError(f"{name} must be finite")


def _exact(a: np.ndarray) -> tuple:
    """``(shape, bytes)`` of an array: equal exactly when the arrays are bit for bit."""
    return a.shape, a.tobytes()


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Discrete-time linear dynamics ``x_{k+1} = A x_k + B u_k``."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _frozen_array(self.A)
        B = _frozen_array(self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
            )
        _check_finite(A=A, B=B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class QuadraticFeature:
    """One squared-deviation cost feature ``(coordinate - target)**2``.

    ``kind`` selects whether ``index`` addresses a state coordinate of
    ``x_k`` or an input channel of ``u_k``.
    """

    kind: str
    index: int
    target: float = 0.0

    def __post_init__(self):
        if self.kind not in ("state", "input"):
            raise ValueError(f"feature kind must be 'state' or 'input', got {self.kind!r}")
        index, target = operator.index(self.index), float(self.target)
        if index < 0:
            raise ValueError(f"feature index must be nonnegative, got {index}")
        if not math.isfinite(target):
            raise ValueError(f"feature target must be finite, got {target}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True, eq=False)
class PolytopicConstraints:
    """Stagewise polytope ``Hx x + Hu u <= h`` (``I`` rows)."""

    Hx: np.ndarray
    Hu: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        Hx = np.atleast_2d(_frozen_array(self.Hx))
        Hu = np.atleast_2d(_frozen_array(self.Hu))
        h = np.atleast_1d(_frozen_array(self.h))
        if Hx.shape[0] != Hu.shape[0] or Hx.shape[0] != h.shape[0]:
            raise ValueError(
                f"constraint row counts disagree: Hx {Hx.shape[0]}, Hu {Hu.shape[0]}, h {h.shape[0]}"
            )
        _check_finite(Hx=Hx, Hu=Hu, h=h)
        Hx.flags.writeable = False
        Hu.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "Hx", Hx)
        object.__setattr__(self, "Hu", Hu)
        object.__setattr__(self, "h", h)

    @property
    def n_rows(self) -> int:
        return self.h.shape[0]

    @staticmethod
    def empty(n: int, m: int) -> "PolytopicConstraints":
        return PolytopicConstraints(np.zeros((0, n)), np.zeros((0, m)), np.zeros(0))


@dataclass(frozen=True, eq=False)
class ForwardProblem:
    """Complete description of one forward optimal control problem.

    Two problems are equal when every field holds the same shapes and the
    same bytes, however each was built, so equal problems share one
    :func:`build_stationarity` entry.
    """

    system: LinearSystem
    features: tuple
    constraints: PolytopicConstraints
    horizon: int
    x0: np.ndarray
    theta_true: np.ndarray | None = None
    _key: tuple | None = field(default=None, init=False, repr=False)
    _hash: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        horizon = operator.index(self.horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        object.__setattr__(self, "horizon", horizon)
        feats = tuple(self.features)
        if not feats:
            raise ValueError("at least one feature is required")
        n, m = self.system.n, self.system.m
        for f in feats:
            dim = n if f.kind == "state" else m
            if f.index >= dim:
                raise ValueError(
                    f"feature index {f.index} out of range for {f.kind} dimension {dim}"
                )
        x0 = np.atleast_1d(_frozen_array(self.x0))
        if x0.shape != (n,):
            raise ValueError(f"x0 has length {x0.shape[0]}, expected n = {n}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        if self.constraints.Hx.shape[1] != n or self.constraints.Hu.shape[1] != m:
            raise ValueError(
                "constraint column counts disagree with system dimensions: "
                f"Hx cols {self.constraints.Hx.shape[1]} (n = {n}), "
                f"Hu cols {self.constraints.Hu.shape[1]} (m = {m})"
            )
        theta = self.theta_true
        if theta is not None:
            theta = np.atleast_1d(_frozen_array(theta))
            if theta.shape != (len(feats),):
                raise ValueError(
                    f"theta_true has length {theta.shape[0]}, expected q = {len(feats)}"
                )
            if not (np.isfinite(theta).all() and (theta > 0).all()):
                raise ValueError("theta_true must be elementwise positive and finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "theta_true", theta)
        con = self.constraints
        key = (
            _exact(self.system.A), _exact(self.system.B),
            tuple((f.kind, f.index) for f in feats),
            _exact(np.array([f.target for f in feats])),
            _exact(con.Hx), _exact(con.Hu), _exact(con.h),
            self.horizon, _exact(x0), None if theta is None else _exact(theta),
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if not isinstance(other, ForwardProblem):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, so a copy in another process hashes with that
        # process's string hash seed
        return type(self), (self.system, self.features, self.constraints,
                            self.horizon, self.x0, self.theta_true)

    @property
    def q(self) -> int:
        return len(self.features)

    @property
    def n_inputs(self) -> int:
        """Dimension of the stacked input vector, m * N."""
        return self.system.m * self.horizon

    @property
    def n_multipliers(self) -> int:
        """Number of multipliers, I * (N + 1)."""
        return self.constraints.n_rows * (self.horizon + 1)


@dataclass(frozen=True, eq=False)
class StackedDynamics:
    """Stacked state response ``x_stack = Abar x0 + Bbar U``.

    Block row ``k`` of ``Abar`` is ``A**k``; block ``(k, j)`` of ``Bbar``
    is ``A**(k-1-j) B`` for ``j < k`` and zero otherwise, so the first
    block rows are the identity and zero respectively.
    """

    Abar: np.ndarray
    Bbar: np.ndarray


def multiplier_index(i: int, k: int, n_rows: int) -> int:
    """Flat index of multiplier for constraint row ``i`` at step ``k``."""
    return k * n_rows + i


def rollout(system: LinearSystem, x0, U, horizon: int) -> np.ndarray:
    """Simulate the dynamics, returning states stacked as an (N+1, n) array.

    ``U`` is the flat stacked input (step-major).
    """
    n, m = system.n, system.m
    x0 = np.asarray(x0, dtype=float)
    U = np.asarray(U, dtype=float).ravel()
    if x0.shape != (n,):
        raise ValueError(f"x0 has length {x0.shape[0]}, expected n = {n}")
    if U.shape[0] != m * horizon:
        raise ValueError(
            f"U has length {U.shape[0]}, expected m * N = {m * horizon}"
        )
    X = np.empty((horizon + 1, n))
    X[0] = x0
    for k in range(horizon):
        X[k + 1] = system.A @ X[k] + system.B @ U[k * m : (k + 1) * m]
    return X


def stack_dynamics(system: LinearSystem, horizon: int) -> StackedDynamics:
    """Assemble the stacked response matrices for ``k = 0..N``."""
    n, m, N = system.n, system.m, horizon
    Abar = np.zeros(((N + 1) * n, n))
    Bbar = np.zeros(((N + 1) * n, m * N))
    Ak = np.eye(n)
    Abar[0:n] = Ak
    # powers[d] = A**d B
    powers = [system.B.copy()]
    for _ in range(N - 1):
        powers.append(system.A @ powers[-1])
    for k in range(1, N + 1):
        Ak = system.A @ Ak
        Abar[k * n : (k + 1) * n] = Ak
        for j in range(k):
            Bbar[k * n : (k + 1) * n, j * m : (j + 1) * m] = powers[k - 1 - j]
    Abar.flags.writeable = False
    Bbar.flags.writeable = False
    return StackedDynamics(Abar=Abar, Bbar=Bbar)


@dataclass(frozen=True, eq=False)
class BilinearStationarity:
    """Constant matrices of the affine stationarity map.

    ``stationarity(U, beta) = (sum_j theta_j Mj[j]) U + E_theta theta
    + J_lambda lam`` with ``beta = (theta, lam)``; ``Ms`` is ``Mj`` stacked
    into one ``(q, mN, mN)`` array.  ``J_lambda.T`` is also
    the Jacobian of the stacked constraint values, so
    ``g(U) = J_lambda.T U + g_offset``.

    It is also the one face model of every estimator QP.  Which rows exist:
    ``nonzero_rows`` marks the rows that some input moves, those whose
    largest ``|J_lambda|`` entry exceeds ``ZERO_ROW_TOL``; the others are
    constants, never a constraint, never active and never given a free
    multiplier; ``g_scale`` is the size of the terms that form each
    ``g_offset`` entry, ``|Hx_i| |A^k x0| + |h_i|``, the scale against which
    a constant row's value is read.  The forward QP poses every nonconstant
    row as an inequality: ``ineq_rows`` are their flat indices and
    ``forward_rows`` the forward QP's :class:`~ioc_eiv.numerics.QpRows`,
    built once per problem by :meth:`face_rows`, whose ``Ain``, ``bin``
    hold those rows in that order (empty when no row is nonconstant).  A constant
    row must hold as it is, to ``CONST_ROW_TOL`` of ``g_scale``;
    ``violated_row`` is the first that does not, or None.  Which rows are faces:
    :meth:`active_rows` are the rows active at ``U``,
    ``|g_i| <= tol * (1 + h_ref_i)`` with ``h_ref`` the per-row scale
    ``|h|`` tiled over steps ``0..N``; :meth:`held_rows` are the rows a
    multiplier above ``ITERATE_ACTIVE_TOL`` holds.  How faces
    enter a QP in ``U``: :meth:`face_rows` poses one mask of rows as
    equalities ``g_i(U) = 0`` and another as inequalities ``g_i(U) <= 0``.
    A QP in ``beta`` frees the weights and the multipliers of the active
    rows only, whose Jacobian columns :meth:`free_columns` returns.
    """

    Mj: tuple
    E_theta: np.ndarray
    J_lambda: np.ndarray
    g_offset: np.ndarray
    h_ref: np.ndarray
    g_scale: np.ndarray
    n_features: int = field(init=False)
    Ms: np.ndarray = field(init=False, repr=False)
    nonzero_rows: np.ndarray = field(init=False, repr=False)
    ineq_rows: np.ndarray = field(init=False, repr=False)
    forward_rows: QpRows = field(init=False, repr=False)
    violated_row: int | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_features", len(self.Mj))
        Ms = np.stack(self.Mj)
        Ms.flags.writeable = False
        object.__setattr__(self, "Ms", Ms)
        nonzero = np.max(np.abs(self.J_lambda), axis=0, initial=0.0) > ZERO_ROW_TOL
        nonzero.flags.writeable = False
        object.__setattr__(self, "nonzero_rows", nonzero)
        object.__setattr__(self, "ineq_rows", _frozen_array(np.flatnonzero(nonzero), int))
        object.__setattr__(self, "forward_rows", self.face_rows(ineq=nonzero))
        violated = np.flatnonzero(~nonzero & (self.g_offset > CONST_ROW_TOL * self.g_scale))
        object.__setattr__(self, "violated_row", int(violated[0]) if violated.size else None)

    @property
    def n_inputs(self) -> int:
        return self.E_theta.shape[0]

    @property
    def n_multipliers(self) -> int:
        return self.J_lambda.shape[1]

    def M_beta(self, theta) -> np.ndarray:
        """Weighted curvature matrix ``sum_j theta_j Mj[j]``.

        One reduction over the stacked ``Ms``: it forms the products
        ``theta_j Mj[j]`` and adds them to zero in order of ``j``, as a
        loop over the features would.  Raises ValueError unless ``theta``
        holds one weight per feature.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_features,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.n_features},): "
                "one weight per feature"
            )
        return np.add.reduce(self.Ms * theta[:, None, None], axis=0, initial=0.0)

    def J_theta(self, U) -> np.ndarray:
        """Feature block of the stationarity Jacobian at ``U`` (affine in U).

        Column ``j`` is ``Mj[j] @ U + E_theta[:, j]``, bit for bit; all
        columns come from one stacked product with ``Ms``.
        """
        return (self.Ms @ np.asarray(U, dtype=float)).T + self.E_theta

    def J(self, U) -> np.ndarray:
        """Full Jacobian ``[J_theta(U), J_lambda]``."""
        return np.concatenate([self.J_theta(U), self.J_lambda], axis=1)

    def stationarity(self, U, theta, lam) -> np.ndarray:
        """Stationarity residual ``M_beta(theta) U + E_theta theta + J_lambda lam``."""
        U = np.asarray(U, dtype=float)
        theta = np.asarray(theta, dtype=float)
        lam = np.asarray(lam, dtype=float)
        return self.M_beta(theta) @ U + self.E_theta @ theta + self.J_lambda @ lam

    def constraint_values(self, U) -> np.ndarray:
        """All stagewise constraint values ``g`` at ``U``, flat step-major."""
        return self.J_lambda.T @ np.asarray(U, dtype=float) + self.g_offset

    def active_rows(self, U, tol: float) -> np.ndarray:
        """Mask of the nonconstant rows active at ``U``: ``|g| <= tol * (1 + h_ref)``."""
        return (np.abs(self.constraint_values(U)) <= tol * (1.0 + self.h_ref)) & self.nonzero_rows

    def held_rows(self, lam) -> np.ndarray:
        """Mask of the nonconstant rows whose multiplier exceeds ``ITERATE_ACTIVE_TOL``."""
        return (np.asarray(lam) > ITERATE_ACTIVE_TOL) & self.nonzero_rows

    def free_columns(self, U, tol: float) -> tuple:
        """``(J_theta(U), J_lambda[:, act], act)`` of a QP in ``beta`` at ``U``.

        Such a QP frees the weights and the multipliers of the rows active
        at ``U`` (:meth:`active_rows` at ``tol``), whose flat indices are
        ``act``; the two blocks are the stationarity Jacobian's columns of
        those variables.
        """
        act = np.flatnonzero(self.active_rows(U, tol))
        return self.J_theta(U), self.J_lambda[:, act], act

    def face_rows(self, eq=None, ineq=None) -> QpRows:
        """:class:`~ioc_eiv.numerics.QpRows` of constraint rows in ``U``.

        Rows in the mask ``eq`` become equalities ``g_i(U) = 0``, rows in
        the mask ``ineq`` inequalities ``g_i(U) <= 0``.  A constant row is
        never posed, and a mask left out poses an empty block.
        """
        blocks = []
        for rows in (eq, ineq):
            rows = self.nonzero_rows & (False if rows is None else rows)
            blocks += [self.J_lambda.T[rows], -self.g_offset[rows]]
        return QpRows(self.n_inputs, *blocks)


def _input_selector(k: int, m: int, n_inputs: int) -> np.ndarray:
    S = np.zeros((m, n_inputs))
    S[:, k * m : (k + 1) * m] = np.eye(m)
    return S


@lru_cache(maxsize=64)
def build_stationarity(fp: ForwardProblem) -> BilinearStationarity:
    """Assemble the constant stationarity decomposition for a problem.

    The result satisfies, for every admissible ``(U, theta, lam)``,

        stationarity(U, theta, lam) == grad_U L(theta, lam, U)

    where L is the Lagrangian of the forward problem (verified against
    central finite differences in the tests).  The last 64 distinct
    problems are cached; equal problems share one entry (see
    :class:`ForwardProblem`), so a process builds each problem once.
    """
    sys_, N = fp.system, fp.horizon
    n, m = sys_.n, sys_.m
    mN = fp.n_inputs
    stacked = stack_dynamics(sys_, N)
    ax0 = stacked.Abar @ fp.x0

    Mj = []
    E_cols = []
    for f in fp.features:
        if f.kind == "state":
            # rows of Bbar selecting coordinate f.index at steps 0..N-1
            rows = [k * n + f.index for k in range(N)]
            P = stacked.Bbar[rows, :]
            offs = ax0[rows] - f.target
        else:
            P = np.zeros((N, mN))
            for k in range(N):
                P[k, k * m + f.index] = 1.0
            offs = np.full(N, -f.target)
        Mj.append(2.0 * P.T @ P)
        E_cols.append(2.0 * P.T @ offs)
    E_theta = np.column_stack(E_cols)

    con = fp.constraints
    I = con.n_rows
    L = I * (N + 1)
    J_lambda = np.zeros((mN, L))
    g_offset = np.zeros(L)
    g_scale = np.zeros(L)
    for k in range(N + 1):
        Bk = stacked.Bbar[k * n : (k + 1) * n, :]
        Sk = _input_selector(k, m, mN) if k < N else None
        for i in range(I):
            col = Bk.T @ con.Hx[i]
            if Sk is not None:
                col = col + Sk.T @ con.Hu[i]
            idx = multiplier_index(i, k, I)
            J_lambda[:, idx] = col
            g_offset[idx] = con.Hx[i] @ ax0[k * n : (k + 1) * n] - con.h[i]
            g_scale[idx] = np.abs(con.Hx[i]) @ np.abs(ax0[k * n : (k + 1) * n]) + abs(con.h[i])

    for M in Mj:
        M.flags.writeable = False
    E_theta.flags.writeable = False
    J_lambda.flags.writeable = False
    g_offset.flags.writeable = False
    g_scale.flags.writeable = False
    h_ref = np.abs(np.tile(con.h, N + 1))
    h_ref.flags.writeable = False
    return BilinearStationarity(
        Mj=tuple(Mj), E_theta=E_theta, J_lambda=J_lambda, g_offset=g_offset, h_ref=h_ref,
        g_scale=g_scale,
    )


def feature_values(fp: ForwardProblem, x, u) -> np.ndarray:
    """Feature vector phi(x, u) at one stage."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty(fp.q)
    for j, f in enumerate(fp.features):
        coord = x[f.index] if f.kind == "state" else u[f.index]
        out[j] = (coord - f.target) ** 2
    return out


def constraint_values(fp: ForwardProblem, U) -> np.ndarray:
    """Stagewise constraint values via an explicit rollout.

    Independent of :func:`build_stationarity`; used as an oracle in tests.
    At the terminal step only the state part of each row applies.
    """
    m, N = fp.system.m, fp.horizon
    con = fp.constraints
    U = np.asarray(U, dtype=float).ravel()
    X = rollout(fp.system, fp.x0, U, N)
    out = np.empty(fp.n_multipliers)
    for k in range(N + 1):
        gx = con.Hx @ X[k]
        if k < N:
            gx = gx + con.Hu @ U[k * m : (k + 1) * m]
        out[k * con.n_rows : (k + 1) * con.n_rows] = gx - con.h
    return out


def objective(fp: ForwardProblem, theta, U) -> float:
    """Cost of input sequence ``U`` evaluated by explicit rollout."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != fp.q:
        raise ValueError(f"theta has length {theta.shape[0]}, expected q = {fp.q}")
    m, N = fp.system.m, fp.horizon
    U = np.asarray(U, dtype=float).ravel()
    X = rollout(fp.system, fp.x0, U, N)
    total = 0.0
    for k in range(N):
        total += float(theta @ feature_values(fp, X[k], U[k * m : (k + 1) * m]))
    return total


class KktResidual(NamedTuple):
    """KKT residual blocks; all should vanish at an exact primal-dual pair."""

    stationarity: np.ndarray
    complementarity: np.ndarray
    primal_violation: np.ndarray
    dual_violation: np.ndarray

    def max_abs(self) -> float:
        return max(
            float(np.max(np.abs(self.stationarity), initial=0.0)),
            float(np.max(np.abs(self.complementarity), initial=0.0)),
            float(np.max(self.primal_violation, initial=0.0)),
            float(np.max(self.dual_violation, initial=0.0)),
        )


def kkt_residual(fp: ForwardProblem, theta, lam, U) -> KktResidual:
    """Evaluate all four KKT blocks at ``(U, theta, lam)``.

    Returns stationarity (length mN), elementwise complementarity
    ``lam * g``, primal violations ``max(g, 0)`` and dual violations
    ``max(-lam, 0)`` (both length I*(N+1)).
    """
    bs = build_stationarity(fp)
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float).ravel()
    if theta.shape[0] != fp.q:
        raise ValueError(f"theta has length {theta.shape[0]}, expected q = {fp.q}")
    if lam.shape[0] != fp.n_multipliers:
        raise ValueError(
            f"lam has length {lam.shape[0]}, expected I*(N+1) = {fp.n_multipliers}"
        )
    g = bs.constraint_values(U)
    return KktResidual(
        stationarity=bs.stationarity(U, theta, lam),
        complementarity=lam * g,
        primal_violation=np.maximum(g, 0.0),
        dual_violation=np.maximum(-lam, 0.0),
    )
