"""Dense numerical kernels: SPD factorization and inverse, an LU solve, and a strictly convex QP solver.

The private :func:`_factor` is the package's one SPD factorization and
:func:`_solve` its one solve with that factor.  The private
:func:`_lu_solve` is its one general solve, LAPACK's LU with partial
pivoting: it solves the QP solver's face systems and the TLS sensitivity
system, which are small enough that numpy's per-call overhead would cost
several times the factorization itself.  :func:`cholesky` hands the
factor out C-ordered, which is part of the contract: numpy's
matrix-vector kernels round differently on a Fortran-ordered operand, so a
sampler computing ``L @ z`` with the raw LAPACK output would draw different
bits from the same random stream.  :func:`cholesky_solve` is the checked
solve with a caller's factor.  :func:`spd_inverse` and :func:`solve_qp`
keep their factor, so they pass LAPACK's Fortran-ordered one straight to
the solve, which reads the same numbers without copying them back.

:func:`_factor` factors the symmetrized ``0.5 * (M + M')``.  Most inputs
are already exactly symmetric (an inverse symmetrized by its builder,
``X @ X.T``, the inverse-Wishart scale ``W + S + D d d'``), and for those
it factors ``M`` itself after comparing the bytes of ``M`` and ``M'``,
with the elementwise ``M == M.T`` only when the bytes differ (a ``-0.0``
facing a ``+0.0``).  That fast path is exact, not approximate: equality
passes the 1e-10 symmetry test trivially, and ``0.5 * (M + M)`` equals
``M`` bitwise because doubling and halving a double are exact, unless
``M + M`` overflows.  So every entry must lie below 1e307 in magnitude,
which is tested on the factor: an accepted one bounds each ``|M_ij|`` by
``sqrt(M_ii M_jj)`` up to rounding, so a largest diagonal entry below
1e306 bounds them all.  Any other outcome takes the general path, which
factors the symmetrized matrix.

Every factor :func:`_factor` returns is finite, and nothing tests it
again: the fast path returns only a factor with a finite diagonal, and the
general path raises ValueError on any other.  A NaN or an infinity in row
``i`` of the factor reaches ``L_ii`` through ``M_ii`` or ``L_ij**2``, so a
finite diagonal proves the whole factor finite, where LAPACK's ``info``
may accept a NaN below the diagonal.

The QP solver is a face search behind the dual active-set method of
Goldfarb & Idnani (*Math. Programming* 27, 1983).  The choice is
deliberate: every estimator in this package needs *exact* active sets and
bit-reproducible solves, which first-order or interior-point methods do not
give.  Determinism is pinned down by three rules of the dual loop:

* the entering row is the most violated one, the lowest-index one on ties;
* the leaving row is the working row whose multiplier reaches zero first
  along the step, the lowest-index one on ties;
* when entering and leaving come at the same step length, the row enters
  and none leaves.

An interior QP, whose unconstrained minimizer meets every inequality,
gets that minimizer, no multipliers and ``n_iter = 0``.  Otherwise:

1. **Face search.**  The primal-dual active-set step (Hintermüller, Ito &
   Kunisch, *SIAM J. Optim.* 13, 2003): guess the optimal face, then
   repair it.  The guess is the caller's ``face`` when it is nonempty:
   rows of ``Ain``, such as those that held the answer of an earlier QP
   with the same constraints, as online active-set methods start
   parametric QPs (Ferreau, Bock & Diehl, *Int. J. Robust Nonlinear
   Control* 18, 2008).  Otherwise it is the rows the unconstrained
   minimizer violates.  Each try is the equality-constrained minimizer on
   the face, accepted when it lies on those faces and inside every other
   row and no multiplier is below ``-_DUAL_TOL``: that is the whole KKT
   system, so it is the optimum.  A failed try keeps the rows whose
   multiplier passes that test and adds the rows its point violates.
   With equalities the search runs on the reduced rows ``Ain @ Z``, as
   the loop does.
2. **Cold path.**  The search gives up after ``_FACE_TRIES`` tries, on an
   empty or repeated face, or on a face system whose LU has a pivot below
   ``_FACE_RCOND`` times its largest: dependent rows, between which
   rounding would split a multiplier.  The solve then runs the dual loop
   (:func:`_dual_loop`) from the unconstrained minimizer, which needs no
   feasible start: it adds violated rows one at a time and keeps every
   multiplier nonnegative, and it raises :class:`Infeasible` when the
   working rows prove a violated row unreachable.  One try on the loop's
   final working set polishes its answer.

An accepted face and the polish on that face are one computation, so
whenever the cold loop ends on the face the search accepts, the two
answers agree bit for bit.  ``n_iter`` counts the tries, plus the dual
loop's steps (one face solve each) when the search gives up; the polish
is not counted.

A solve names no active rows: the estimators take them from the one face
model, :class:`ioc_eiv.model.BilinearStationarity`.

QP data is checked once per part: the four constraint blocks when their
:class:`QpRows` are built, ``H`` and ``c`` when a :class:`Qp` is posed on
them.  Every entry must be finite, so no solve with the factor tests its
operands.  Finite data can still overflow on the way (``H @ z_part`` with
entries near 1e300), so a solve whose answer is not finite raises
ValueError instead of returning it.

Each solve factors one Hessian: ``H`` itself without equalities, the
reduced ``Z' H Z`` on the null space of the equalities with them.  If that
matrix fails to factor, ``1e-10 * trace/dim`` of it is added to its
diagonal once and the factorization retried; a second failure raises
:class:`NotPositiveDefinite`.  ``H`` need only be positive definite on the
null space of the equalities.

Each solve does only the work that depends on its own data, without
changing a bit of any result:

* The rows' side of the reduction, the particular solution ``z_part`` of
  the equalities, their null-space basis ``Z`` from the SVD of ``Aeq``,
  the reduced inequalities ``Ain Z`` and ``bin - Ain z_part`` and the
  feasibility scale, is stored on the :class:`QpRows` by the first solve
  that reads them, and every later solve on them forms only ``Z' H Z`` and
  ``Z' (H z_part + c)``.  So reuse lives with whoever keeps the rows: the
  face model keeps the forward problem's rows once per problem, and
  ``NormalizationRule.beta_rows`` keeps each weight cone once per rule and
  size, for every kkt, MAP and TLS QP posed on it.  Inconsistent
  equalities store nothing, so every solve on them raises
  :class:`Infeasible`.
* Without equalities the null-space basis is the identity, so the search
  and the loop run on ``H``, ``c``, ``Ain`` and ``bin`` as given, instead
  of forming ``Z' H Z``.

Solves the problem

    min  0.5 z' H z + c' z
    s.t. Aeq z  = beq
         Ain z <= bin

with H symmetric and positive definite on the null space of Aeq.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "NotPositiveDefinite",
    "Infeasible",
    "IterationLimit",
    "Qp",
    "QpRows",
    "QpSolution",
    "cholesky",
    "cholesky_solve",
    "spd_inverse",
    "solve_qp",
]

# inequality multipliers may dip this far below zero before we call it an error
_DUAL_TOL = 1e-10
_FEAS_TOL = 1e-9
# tries of the face search before a solve goes cold
_FACE_TRIES = 8
# a face system whose LU has a pivot below this share of its largest is
# refused by the face search
_FACE_RCOND = 1e-10


class NotPositiveDefinite(ValueError):
    """Matrix is not positive definite.

    ``minor_index`` is the 1-based order of the first failing leading minor.
    """

    def __init__(self, minor_index: int, message: str | None = None):
        self.minor_index = int(minor_index)
        super().__init__(
            message or f"matrix is not positive definite (leading minor {minor_index})"
        )


class Infeasible(RuntimeError):
    """Constraint set is empty (or inconsistent beyond tolerance)."""


class IterationLimit(RuntimeError):
    """Dual active-set loop exceeded its step budget (100 * dim)."""


def cholesky(M) -> np.ndarray:
    """C-ordered lower-triangular factor L with ``L L' = M`` for symmetric PD ``M``.

    Raises :class:`NotPositiveDefinite` carrying the index of the first
    non-positive leading minor, and ValueError for an asymmetric input or
    a factor that is not finite.
    """
    return np.ascontiguousarray(_factor(M))


def _factor(M) -> np.ndarray:
    """The one SPD factorization: LAPACK's Fortran-ordered lower factor of square ``M``.

    The factor is always finite (see the module docstring).  Raises as
    :func:`cholesky` does.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    # equal bytes are exact symmetry; the elementwise test, which also
    # equates -0.0 and +0.0, runs only when they differ
    symmetric = M.tobytes() == M.T.tobytes() or (M == M.T).all()
    if symmetric:
        # dpotrf already zeroes the strict upper triangle (scipy's clean=1)
        L, info = lapack.dpotrf(M, lower=1)
        if (info == 0 and math.isfinite(sum(L.diagonal().tolist()))
                and max(M.diagonal().tolist()) < 1e306):
            return L
    if not (symmetric and abs(M).max() < 1e307):
        # not exactly symmetric, or too large for M + M to stay finite:
        # test the tolerance and factor the symmetrized matrix
        if abs(M - M.T).max() > 1e-10 * (1.0 + abs(M).max()):
            raise ValueError("matrix is not symmetric to tolerance 1e-10")
        L, info = lapack.dpotrf(0.5 * (M + M.T), lower=1)
    if info > 0:
        raise NotPositiveDefinite(info)
    if info < 0:
        raise ValueError(f"invalid input to factorization (argument {-info})")
    if not math.isfinite(sum(L.diagonal().tolist())):
        raise ValueError("array must not contain infs or NaNs")
    return L


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite."""
    # a finite sum proves every entry finite; an overflowing one does not
    # prove the opposite, so it takes the elementwise test
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def _solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The one SPD solve: ``(L L') x = rhs`` for a finite lower factor ``L``
    of matching order and a finite float ``rhs``, neither checked here."""
    if rhs.size == 0:
        return np.empty_like(rhs)
    x, info = lapack.dpotrs(L, rhs, lower=1)
    if info != 0:
        raise ValueError(f"invalid input to triangular solve (argument {-info})")
    return x


def _lu_solve(A: np.ndarray, b: np.ndarray, rcond: float = 0.0) -> np.ndarray:
    """The one LU solve: ``A x = b`` for a nonempty square float ``A`` and a
    float ``b`` of matching order, one right-hand side or a matrix of them.

    LAPACK's ``dgesv`` (LU with partial pivoting), the routine behind
    :func:`numpy.linalg.solve`, called directly (see the module
    docstring).  An exactly zero pivot raises ``numpy.linalg.LinAlgError``
    ("Singular matrix"), as :func:`numpy.linalg.solve` does, and so does a
    pivot below ``rcond`` times the largest in magnitude.  A matrix ``x``
    comes back in LAPACK's Fortran order.
    """
    lu, _, x, info = lapack.dgesv(A, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info < 0:
        raise ValueError(f"invalid input to LU solve (argument {-info})")
    if rcond:
        pivots = np.abs(lu.diagonal()).tolist()
        if min(pivots) < rcond * max(pivots):
            raise np.linalg.LinAlgError("Singular matrix")
    return x


def cholesky_solve(L: np.ndarray, rhs) -> np.ndarray:
    """Solve ``(L L') x = rhs`` given the lower factor from :func:`cholesky`.

    ``rhs`` may be a vector or a matrix of right-hand sides.  Raises
    ValueError when ``L`` or ``rhs`` holds a NaN or an infinity, or when
    their orders differ.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not (_finite(rhs) and _finite(L)):
        raise ValueError("array must not contain infs or NaNs")
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[1] != rhs.shape[0]:
        raise ValueError(f"incompatible dimensions ({L.shape} and {rhs.shape})")
    return _solve(L, rhs)


# orders whose identity is kept: the shipped spring_damper and
# tls_positivity bench grids each take about 180,000 identities of 3 orders
_IDENTITY_CACHE_SIZE = 64


@lru_cache(maxsize=_IDENTITY_CACHE_SIZE)
def _identity(n: int) -> np.ndarray:
    """Shared read-only identity of order ``n``."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def spd_inverse(M) -> np.ndarray:
    """Exactly symmetric inverse of symmetric PD ``M``.

    Factors ``M`` as :func:`cholesky` does, raising as it does, solves
    against the shared identity and returns ``0.5 * (C + C')``, so the
    result passes the exact-symmetry test when it is factored again.
    """
    L = _factor(M)
    C = _solve(L, _identity(L.shape[0]))
    return 0.5 * (C + C.T)


@dataclass(frozen=True, eq=False)
class QpRows:
    """The constraint rows ``Aeq z = beq``, ``Ain z <= bin`` of QPs in ``n`` variables.

    The rows do not depend on the objective, so a caller that poses many
    QPs on the same rows prepares them once and poses each QP as
    ``Qp(H, c, rows)``.  The blocks are checked here, once: a pair
    given together, of matching shapes, every entry finite; a pair left out
    is an empty block.  They are kept as read-only copies, so a later write
    into the caller's arrays cannot reach them or their stored reduction.

    The first solve that reads the rows stores their reduction onto the
    null space of the equalities (:meth:`_reduced`), and every later solve
    reads it.  Inconsistent equalities store nothing, so each solve on them
    raises :class:`Infeasible`.
    """

    n: int
    Aeq: np.ndarray | None = None
    beq: np.ndarray | None = None
    Ain: np.ndarray | None = None
    bin: np.ndarray | None = None
    _reduction: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = operator.index(self.n)
        object.__setattr__(self, "n", n)
        Aeq, beq = _normalize_block(self.Aeq, self.beq, n, "Aeq", "beq")
        Ain, bin_ = _normalize_block(self.Ain, self.bin, n, "Ain", "bin")
        for name, a in zip(("Aeq", "beq", "Ain", "bin"), (Aeq, beq, Ain, bin_)):
            if not _finite(a):
                raise ValueError(f"{name} must not contain infs or NaNs")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def _reduced(self) -> tuple:
        """Read-only ``(z_part, Z, Ar, br, feas_scale)`` of the rows, stored on first use.

        ``z_part`` is the particular solution of the equalities and ``Z``
        the orthonormal basis of their null space, or None (the identity)
        without equalities; ``Ar = Ain Z`` and ``br = bin - Ain z_part`` are
        the inequalities in the coordinates ``y`` of ``z = z_part + Z y``,
        and ``feas_scale`` is a solve's feasibility tolerance.  Raises
        :class:`Infeasible`, and stores nothing, when the equalities are
        inconsistent.
        """
        if self._reduction is None:
            Ain, bin_ = self.Ain, self.bin
            z_part, Z, Ar, br = np.zeros(self.n), None, Ain, bin_  # identity basis
            if self.Aeq.shape[0]:
                z_part, Z = _eliminate_equalities(self.Aeq, self.beq, self.n)
                Z.setflags(write=False)
                if Z.shape[1]:  # a pinned point needs no reduced rows
                    Ar, br = Ain @ Z, bin_ - Ain @ z_part
            for a in (z_part, Ar, br):
                a.setflags(write=False)
            feas_scale = _FEAS_TOL * (1.0 + np.abs(bin_).max(initial=0.0))
            object.__setattr__(self, "_reduction", (z_part, Z, Ar, br, feas_scale))
        return self._reduction


@dataclass(frozen=True, eq=False)
class Qp:
    """One strictly convex QP: the objective ``(H, c)`` on prepared :class:`QpRows`.

    ``Qp(H, c, rows)`` checks only ``H`` and ``c``: their shapes against
    ``rows.n``, and that every entry is finite.  ``Aeq``, ``beq``, ``Ain``
    and ``bin`` are the rows' read-only blocks.
    """

    H: np.ndarray
    c: np.ndarray
    rows: QpRows

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        n = self.rows.n
        if c.shape[0] != n:
            raise ValueError(f"c has length {c.shape[0]}, expected rows.n = {n}")
        if H.shape != (n, n):
            raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
        if not _finite(H):
            raise ValueError("H must not contain infs or NaNs")
        if not _finite(c):
            raise ValueError("c must not contain infs or NaNs")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.rows.n

    Aeq = property(lambda self: self.rows.Aeq)
    beq = property(lambda self: self.rows.beq)
    Ain = property(lambda self: self.rows.Ain)
    bin = property(lambda self: self.rows.bin)


def _normalize_block(A, b, n, a_name, b_name):
    """``(A, b)`` as float copies of shapes ``(k, n)`` and ``(k,)``."""
    if A is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if A is None or b is None:
        raise ValueError(f"{a_name} and {b_name} must be given together")
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float).ravel()
    if A.shape != (b.shape[0], n):
        raise ValueError(
            f"{a_name} has shape {A.shape}, expected ({b.shape[0]}, {n})"
    )
    return A, b


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Minimizer, inequality multipliers and iteration count of :func:`solve_qp`."""

    z: np.ndarray
    mult_in: np.ndarray
    n_iter: int


def _eliminate_equalities(Aeq, beq, n):
    """Particular solution plus orthonormal null-space basis, from the SVD of ``Aeq``.

    Raises Infeasible when the equalities are inconsistent.
    """
    U, s, Vt = np.linalg.svd(Aeq, full_matrices=True)
    tol = max(Aeq.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol))
    if r == 0:
        z_part = np.zeros(n)
    else:
        z_part = Vt[:r].T @ ((U[:, :r].T @ beq) / s[:r])
    resid = np.abs(Aeq @ z_part - beq).max(initial=0.0)
    if resid > _FEAS_TOL * (1.0 + np.abs(beq).max(initial=0.0)):
        raise Infeasible(f"equality constraints are inconsistent (residual {resid:.3e})")
    Z = Vt[r:].T  # n x (n - r), orthonormal columns
    return z_part, Z


def _eqp(L, c, A, b, rcond=0.0):
    """Solve min 0.5 y'Hy + c'y s.t. A y = b given L = chol(H).

    Returns (y, mu) with stationarity H y + c + A' mu = 0.  ``rcond`` is
    the face system's singularity test (see :func:`_lu_solve`).
    """
    Hinv_c = _solve(L, c)
    if A.shape[0] == 0:
        return -Hinv_c, np.zeros(0)
    Hinv_At = _solve(L, A.T)
    S = A @ Hinv_At
    rhs = -(b + A @ Hinv_c)
    mu = _lu_solve(S, rhs, rcond)
    y = -(Hinv_c + Hinv_At @ mu)
    return y, mu


def _feasible(A, b, y, tol):
    return bool((A @ y - b <= tol).all())


def _dual_loop(L, c, A, b, feas_scale, max_iter):
    """``(y, {row: multiplier}, n)`` of min 0.5 y'Hy + c'y s.t. A y <= b,
    given L = chol(H), after ``n`` steps of the dual active-set method.

    Goldfarb & Idnani's method: start at the unconstrained minimizer with
    no working rows, and while some row is violated by more than
    ``feas_scale``, take the most violated one, ``p``, to its face.  A step
    is the ``_eqp`` call for the direction ``z`` that lowers ``a_p y`` on
    the working faces, and the rate ``r`` at which it moves their
    multipliers ``u``.  It is the shorter of two: the primal step
    ``viol_p / -a_p z``, which puts ``p`` on its face and adds it, and the
    dual step ``min u_j / -r_j``, which drops the working row whose
    multiplier reaches zero first.  Every iterate is stationary with
    nonnegative multipliers, so the first feasible one is the optimum.
    When ``-a_p z`` is at most ``1e-12 a_p H^-1 a_p'``, ``a_p`` lies in the
    span of the working rows and the step is dual only; with no dual step
    either, the working rows prove ``p`` unreachable, and the loop raises
    :class:`Infeasible`.  A working row that rounding moved off its face
    is released, with its multiplier, and taken to its face again.
    """
    y = -_solve(L, c)
    u = {}
    n = 0
    while True:
        viol = A @ y - b
        p = int(np.argmax(viol))
        if not viol[p] > feas_scale:  # a NaN stops here too
            return y, u, n
        a_p, u_p = A[p], u.pop(p, 0.0)
        null_tol = 1e-12 * float(a_p @ _solve(L, a_p))
        while p not in u:
            if n == max_iter:
                raise IterationLimit(f"dual active-set loop exceeded {max_iter} steps")
            n += 1
            W = sorted(u)
            z, r = _eqp(L, a_p, A[W], np.zeros(len(W)))
            r = r.tolist()
            descent = -float(a_p @ z)
            t_add = math.inf
            if descent > null_tol:
                t_add = float(a_p @ y - b[p]) / descent
            t_drop, k = min(((u[j] / -rj, j) for j, rj in zip(W, r) if rj < 0.0),
                            default=(math.inf, -1))
            t = min(t_add, t_drop)
            if t == math.inf:
                raise Infeasible("inequality constraints have no feasible point")
            if t_add < math.inf:
                y = y + t * z
            u = {j: max(u[j] + t * rj, 0.0) for j, rj in zip(W, r)}
            u_p += t
            if t_add <= t_drop:
                u[p] = u_p
            else:
                del u[k]


def _face_search(L, c, A, b, rows, feas_scale, tries):
    """``((y, {row: multiplier}), n)`` on the first face of a search from
    ``rows`` that solves the QP, or ``(None, n)``, after ``n`` tries.

    A try is the ``_eqp`` call on the sorted ``rows``.  Stationarity holds by
    construction; the point is accepted when it also lies on its faces and
    inside every other row (both to ``feas_scale``) and no multiplier is
    below ``-_DUAL_TOL``.  Otherwise the next face keeps the rows whose
    multiplier is not below ``-_DUAL_TOL`` and adds the rows the point
    violates.  The search stops on an accepted face, an empty or repeated
    face, a face system that fails the ``_FACE_RCOND`` pivot test, or after
    ``tries`` tries.  With one try it is the polish that ends a cold solve.
    """
    seen = set()
    for n in range(tries):
        if not rows or tuple(rows) in seen:
            return None, n
        seen.add(tuple(rows))
        A_F, b_F = A[rows], b[rows]
        try:
            y, mu = _eqp(L, c, A_F, b_F, _FACE_RCOND)
        except np.linalg.LinAlgError:
            return None, n + 1
        resid = A @ y - b
        on_faces = np.abs(A_F @ y - b_F).max() <= feas_scale
        if on_faces and (resid <= feas_scale).all() and mu.min() >= -_DUAL_TOL:
            return (y, dict(zip(rows, mu))), n + 1
        kept = {i for i, m in zip(rows, mu.tolist()) if m >= -_DUAL_TOL}
        rows = sorted(kept.union(np.flatnonzero(resid > feas_scale).tolist()))
    return None, tries


def solve_qp(qp: Qp, face=None) -> QpSolution:
    """Solve a strictly convex QP by a face search, then a dual active-set method.

    Equalities are eliminated through an orthonormal null-space basis from
    the SVD of ``Aeq``.  The rows' side of that reduction is stored on
    ``qp.rows`` by the first solve that reads them (see the module
    docstring).  Without equalities the basis is the identity, so the
    problem is solved as posed.  Only the Hessian the loop runs on is
    factored (see the module docstring for its regularization).

    ``face`` names rows of ``Ain`` (indices) expected to hold the answer,
    such as those that held an earlier solution of a QP with the same
    constraints: the face search starts there instead of from the rows the
    unconstrained minimizer violates (see the module docstring).  A face
    with a non-integer or out-of-range index raises TypeError or ValueError.

    ``n_iter`` counts the face search's tries, plus the dual loop's steps
    when the search gives up.  Raises Infeasible, IterationLimit, or
    NotPositiveDefinite, ValueError when the answer overflows, and
    ``numpy.linalg.LinAlgError`` should a face system of the dual loop
    come out exactly singular.
    """
    n = qp.dim
    H, c, rows = qp.H, qp.c, qp.rows
    n_in = rows.Ain.shape[0]
    if face is not None:
        face = sorted({operator.index(i) for i in face})
        if face and not (0 <= face[0] and face[-1] < n_in):
            raise ValueError(f"face rows must lie in [0, {n_in}), got {face}")

    z_part, Z, Ar, br, feas_scale = rows._reduced()
    nz = n if Z is None else Z.shape[1]

    if nz == 0:
        z = z_part.copy()  # the rows' z_part is shared by every solve on them
        if not _feasible(rows.Ain, rows.bin, z, feas_scale):
            raise Infeasible("equality constraints pin an infeasible point")
        mult_in = np.zeros(n_in)
        n_iter = 0
    else:
        if Z is None:
            Hr, cr = H, c
        else:
            Hr = Z.T @ H @ Z
            cr = Z.T @ (H @ z_part + c)
        try:
            Lr = _factor(Hr)
        except NotPositiveDefinite:
            # the documented diagonal bump; a second failure propagates
            bump = 1e-10 * np.trace(Hr) / nz
            if bump <= 0:
                bump = 1e-10
            Hr = Hr + bump * np.eye(nz)
            Lr = _factor(Hr)

        y_unc = -_solve(Lr, cr)
        inside = Ar @ y_unc - br <= feas_scale
        if inside.all():
            found, n_iter = (y_unc, {}), 0  # interior: no multipliers, no tries
        else:
            start = face or np.flatnonzero(~inside).tolist()
            found, n_iter = _face_search(Lr, cr, Ar, br, start, feas_scale, _FACE_TRIES)
        if found:
            y, mu_map = found
        else:
            y, mu_map, n_loop = _dual_loop(Lr, cr, Ar, br, feas_scale, 100 * max(nz, 1))
            n_iter += n_loop
            # polish: place the iterate exactly on its working faces
            y, mu_map = _face_search(Lr, cr, Ar, br, sorted(mu_map), feas_scale, 1)[0] or (y, mu_map)

        # with Z = I the zero z_part is still added: it turns a -0.0 in y
        # into +0.0, as Z @ y did, so the bytes of z do not change
        z = z_part + (y if Z is None else Z @ y)
        mult_in = np.zeros(n_in)
        for i, mi in mu_map.items():
            mult_in[i] = max(mi, 0.0) if mi >= -_DUAL_TOL else mi

    if not (_finite(z) and _finite(mult_in)):
        raise ValueError("QP solution is not finite: the data overflows in the solve")
    return QpSolution(z, mult_in, n_iter)
