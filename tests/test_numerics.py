"""Cholesky factorization, the SPD inverse and the dense active-set QP solver."""

import ast
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import ioc_eiv
import oracles
from oracles import fresh_qp
from ioc_eiv import mcmc, numerics
from ioc_eiv import (
    Infeasible,
    IterationLimit,
    NotPositiveDefinite,
    Qp,
    QpRows,
    cholesky,
    cholesky_solve,
    solve_qp,
)
from ioc_eiv.numerics import spd_inverse


def _random_spd(rng, dim):
    G = rng.standard_normal((dim, dim))
    return G @ G.T + 0.1 * np.eye(dim)


def test_cholesky_identity():
    np.testing.assert_allclose(cholesky(np.eye(4)), np.eye(4))


def test_cholesky_hand_expansion():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = int(rng.integers(1, 12))
        G = rng.standard_normal((dim, dim))
        M = G @ G.T + np.eye(dim)
        L = cholesky(M)
        err = np.max(np.abs(L @ L.T - M))
        assert err <= 1e-10 * np.max(np.abs(M))
        assert np.all(np.triu(L, 1) == 0.0)


def test_cholesky_rejects_indefinite_with_minor_index():
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(np.diag([1.0, -1.0]))
    assert exc.value.minor_index == 2
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(np.diag([-1.0, 1.0]))
    assert exc.value.minor_index == 1
    # the failure sits in the third leading minor of a dense matrix
    M = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, -2.0]])
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(M)
    assert exc.value.minor_index == 3


def test_cholesky_rejects_asymmetric_and_non_square():
    with pytest.raises(ValueError, match="symmetric") as exc:
        cholesky(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert not isinstance(exc.value, NotPositiveDefinite)
    with pytest.raises(ValueError, match="square"):
        cholesky(np.ones((2, 3)))


def test_cholesky_is_c_ordered_lower_and_bitwise_lapack():
    # the factor must be C-ordered: L @ z rounds differently on a
    # Fortran-ordered operand, which would move every Gibbs draw
    rng = np.random.default_rng(5)
    for dim in (1, 2, 5, 10, 31):
        M = _random_spd(rng, dim)
        L = cholesky(M)
        assert L.flags.c_contiguous
        assert np.all(np.triu(L, 1) == 0.0)
        ref, info = lapack.dpotrf(0.5 * (M + M.T), lower=1)
        assert info == 0
        assert np.array_equal(L, np.tril(ref))
        z = rng.standard_normal(dim)
        assert np.array_equal(L @ z, np.ascontiguousarray(np.tril(ref)) @ z)


def _symmetrized_dpotrf(M):
    """The factor as computed before the exact-symmetry fast path existed."""
    L, info = lapack.dpotrf(0.5 * (M + M.T), lower=1)
    assert info == 0
    return np.ascontiguousarray(np.tril(L))


def test_cholesky_fast_path_bitwise_equals_symmetrized_factor():
    rng = np.random.default_rng(7)
    scales = (1e-300, 1e-5, 1.0, 1e5, 1e300)
    for k in range(200):
        dim = int(rng.integers(1, 13))
        M = _random_spd(rng, dim) * scales[k % len(scales)]
        assert np.array_equal(M, M.T)  # G @ G.T is exactly symmetric
        L = cholesky(M)
        assert L.flags.c_contiguous
        assert np.array_equal(L, _symmetrized_dpotrf(M))


def test_cholesky_symmetrizes_input_asymmetric_within_tolerance():
    M = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])
    M[1, 0] += 1e-12  # dpotrf reads only the lower triangle
    L = cholesky(M)
    assert np.array_equal(L, _symmetrized_dpotrf(M))
    direct, _ = lapack.dpotrf(M, lower=1)
    assert not np.array_equal(L, np.tril(direct))
    M[1, 0] += 1e-8
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(M)


def _diag2(a, b=1.0, off=0.0):
    return np.array([[a, off], [off, b]])


# inputs that fail the fast path's guard: each gives the symmetrized
# matrix's factor or an exception type.  A factor that would hold a NaN or
# an infinity is refused with ValueError; for the largest inputs M + M
# overflows, so that factor is inf where factoring M itself would give a
# finite one.
_NON_FINITE_OR_HUGE = [
    (_diag2(np.nan), ValueError),
    (_diag2(1.0, off=np.nan), ValueError),
    (_diag2(np.inf), ValueError),
    (_diag2(1.0, off=np.inf), NotPositiveDefinite),
    (_diag2(-np.inf), NotPositiveDefinite),
    (_diag2(1e307), None),
    (_diag2(5e307), None),
    (_diag2(1e308, 1e308, 1e300), ValueError),
    (_diag2(np.finfo(float).max), ValueError),
]


@pytest.mark.parametrize("M, error", _NON_FINITE_OR_HUGE)
def test_cholesky_non_finite_and_huge_inputs_keep_their_outcome(M, error):
    with np.errstate(invalid="ignore", over="ignore"):
        if error is not None:
            with pytest.raises(error):
                cholesky(M)
            return
        L = cholesky(M)
        ref, _ = lapack.dpotrf(0.5 * (M + M.T), lower=1)
    assert L.tobytes() == np.ascontiguousarray(np.tril(ref)).tobytes()


def _outcome(f, M):
    """What ``f(M)`` gives: its bytes, shape and C-ordering, or its error."""
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            out = f(M)
        except (ValueError, NotPositiveDefinite) as err:
            return type(err), str(err), getattr(err, "minor_index", None)
    return out.tobytes(), out.shape, out.flags.c_contiguous


def _random_spd_of_every_order():
    rng = np.random.default_rng(61)
    scales = (1e-300, 1e-5, 1.0, 1e5, 1e300)
    return [_random_spd(rng, n) * scales[n % len(scales)] for n in range(61)]


def _asymmetric():
    rng = np.random.default_rng(62)
    out = []
    for dim in (2, 5, 12):
        for rel in (1e-14, 1e-11, 9e-11, 2e-10, 1e-8, 1e-3):
            M = _random_spd(rng, dim)
            i, j = sorted(rng.choice(dim, 2, replace=False))[::-1]
            for row, col in ((i, j), (j, i)):
                A = M.copy()
                A[row, col] += rel * (1.0 + abs(M).max())
                out.append(A)
    return out


def _not_positive_definite():
    rng = np.random.default_rng(63)
    out = [np.zeros((3, 3)), np.diag([1.0, 0.0, 1.0]), -np.eye(4)]
    for dim in (1, 2, 5, 12):
        for k in range(dim):
            d = np.ones(dim)
            d[k] = -1.0
            out.append(np.diag(d))
        G = rng.standard_normal((dim, dim))
        S = G @ G.T
        lam = np.linalg.eigvalsh(S)
        out.append(S - 0.5 * (lam[0] + lam[-1]) * np.eye(dim))
        low = rng.standard_normal((dim, max(dim - 2, 1)))
        out.append(low @ low.T)  # rank deficient
    return out


def _non_finite():
    out = []
    for dim in (1, 2, 3, 5):
        base = 2.0 * np.eye(dim) + 0.25 * np.ones((dim, dim))
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(dim):
                for j in range(dim):
                    M = base.copy()
                    M[i, j] = bad  # on the diagonal, or below it only, or above it only
                    out.append(M)
                    if i > j:
                        S = M.copy()
                        S[j, i] = bad  # a symmetric pair
                        out.append(S)
    return out


def _huge():
    big = 2.0**1023
    top = np.finfo(float).max
    out = []
    for d in (1e305, 1e306, np.nextafter(1e306, 0.0), 3e306, 9.99e306, 1e307, 5e307, big, top):
        out.append(np.diag([d, 1.0, 2.0]))
        out.append(np.diag([d, d, d]))
        M = np.diag([d, d, 1.0])
        M[1, 0] = M[0, 1] = 0.5 * d
        out.append(M)
    for off in (1e306, 1e307, 9e307, big, top):
        for diag in (1.0, 1e306, np.nextafter(1e307, 0.0), 1e308):
            M = np.diag([diag, diag, 1.0])
            M[1, 0] = M[0, 1] = off
            out.append(M)
    return out


def _signed_zeros():
    rng = np.random.default_rng(64)
    out = [np.diag([-0.0, 1.0]), np.diag([1.0, -0.0])]
    for dim in (2, 3, 6):
        M = _random_spd(rng, dim)
        for i in range(1, dim):
            for j in range(i):
                for lower, upper in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
                    A = M.copy()
                    A[i, j], A[j, i] = lower, upper
                    out.append(A)
    # a -0.0 facing a +0.0 next to an off-diagonal entry of 1e307
    M = np.diag([np.nextafter(1e307, 0.0)] * 2 + [1.0])
    M[1, 0] = M[0, 1] = 1e307
    M[2, 0], M[0, 2] = -0.0, 0.0
    out.append(M)
    return out


@pytest.mark.parametrize("inputs", [
    _random_spd_of_every_order, _asymmetric, _not_positive_definite, _non_finite, _huge,
    _signed_zeros,
], ids=lambda f: f.__name__.lstrip("_"))
def test_cholesky_and_spd_inverse_equal_their_oracles(inputs):
    # bit for bit and error for error: the bound test after the factorization
    # and the unchecked fast-path factor change no outcome
    for M in inputs():
        assert _outcome(cholesky, M) == _outcome(oracles.cholesky, M)
        assert _outcome(spd_inverse, M) == _outcome(oracles.spd_inverse, M)


def test_fast_path_takes_bounded_spd_matrices_and_refuses_non_finite_ones(monkeypatch):
    # the fast path factors M once; the general path factors the
    # symmetrized matrix a second time
    dpotrf = lapack.dpotrf
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return dpotrf(*args, **kwargs)

    def factorizations(M):
        calls.clear()
        L = numerics._factor(M)
        assert np.isfinite(L).all()
        return len(calls)

    monkeypatch.setattr(lapack, "dpotrf", spy)
    for M in _random_spd_of_every_order()[1:]:
        assert factorizations(M) == 1
    assert factorizations(np.diag([np.nextafter(1e306, 0.0), 1.0])) == 1
    assert factorizations(np.diag([1e307, 1.0])) == 2
    M = _random_spd(np.random.default_rng(65), 4)
    M[3, 1] = M[1, 3] = np.nan
    assert dpotrf(M, lower=1)[1] == 0  # LAPACK accepts it
    calls.clear()
    with pytest.raises(ValueError, match="NaNs"):
        numerics._factor(M)
    assert len(calls) == 2


def test_non_finite_factor_is_refused_before_any_draw():
    # LAPACK accepts a NaN below the diagonal and returns a NaN factor; the
    # factorization refuses it, so no sampler draws from it
    bad = np.array([[4.0, 2.0, 0.0], [2.0, 3.0, np.nan], [0.0, np.nan, 2.0]])
    assert lapack.dpotrf(bad, lower=1)[1] == 0
    rng = np.random.default_rng(66)
    with pytest.raises(ValueError, match="NaNs"):
        cholesky(bad)
    with pytest.raises(ValueError, match="NaNs"):
        mcmc.sample_mvn(np.zeros(3), bad, rng)
    with pytest.raises(ValueError, match="NaNs"):
        mcmc.sample_inverse_wishart(bad, 5.0, rng)


def test_cholesky_solve_bitwise_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        L = cholesky(_random_spd(rng, dim))
        for rhs in (
            rng.standard_normal(dim),
            rng.standard_normal((dim, int(rng.integers(1, 4)))),
            np.eye(dim),
        ):
            ref = scipy.linalg.cho_solve((L, True), rhs)
            got = cholesky_solve(L, rhs)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
    # LAPACK rejects empty operands; the solve returns an empty result
    assert cholesky_solve(cholesky(np.zeros((0, 0))), np.zeros(0)).shape == (0,)
    assert cholesky_solve(np.eye(2), np.zeros((2, 0))).shape == (2, 0)


def test_spd_inverse_is_the_symmetrized_solve_against_the_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        M = _random_spd(rng, dim) * 10.0 ** rng.uniform(-6, 6)
        L = cholesky(M)
        C = scipy.linalg.cho_solve((L, True), np.eye(dim))
        got = spd_inverse(M)
        assert np.array_equal(got, 0.5 * (C + C.T))
        assert np.array_equal(got, got.T)
        assert got.flags.writeable
        # an inverse of M to within rounding scaled by its condition number
        np.testing.assert_allclose(got @ M, np.eye(dim), atol=1e-8 * np.linalg.cond(M))
    # the shared identity behind the solve stays untouched
    assert np.array_equal(spd_inverse(4.0 * np.eye(3)), 0.25 * np.eye(3))
    assert np.array_equal(spd_inverse(np.eye(3)), np.eye(3))


def test_cholesky_solve_rejects_non_finite_and_mismatched_inputs():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        cholesky_solve(L, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        cholesky_solve(L, np.array([[np.inf], [0.0]]))
    bad = L.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        cholesky_solve(bad, np.ones(2))
    with pytest.raises(ValueError):
        cholesky_solve(L, np.ones(3))


# LAPACK's SPD factorization and solve, and scipy's wrappers of them
_SPD_KERNELS = {"dpotrf", "dpotrs", "cho_factor", "cho_solve"}
# LAPACK's general LU solve and its parts, and scipy's wrappers of them
_LU_KERNELS = {"dgesv", "dgetrf", "dgetrs", "lu_factor", "lu_solve"}


def _spd_kernel_uses(source):
    """``(top-level definition, kernel)`` of every reference in ``source``
    to a name in ``_SPD_KERNELS`` or to numpy's or scipy's
    ``linalg.cholesky``; the definition is ``""`` at module level."""
    return _kernel_uses(source, _SPD_KERNELS, "cholesky")


def _lu_kernel_uses(source):
    """As :func:`_spd_kernel_uses`, for ``_LU_KERNELS`` and ``linalg.solve``."""
    return _kernel_uses(source, _LU_KERNELS, "solve")


def _kernel_uses(source, kernels, linalg_name):
    """``(top-level definition, kernel)`` of every reference in ``source``
    to a name in ``kernels`` or to ``linalg.<linalg_name>``."""

    def kernel(name, in_linalg):
        if name in kernels:
            return name
        return f"linalg.{linalg_name}" if name == linalg_name and in_linalg else None

    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "attr", getattr(node.value, "id", None))
                hits = [kernel(node.attr, owner == "linalg")]
            elif isinstance(node, ast.Name):
                hits = [kernel(node.id, False)]
            elif isinstance(node, ast.ImportFrom):
                hits = [kernel(a.name, "linalg" in (node.module or "")) for a in node.names]
            else:
                hits = []
            found += [(getattr(top, "name", ""), h) for h in hits if h]
    return found


def test_spd_guard_sees_every_kind_of_reference():
    source = (
        "import numpy as np\nfrom scipy import linalg\nfrom scipy.linalg import cho_solve\n"
        "from numpy.linalg import cholesky\n"
        "def f(M):\n    return lapack.dpotrf(M), np.linalg.cholesky(M), linalg.cho_factor(M)\n"
        "def g(L, b):\n    return lapack.dpotrs(L, b)\n"
    )
    assert sorted(_spd_kernel_uses(source)) == sorted([
        ("", "cho_solve"), ("", "linalg.cholesky"),
        ("f", "dpotrf"), ("f", "linalg.cholesky"), ("f", "cho_factor"), ("g", "dpotrs"),
    ])


def test_one_spd_factorization_and_one_solve_in_the_package():
    # lapack.dpotrf only in numerics._factor, lapack.dpotrs only in
    # numerics._solve, and no other Cholesky routine anywhere
    uses = {}
    for path in sorted(Path(ioc_eiv.__file__).parent.glob("*.py")):
        for func, name in _spd_kernel_uses(path.read_text()):
            uses.setdefault(name, set()).add((path.stem, func))
    assert uses == {"dpotrf": {("numerics", "_factor")}, "dpotrs": {("numerics", "_solve")}}


def test_lu_guard_sees_every_kind_of_reference():
    source = (
        "import numpy as np\nfrom scipy import linalg\nfrom scipy.linalg import lu_solve\n"
        "from numpy.linalg import solve\n"
        "def f(A, b):\n    return lapack.dgesv(A, b), np.linalg.solve(A, b), linalg.solve(A, b)\n"
        "def g(A, b):\n    return solve(A, b), _lu_solve(A, b)\n"
    )
    assert sorted(_lu_kernel_uses(source)) == sorted([
        ("", "lu_solve"), ("", "linalg.solve"),
        ("f", "dgesv"), ("f", "linalg.solve"), ("f", "linalg.solve"),
    ])


def test_one_lu_solve_in_the_package():
    # lapack.dgesv only in numerics._lu_solve, and neither numpy's nor
    # scipy's linalg.solve nor another LU routine anywhere
    uses = {}
    for path in sorted(Path(ioc_eiv.__file__).parent.glob("*.py")):
        for func, name in _lu_kernel_uses(path.read_text()):
            uses.setdefault(name, set()).add((path.stem, func))
    assert uses == {"dgesv": {("numerics", "_lu_solve")}}


def _kron_uses(source):
    """As :func:`_spd_kernel_uses`, for numpy's and scipy's ``kron``."""
    return _kernel_uses(source, {"kron"}, "kron")


def test_kron_guard_sees_every_kind_of_reference():
    source = (
        "import numpy as np\nfrom numpy import kron\nfrom scipy import linalg\n"
        "def f(a, b):\n    return np.kron(a, b), kron(a, b), linalg.kron(a, b)\n"
    )
    assert sorted(_kron_uses(source)) == [("", "kron")] + [("f", "kron")] * 3


def test_no_kron_in_the_package():
    # the noise covariance is the m x m Sigma_u of one step: nothing builds,
    # inverts or writes the stacked I_N kron Sigma_u
    uses = [(path.stem, func) for path in sorted(Path(ioc_eiv.__file__).parent.glob("*.py"))
            for func, _ in _kron_uses(path.read_text())]
    assert uses == []


@pytest.mark.parametrize("n_rhs", [None, 3])
def test_lu_solve_agrees_with_numpy_solve(n_rhs):
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(1, 12))
        # diagonally dominant, so well conditioned
        A = rng.standard_normal((dim, dim)) + 2.0 * dim * np.eye(dim)
        b = rng.standard_normal(dim if n_rhs is None else (dim, n_rhs))
        x = numerics._lu_solve(A, b)
        ref = np.linalg.solve(A, b)
        assert x.shape == ref.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("A", [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]])])
def test_lu_solve_raises_linalg_error_on_a_singular_matrix(A):
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        numerics._lu_solve(A, np.ones(A.shape[0]))


def test_face_check_refuses_a_face_with_an_exact_repeat_of_a_row():
    # min 0.5 z'Hz + c'z s.t. z1 + z2 <= 1, whose answer lies on that row;
    # listing the row twice makes the face system exactly singular
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([-3.0, -2.0])
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    L = numerics._factor(H)
    (y, mu), tries = numerics._face_search(L, c, A, b, [0], 1e-9, 1)
    np.testing.assert_allclose(A[0] @ y, 1.0)
    assert mu[0] > 0.0 and tries == 1
    assert numerics._face_search(L, c, A, b, [0, 1], 1e-9, numerics._FACE_TRIES) == (None, 1)


def test_face_check_refuses_a_face_whose_rows_are_parallel_up_to_rounding():
    # the QP above with its row's copy scaled by 3: rounding leaves the face
    # system nonsingular, and its point would hold the multiplier split
    # between the two rows; the pivot test refuses it
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([-3.0, -2.0])
    A = np.array([[1.0, 1.0], [3.0, 3.0]])
    b = np.array([1.0, 3.0])
    S = A @ np.linalg.solve(H, A.T)
    assert np.isfinite(numerics._lu_solve(S, np.ones(2))).all()
    with pytest.raises(np.linalg.LinAlgError):
        numerics._lu_solve(S, np.ones(2), numerics._FACE_RCOND)
    L = numerics._factor(H)
    assert numerics._face_search(L, c, A, b, [0, 1], 1e-9, 1) == (None, 1)
    assert numerics._face_search(L, c, A, b, [0], 1e-9, 1)[0] is not None


def _finite_qp_blocks():
    return dict(H=np.eye(2), c=np.zeros(2), Aeq=np.ones((1, 2)), beq=np.ones(1),
                Ain=-np.eye(2), bin=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["H", "c", "Aeq", "beq", "Ain", "bin"])
def test_qp_refuses_a_non_finite_block_when_built(block, bad):
    # the one finiteness check of QP data (the four row blocks when the
    # rows are built, H and c when the QP is posed on them); a +inf in bin
    # would otherwise pose a row that never binds
    blocks = _finite_qp_blocks()
    blocks[block] = blocks[block].copy()
    blocks[block].flat[-1] = bad
    H, c = blocks.pop("H"), blocks.pop("c")
    with pytest.raises(ValueError, match=rf"^{block} must not contain infs or NaNs"):
        Qp(H, c, QpRows(2, **blocks))
    sol = solve_qp(fresh_qp(**_finite_qp_blocks()))
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-12)


def test_qp_on_prepared_rows_refuses_an_objective_of_another_order():
    blocks = _finite_qp_blocks()
    H, c = blocks.pop("H"), blocks.pop("c")
    rows = QpRows(2, **blocks)
    with pytest.raises(ValueError, match=r"^c has length 3, expected rows.n = 2"):
        Qp(np.eye(3), np.zeros(3), rows)
    with pytest.raises(ValueError, match=r"^H has shape \(3, 3\), expected \(2, 2\)"):
        Qp(np.eye(3), c, rows)
    with pytest.raises(ValueError, match=r"^Ain has shape \(2, 2\), expected \(2, 3\)"):
        QpRows(3, Ain=blocks["Ain"], bin=blocks["bin"])
    qp = Qp(H=H, c=c, rows=rows)
    assert qp.dim == 2 and qp.rows is rows
    assert all(getattr(qp, name) is getattr(rows, name) for name in ("Aeq", "beq", "Ain", "bin"))


def test_qp_is_posed_only_on_prepared_rows():
    # one way to pose a QP: the rows are required, and blocks are not a
    # keyword of Qp
    blocks = _finite_qp_blocks()
    H, c = blocks.pop("H"), blocks.pop("c")
    rows = QpRows(2, **blocks)
    with pytest.raises(TypeError):
        Qp(H, c, Ain=blocks["Ain"], bin=blocks["bin"])
    with pytest.raises(TypeError):
        Qp(H, c)
    with pytest.raises(TypeError):
        Qp(H, c, rows, Aeq=blocks["Aeq"], beq=blocks["beq"])
    assert [f.name for f in dataclasses.fields(Qp)] == ["H", "c", "rows"]


def _rows_built_at_the_call(source):
    """Source of every ``QpRows(...)`` call in ``source``, and of every
    ``Qp(...)`` call whose rows are built by a call in its own argument
    list rather than passed in already prepared."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        rows = node.args[2:] + [k.value for k in node.keywords if k.arg in ("rows", None)]
        if name == "QpRows" or (name == "Qp" and any(isinstance(r, ast.Call) for r in rows)):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", ["forward", "tls_estimator"])
def test_forward_and_tls_pose_every_qp_on_prepared_rows(module):
    # forward.solve poses its QP on the problem's rows and tls_inner its
    # QPs on the fit's cone, both prepared once: rows built at the call
    # would check and reduce the same blocks again on every solve
    source = (Path(ioc_eiv.__file__).parent / f"{module}.py").read_text()
    assert "Qp(" in source
    assert _rows_built_at_the_call(source) == []
    assert sorted(_rows_built_at_the_call(
        "Qp(H, c, QpRows(2, Ain=A, bin=b)); numerics.QpRows(2); Qp(H, c, rows=make(A)); Qp(H, c, r)"
    )) == sorted(["Qp(H, c, QpRows(2, Ain=A, bin=b))", "QpRows(2, Ain=A, bin=b)",
                  "numerics.QpRows(2)", "Qp(H, c, rows=make(A))"])


def test_prepared_rows_keep_their_own_read_only_copy_of_the_blocks():
    # min 0.5 |z|^2 s.t. z1 + z2 = 3, z1 <= 1: the row holds, z = (1, 2)
    Aeq, beq = np.ones((1, 2)), np.array([3.0])
    Ain, bin_ = np.array([[1.0, 0.0]]), np.array([1.0])
    rows = QpRows(2, Aeq=Aeq, beq=beq, Ain=Ain, bin=bin_)
    qp = Qp(H=np.eye(2), c=np.zeros(2), rows=rows)
    for a in (Aeq, beq, Ain, bin_):
        a[...] = 0.0  # before the first solve stores the reduction
    first = solve_qp(qp)
    np.testing.assert_allclose(first.z, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(first.mult_in, [1.0], atol=1e-12)
    for a in (Aeq, beq, Ain, bin_):
        a[...] = 7.0  # and after it
    again = solve_qp(Qp(H=np.eye(2), c=np.zeros(2), rows=rows))
    assert _same_solution(first, again)
    for a in (rows.Aeq, rows.beq, rows.Ain, rows.bin, *rows._reduction[:4]):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("with_ineq", [False, True])
def test_pinned_qp_returns_a_fresh_point_on_every_solve(with_ineq):
    # the equalities pin z = (1, 2): z comes from the rows' shared z_part,
    # so a write into one answer must not reach the next
    ineq = dict(Ain=-np.eye(2), bin=np.zeros(2)) if with_ineq else {}
    rows = QpRows(2, Aeq=np.array([[1.0, 0.0], [0.0, 2.0]]), beq=np.array([1.0, 4.0]), **ineq)
    qp = Qp(H=np.eye(2), c=np.ones(2), rows=rows)
    first = solve_qp(qp)
    np.testing.assert_allclose(first.z, [1.0, 2.0], atol=1e-12)
    assert first.n_iter == 0
    ref = first.z.copy()
    first.z[:] = -5.0
    again = solve_qp(qp)
    assert again.z.tobytes() == ref.tobytes()
    assert again.z.flags.writeable and not np.shares_memory(again.z, first.z)
    assert not np.shares_memory(again.z, rows._reduction[0])


def test_pinned_qp_outside_an_inequality_raises_on_every_solve():
    rows = QpRows(1, Aeq=np.array([[1.0]]), beq=np.array([1.0]),
                  Ain=np.array([[1.0]]), bin=np.array([0.0]))
    for _ in range(2):
        with pytest.raises(Infeasible, match="pin an infeasible point"):
            solve_qp(Qp(H=np.eye(1), c=np.zeros(1), rows=rows))


def test_qp_that_overflows_in_the_solve_raises_instead_of_returning_nan():
    # finite data whose particular solution times H overflows to inf
    qp = fresh_qp(H=1e300 * np.eye(3), c=np.zeros(3), Aeq=np.ones((1, 3)), beq=np.array([1e300]),
                  Ain=-np.eye(3), bin=np.full(3, -1e10))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        solve_qp(qp)


def test_qp_scalar_bound():
    # min 0.5 z^2 subject to z >= 1
    sol = solve_qp(fresh_qp(H=np.eye(1), c=np.zeros(1), Ain=np.array([[-1.0]]),
                            bin=np.array([-1.0])))
    np.testing.assert_allclose(sol.z, [1.0], atol=1e-10)
    np.testing.assert_allclose(sol.mult_in, [1.0], atol=1e-10)


def test_qp_unconstrained_normal_equations():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((5, 5))
    H = G @ G.T + np.eye(5)
    c = rng.standard_normal(5)
    qp = fresh_qp(H=H, c=c)
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.z, -np.linalg.solve(H, c), atol=1e-9)
    assert oracles.qp_report(qp, sol)[1] == ()


def test_qp_equality_constrained_matches_kkt_system():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((6, 6))
    H = G @ G.T + np.eye(6)
    c = rng.standard_normal(6)
    Aeq = rng.standard_normal((2, 6))
    beq = rng.standard_normal(2)
    sol = solve_qp(fresh_qp(H=H, c=c, Aeq=Aeq, beq=beq))
    kkt = np.block([[H, Aeq.T], [Aeq, np.zeros((2, 2))]])
    zl = np.linalg.solve(kkt, np.concatenate([-c, beq]))
    np.testing.assert_allclose(sol.z, zl[:6], atol=1e-8)


def test_qp_box_constrained_matches_projected_gradient():
    rng = np.random.default_rng(3)
    for _ in range(5):
        dim = 5
        G = rng.standard_normal((dim, dim))
        H = G @ G.T + np.eye(dim)
        c = rng.standard_normal(dim)
        idx = rng.choice(dim, size=3, replace=False)
        A = np.zeros((3, dim))
        A[np.arange(3), idx] = rng.choice([-1.0, 1.0], 3)
        b = rng.uniform(-0.5, 0.5, 3)
        sol = solve_qp(fresh_qp(H=H, c=c, Ain=A, bin=b))
        z_pg = oracles.pg_solve(H, c, A, b)
        f = lambda z: 0.5 * z @ H @ z + c @ z
        assert f(sol.z) <= f(z_pg) + 1e-8 * (1.0 + abs(f(z_pg)))


def test_qp_random_instances_optimality_and_duals():
    rng = np.random.default_rng(4)
    for _ in range(10):
        qp, z0 = oracles.random_feasible_qp(rng)
        sol = solve_qp(qp)
        g = qp.Ain @ sol.z - qp.bin
        assert np.max(g) <= 1e-8
        assert np.min(sol.mult_in) >= -1e-10
        assert np.max(np.abs(sol.mult_in * g)) <= 1e-9
        f = lambda z: 0.5 * z @ qp.H @ z + qp.c @ z
        fstar = f(sol.z)
        # interior sampling around the known feasible point
        for _ in range(1000):
            cand = z0 + 0.5 * rng.standard_normal(z0.shape[0])
            if np.max(qp.Ain @ cand - qp.bin) <= 0.0:
                assert fstar <= f(cand) + 1e-10


def test_qp_detects_empty_region():
    qp = fresh_qp(
        H=np.eye(1),
        c=np.zeros(1),
        Ain=np.array([[1.0], [-1.0]]),
        bin=np.array([-1.0, -1.0]),
    )
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_qp_phase1_finds_a_start_when_both_guesses_are_infeasible(monkeypatch):
    # min 0.5 x^2 s.t. 1 <= x <= 2, with the row x >= 1 given twice: the face
    # search refuses the two copies' singular face, and neither the
    # unconstrained minimizer nor the origin is feasible, so the LP of
    # phase 1 supplies the start
    calls = []
    phase1 = numerics._phase1

    def spy(Ar, br):
        calls.append(1)
        return phase1(Ar, br)

    monkeypatch.setattr(numerics, "_phase1", spy)
    qp = fresh_qp(H=np.eye(1), c=np.zeros(1), Ain=np.array([[-1.0], [-1.0], [1.0]]),
                  bin=np.array([-1.0, -1.0, 2.0]))
    sol = solve_qp(qp)
    assert calls == [1]
    np.testing.assert_allclose(sol.z, [1.0], atol=1e-10)
    assert oracles.qp_report(qp, sol)[1] == (0, 1)
    np.testing.assert_allclose(sol.mult_in, [1.0, 0.0, 0.0], atol=1e-10)


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is only needed by the rare phase-1 path and is a large
    # share of the import time, so importing the CLI must not load it
    src = str(Path(ioc_eiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ioc_eiv.bench_cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_qp_semidefinite_hessian_recovered_by_ridge():
    # rank-deficient quadratics appear when many multipliers are inactive;
    # the solver's one-shot diagonal bump must still produce a stationary
    # point of the original problem when one exists
    rng = np.random.default_rng(6)
    G = rng.standard_normal((8, 5))
    H = G @ G.T
    z_target = rng.standard_normal(8)
    c = -H @ z_target
    sol = solve_qp(fresh_qp(H=H, c=c, Ain=-np.eye(8), bin=np.zeros(8)))
    grad = H @ sol.z + c
    act = np.abs(sol.z) <= 1e-9
    assert np.max(np.abs(grad[~act])) <= 1e-5
    assert np.all(sol.z >= -1e-9)


def test_qp_iteration_budget_is_generous():
    rng = np.random.default_rng(7)
    qp, _ = oracles.random_feasible_qp(rng, dim=8, n_con=6)
    sol = solve_qp(qp)
    assert sol.n_iter < 100 * 8
    assert issubclass(IterationLimit, Exception)


def _golden_qp_batch():
    """Fixed batch of random QPs over every shape of equality block.

    Cycles through no equalities, one equality row and several
    rank-deficient rows (the last a combination of the others), some of
    them with an inconsistent right-hand side.  Some instances reuse an
    earlier equality block with a new ``beq``, some have duplicate and
    parallel inequality rows, and some are boxes ``-I z <= b`` whose
    off-diagonal entries are negative zeros.
    """
    rng = np.random.default_rng(20261018)
    blocks = []
    out = []
    for k in range(200):
        kind = k % 4
        dim = int(rng.integers(2, 10))
        G = rng.standard_normal((dim, dim))
        H = G @ G.T + (0.1 + rng.uniform()) * np.eye(dim)
        c = rng.standard_normal(dim)
        z0 = rng.standard_normal(dim)
        if k % 5 == 0:
            Ain = -np.eye(dim)
            c[rng.integers(dim)] = -0.0
        else:
            Ain = rng.standard_normal((int(rng.integers(0, 7)), dim))
            if Ain.shape[0] >= 2 and k % 3 == 0:
                Ain[1] = Ain[0] * (1.0 if k % 2 else 2.5)  # duplicate or parallel
        bin_ = Ain @ z0 + rng.uniform(0.0, 1.0, Ain.shape[0]) * (rng.uniform(size=Ain.shape[0]) < 0.8)
        kw = dict(Ain=Ain, bin=bin_)
        if kind == 1 or (kind >= 2 and dim < 3):
            Aeq = rng.standard_normal((1, dim))
        elif kind >= 2:
            m = int(rng.integers(3, dim + 1))
            Aeq = rng.standard_normal((m, dim))
            Aeq[-1] = Aeq[0] - 0.5 * Aeq[1]
        else:
            Aeq = None
        if Aeq is not None and blocks and k % 7 == 0:
            Aeq = blocks[int(rng.integers(len(blocks)))]
            if Aeq.shape[1] != dim:
                Aeq = None
        if Aeq is not None:
            blocks.append(Aeq)
            beq = Aeq @ z0
            if k % 8 == 7 and Aeq.shape[0] >= 3:
                beq = beq + np.r_[np.zeros(Aeq.shape[0] - 1), 1.0]  # inconsistent
            kw.update(Aeq=Aeq, beq=beq)
        out.append(fresh_qp(H=H, c=c, **kw))
    return out


# sha256 of (z, mult_in, n_iter, mult_eq, active_set, kkt_residual) over the
# batch above, or the exception type where a solve raises, recorded before
# the equality elimination was cached, when solve_qp itself returned the last
# three; they now come from oracles.qp_report by the same operations.  A
# "bit-exact" change to solve_qp that moves z, mult_in or n_iter changes it.
# The bytes depend on the floating-point kernels of the numpy/OpenBLAS build.
# Re-pinned once when the face search replaced the cold start: z and mult_in
# kept their bits on all 200 QPs, and only n_iter, which counts the
# search's tries, moved.  Re-pinned again when an interior QP stopped
# entering the loop: z and mult_in kept their bits on all 200 QPs, and only
# n_iter moved (an interior solve now reads 0 instead of 1).
GOLDEN_QP_BATCH_SHA256 = "2d25a7819c9e976805a57f8c7d37ab122a581b8f92cf803050fdc5eb4306571d"


def _qp_batch_digest(qps):
    h = hashlib.sha256()
    for qp in qps:
        try:
            sol = solve_qp(qp)
        except (Infeasible, IterationLimit, NotPositiveDefinite) as exc:
            h.update(type(exc).__name__.encode())
            continue
        mult_eq, active_set, kkt_residual = oracles.qp_report(qp, sol)
        for a in (sol.z, sol.mult_in, mult_eq):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr((sol.n_iter, active_set, kkt_residual.hex())).encode())
    return h.hexdigest()


def test_qp_batch_outputs_are_bit_identical_to_golden():
    assert _qp_batch_digest(_golden_qp_batch()) == GOLDEN_QP_BATCH_SHA256


def test_prepared_rows_solve_the_golden_batch_bit_for_bit_twice(monkeypatch):
    # the first solve on a QpRows stores its reduction and the second reads
    # it: both must give the z, mult_in and n_iter of the solve on the
    # batch's own rows, and inconsistent equalities must raise on both
    calls = []
    eliminate = numerics._eliminate_equalities

    def spy(Aeq, beq, n):
        calls.append(n)
        return eliminate(Aeq, beq, n)

    monkeypatch.setattr(numerics, "_eliminate_equalities", spy)

    def outcome(qp):
        try:
            return solve_qp(qp)
        except (Infeasible, IterationLimit, NotPositiveDefinite) as exc:
            return type(exc)

    for qp in _golden_qp_batch():
        ref = outcome(qp)
        rows = QpRows(qp.dim, qp.Aeq, qp.beq, qp.Ain, qp.bin)
        for k in range(2):
            calls.clear()
            sol = outcome(Qp(H=qp.H, c=qp.c, rows=rows))
            if isinstance(ref, type):
                assert sol is ref
                continue
            assert _same_solution(sol, ref) and sol.n_iter == ref.n_iter
            assert len(calls) == (k == 0 and qp.Aeq.shape[0] > 0)
        # the batch's 19 raising QPs all have inconsistent equalities, whose
        # reduction is never stored
        assert (rows._reduction is not None) == (not isinstance(ref, type))


def _direct_elimination(Aeq, beq, n):
    """The equality elimination, written out from the SVD of ``Aeq``."""
    U, s, Vt = np.linalg.svd(Aeq, full_matrices=True)
    tol = max(Aeq.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol))
    z_part = np.zeros(n) if r == 0 else Vt[:r].T @ ((U[:, :r].T @ beq) / s[:r])
    return z_part, Vt[r:].T


def _same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


def test_equality_elimination_cache_hit_is_bitwise_the_direct_svd():
    # the elimination a QpRows stores on its first use, and every later
    # solve on the rows reads, has the bits of the SVD written out
    rng = np.random.default_rng(8)
    for k in range(50):
        n = int(rng.integers(2, 10))
        Aeq = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        if Aeq.shape[0] >= 3:
            Aeq[-1] = Aeq[0] - 0.5 * Aeq[1]  # rank-deficient
        if k % 2:
            Aeq = np.asfortranarray(Aeq)  # the other layout
        for _ in range(2):
            beq = Aeq @ rng.standard_normal(n)
            ref_z, ref_Z = _direct_elimination(Aeq, beq, n)
            z_part, Z = numerics._eliminate_equalities(Aeq, beq, n)
            assert _same_bits(z_part, ref_z)
            assert _same_bits(Z, ref_Z)
            rows = QpRows(n, Aeq, beq)
            stored = rows._reduced()
            assert rows._reduced() is stored
            assert _same_bits(stored[0], ref_z)
            assert _same_bits(stored[1], ref_Z)


def test_rank_deficient_inconsistent_equalities_raise_infeasible():
    Aeq = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])  # rank one
    z_part, _ = numerics._eliminate_equalities(Aeq, np.array([1.0, 2.0]), 3)
    np.testing.assert_allclose(Aeq @ z_part, [1.0, 2.0])
    with pytest.raises(Infeasible):
        numerics._eliminate_equalities(Aeq, np.array([1.0, 3.0]), 3)
    qp = fresh_qp(H=np.eye(3), c=np.zeros(3), Aeq=Aeq, beq=np.array([1.0, 3.0]))
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_qp_solution_is_a_frozen_record_of_what_the_solve_computes():
    # min 0.5|z|^2 - z1 - z2 s.t. z1 <= 0.5: the row holds with multiplier 0.5
    sol = solve_qp(fresh_qp(H=np.eye(2), c=-np.ones(2), Ain=np.array([[1.0, 0.0]]),
                            bin=np.array([0.5])))
    assert [f.name for f in dataclasses.fields(sol)] == ["z", "mult_in", "n_iter"]
    np.testing.assert_allclose(sol.z, [0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(sol.mult_in, [0.5], atol=1e-12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.z = np.zeros(2)


def test_qp_without_equalities_factors_the_hessian_once(monkeypatch):
    calls = []
    factor = numerics._factor

    def spy(M):
        calls.append(M.shape)
        return factor(M)

    monkeypatch.setattr(numerics, "_factor", spy)
    rng = np.random.default_rng(11)
    qp, _ = oracles.random_feasible_qp(rng, dim=5, n_con=3)
    solve_qp(qp)
    assert calls == [(5, 5)]
    calls.clear()
    solve_qp(fresh_qp(H=qp.H, c=qp.c, Aeq=np.ones((1, 5)), beq=np.zeros(1), Ain=qp.Ain, bin=qp.bin))
    assert calls == [(4, 4)]  # only the reduced Hessian on the null space


def test_qp_hessian_singular_off_the_equality_null_space_solves_exactly():
    # H = diag(1, 0) is singular, but on the null space {z2 = 0} of the
    # equality it is 1, so nothing is bumped and z1 = -1 exactly
    sol = solve_qp(fresh_qp(H=np.diag([1.0, 0.0]), c=np.array([1.0, 0.0]),
                            Aeq=np.array([[0.0, 1.0]]), beq=np.array([1.0])))
    assert sol.z.tolist() == [-1.0, 1.0]


@pytest.mark.xfail(raises=np.linalg.LinAlgError, strict=True,
                   reason="known defect: the absolute tolerances are not scale invariant")
def test_qp_row_near_underflow_solves_like_its_rescaled_copy():
    # min 0.5|z|^2 s.t. a(z1 + z2) <= 2a, z1 >= 1 (given twice) has z = (1, 0)
    # for every a > 0.  The face search refuses the two copies' singular
    # face, and at a = 1e-197 phase 1 puts the tiny row alone in the working
    # set, where a Hinv a' = 2a^2 underflows to a singular 0.
    a = 1e-197
    sol = solve_qp(fresh_qp(H=np.eye(2), c=np.zeros(2),
                            Ain=np.array([[a, a], [-1.0, 0.0], [-1.0, 0.0]]),
                            bin=np.array([2.0 * a, -1.0, -1.0])))
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-10)


def test_qp_row_near_underflow_solves_in_one_try_from_its_violated_row():
    # the QP above with z1 >= 1 given once: the unconstrained minimizer
    # violates only that row, whose face holds the answer, so phase 1 and
    # the tiny row's singular working set are never reached
    a = 1e-197
    sol = solve_qp(fresh_qp(H=np.eye(2), c=np.zeros(2),
                            Ain=np.array([[a, a], [-1.0, 0.0]]), bin=np.array([2.0 * a, -1.0])))
    assert sol.z.tolist() == [1.0, 0.0]
    assert sol.n_iter == 1


def test_qp_reduced_hessian_gets_the_regularization_retry():
    # the inverse-KKT QP of tls_positivity demos multiplied by 1e-6: H is
    # 2 I except for two nearly null rows, and its exact reduced Hessian on
    # {z1 + z2 = 5} is SPD, but the rounded one fails the factorization at
    # its ninth leading minor
    h0 = [8.055685470659005e-12, -8.43425045893284e-14, -3.4211904597447734e-06,
          -1.8928152635663066e-06, -8.525246210052944e-07, -2.137493637062846e-07,
          7.710021257300201e-08, 1.5898381102686737e-07, 1.4272295760416788e-07, 0.0]
    h1 = [-8.43425045893284e-14, 4.554960619554002e-13, -6.316048280173343e-09,
          -8.950155039212064e-09, -8.584999465317642e-09, -9.66029786740193e-09,
          -3.5382701338048503e-07, -6.658206916135887e-07, -5.84932948054553e-07,
          -6.9137616858351425e-09]
    H = 2.0 * np.eye(10)
    H[0], H[1] = h0, h1
    H[:, 0], H[:, 1] = h0, h1
    Aeq = np.zeros((1, 10))
    Aeq[0, :2] = 1.0
    qp = fresh_qp(H=H, c=np.zeros(10), Aeq=Aeq, beq=np.array([5.0]),
                  Ain=-np.eye(10), bin=np.zeros(10))
    sol = solve_qp(qp)
    assert sol.z.min() >= -1e-12
    assert oracles.qp_report(qp, sol)[2] <= 1e-9


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known defect: a nearly singular H lets z leave its bounds")
def test_qp_with_nearly_singular_hessian_keeps_its_bounds():
    # a TLS Gauss-Newton step QP before scaling and damping; solve_qp
    # returns z = (-0.0180, 16.343, 0.0247) without an error
    H = np.array([[7.56e-29, 6.28e-30, 0.0], [6.28e-30, 1.47e-29, 0.0], [0.0, 0.0, 3.0e-39]])
    c = np.array([8.27e-15, -3.00e-15, -2.47e-38])
    sol = solve_qp(fresh_qp(H=H, c=c, Aeq=np.ones((1, 3)), beq=np.array([16.35]),
                            Ain=-np.eye(3), bin=np.full(3, -1.63e-5)))
    assert sol.z.min() >= 1.63e-5 - 1e-9


def test_shared_identity_is_read_only_and_bounded():
    eye = numerics._identity(4)
    assert not eye.flags.writeable
    assert numerics._identity(4) is eye
    for n in range(2 * numerics._IDENTITY_CACHE_SIZE):
        numerics._identity(n)
    assert numerics._identity.cache_info().currsize <= numerics._IDENTITY_CACHE_SIZE


def test_spd_inverse_checks_its_factor():
    # LAPACK accepts a NaN below the diagonal, with a NaN factor: the
    # factorization's finite-diagonal test refuses it
    bad = np.array([[4.0, 2.0, 0.0], [2.0, 3.0, np.nan], [0.0, np.nan, 2.0]])
    assert lapack.dpotrf(bad, lower=1)[1] == 0
    with pytest.raises(ValueError, match="NaNs"):
        spd_inverse(bad)
    with pytest.raises(ValueError, match="square"):
        spd_inverse(np.ones((2, 3)))
    with pytest.raises(NotPositiveDefinite):
        spd_inverse(np.diag([1.0, -1.0]))


def _qps_with_a_face(seed, count=10):
    """``(qp, cold solution, held rows)`` of random QPs whose unconstrained
    minimizer is infeasible, so that some row holds the optimum; the second
    half also carries equalities through the interior point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        qp, z0 = oracles.random_feasible_qp(rng, n_con=int(rng.integers(3, 8)))
        kw = {}
        if 2 * len(out) >= count:
            Aeq = rng.standard_normal((int(rng.integers(1, qp.dim)), qp.dim))
            kw = dict(Aeq=Aeq, beq=Aeq @ z0)
        qp = fresh_qp(H=qp.H, c=5.0 * qp.c, Ain=qp.Ain, bin=qp.bin, **kw)
        sol = solve_qp(qp)
        face = np.flatnonzero(sol.mult_in > 0.0).tolist()
        if face:
            out.append((qp, sol, face))
    return out


def _same_solution(a, b):
    return a.z.tobytes() == b.z.tobytes() and a.mult_in.tobytes() == b.mult_in.tobytes()


def test_qp_start_on_its_own_face_is_one_iteration_with_the_cold_bits():
    for qp, cold, face in _qps_with_a_face(50):
        warm = solve_qp(qp, face=face)
        assert _same_solution(warm, cold)
        assert warm.n_iter == 1


def test_qp_start_on_a_wrong_face_gives_the_cold_answer(monkeypatch):
    # spies record the tries of each face search (the polish's one try left
    # out) and the iterations of each active-set loop
    tries, loops = [], []
    search, loop = numerics._face_search, numerics._active_set_loop

    def search_spy(*args):
        out = search(*args)
        if args[-1] == numerics._FACE_TRIES:
            tries.append(out[1])
        return out

    def loop_spy(*args):
        out = loop(*args)
        loops.append(out[2])
        return out

    monkeypatch.setattr(numerics, "_face_search", search_spy)
    monkeypatch.setattr(numerics, "_active_set_loop", loop_spy)
    for qp, cold, face in _qps_with_a_face(51):
        wrong = [i for i in range(qp.Ain.shape[0]) if i not in face]
        tries.clear()
        loops.clear()
        warm = solve_qp(qp, face=wrong)
        assert _same_solution(warm, cold)
        # n_iter counts the search's tries, plus the loop's iterations when
        # the search ends without an answer
        assert len(tries) == 1 and 1 <= tries[0] <= numerics._FACE_TRIES
        assert warm.n_iter == tries[0] + sum(loops)


def _spy_on_the_qp_paths(monkeypatch):
    """Record each face search as ``("search", tries, answer or None)`` and
    each active-set loop as ``("loop",)``, in call order."""
    calls = []
    search, loop = numerics._face_search, numerics._active_set_loop

    def search_spy(*args):
        out = search(*args)
        calls.append(("search", args[-1], out[0]))
        return out

    def loop_spy(*args):
        calls.append(("loop",))
        return loop(*args)

    monkeypatch.setattr(numerics, "_face_search", search_spy)
    monkeypatch.setattr(numerics, "_active_set_loop", loop_spy)
    return calls


@pytest.mark.parametrize("n_eq", [0, 1, 2])
def test_interior_qp_is_its_unconstrained_minimizer_with_no_search_or_loop(monkeypatch, n_eq):
    calls = _spy_on_the_qp_paths(monkeypatch)
    rng = np.random.default_rng(30 + n_eq)
    for _ in range(10):
        dim = int(rng.integers(3, 8))
        H, c = _random_spd(rng, dim), rng.standard_normal(dim)
        Aeq = rng.standard_normal((n_eq, dim))
        beq = rng.standard_normal(n_eq)
        # the unconstrained minimizer: the solution of the equality KKT system
        kkt = np.block([[H, Aeq.T], [Aeq, np.zeros((n_eq, n_eq))]])
        z_unc = np.linalg.solve(kkt, np.r_[-c, beq])[:dim]
        Ain = rng.standard_normal((int(rng.integers(1, 6)), dim))
        bin_ = Ain @ z_unc + rng.uniform(0.1, 1.0, Ain.shape[0])
        eq = dict(Aeq=Aeq, beq=beq) if n_eq else {}
        qp = fresh_qp(H=H, c=c, Ain=Ain, bin=bin_, **eq)
        for face in (None, [0]):
            sol = solve_qp(qp, face=face)
            np.testing.assert_allclose(sol.z, z_unc, rtol=1e-9, atol=1e-9)
            assert sol.n_iter == 0
            assert not sol.mult_in.any()
    assert calls == []


def test_qp_loop_runs_only_after_a_failed_face_search(monkeypatch):
    calls = _spy_on_the_qp_paths(monkeypatch)
    n_cold = 0
    for qp in _golden_qp_batch():
        calls.clear()
        try:
            solve_qp(qp)
        except (Infeasible, IterationLimit, NotPositiveDefinite):
            pass
        if ("loop",) in calls:
            n_cold += 1
            first = calls.index(("loop",))
            assert first >= 1 and calls[first - 1] == ("search", numerics._FACE_TRIES, None)
    # the batch holds cold solves, so the loop is reached at all
    assert n_cold > 0


@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_qp_start_on_a_rank_deficient_face_gives_the_cold_answer(factor):
    for qp, _, face in _qps_with_a_face(53):
        # repeat a held row (exactly, or scaled): the face keeps its point
        # but the face system turns singular, or singular up to rounding,
        # and the face search refuses it
        i = face[0]
        Ain = np.vstack([qp.Ain, factor * qp.Ain[i]])
        bin_ = np.append(qp.bin, factor * qp.bin[i])
        qp2 = fresh_qp(H=qp.H, c=qp.c, Aeq=qp.Aeq, beq=qp.beq, Ain=Ain, bin=bin_)
        cold2 = solve_qp(qp2)
        warm = solve_qp(qp2, face=face + [Ain.shape[0] - 1])
        assert _same_solution(warm, cold2)
        _, _, kkt = oracles.qp_report(qp2, warm)
        assert kkt <= 1e-8


def test_qp_face_is_refused_when_malformed():
    for kw in ({}, dict(Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))):
        qp = fresh_qp(H=np.eye(2), c=np.ones(2), Ain=np.array([[1.0, 0.0]]), bin=np.array([0.0]),
                      **kw)
        for face in ([1], [-1], [0.5], np.zeros(2), 0):
            with pytest.raises((ValueError, TypeError)):
                solve_qp(qp, face=face)
