"""Cholesky factorization and the dense active-set QP solver."""

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
from ioc_eiv import numerics
from ioc_eiv import (
    Infeasible,
    IterationLimit,
    NotPositiveDefinite,
    Qp,
    cholesky,
    cholesky_solve,
    solve_qp,
)
from ioc_eiv.numerics import cholesky_inverse


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


# outcomes recorded before the fast path was added: these inputs fail its
# guard and must keep their old result, a factor or an exception type.  For
# the largest ones M + M overflows, so the old factor is inf where factoring
# M itself would give a finite one.
_NON_FINITE_OR_HUGE = [
    (_diag2(np.nan), None),
    (_diag2(1.0, off=np.nan), None),
    (_diag2(np.inf), None),
    (_diag2(1.0, off=np.inf), NotPositiveDefinite),
    (_diag2(-np.inf), NotPositiveDefinite),
    (_diag2(1e307), None),
    (_diag2(5e307), None),
    (_diag2(1e308, 1e308, 1e300), None),
    (_diag2(np.finfo(float).max), None),
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


def test_cholesky_inverse_is_the_symmetrized_solve_against_the_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        M = _random_spd(rng, dim) * 10.0 ** rng.uniform(-6, 6)
        L = cholesky(M)
        C = scipy.linalg.cho_solve((L, True), np.eye(dim))
        got = cholesky_inverse(L)
        assert np.array_equal(got, 0.5 * (C + C.T))
        assert np.array_equal(got, got.T)
        assert got.flags.writeable
        # an inverse of M to within rounding scaled by its condition number
        np.testing.assert_allclose(got @ M, np.eye(dim), atol=1e-8 * np.linalg.cond(M))
    # the shared identity behind the solve stays untouched
    assert np.array_equal(cholesky_inverse(cholesky(4.0 * np.eye(3))), 0.25 * np.eye(3))
    assert np.array_equal(cholesky_inverse(cholesky(np.eye(3))), np.eye(3))


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


def test_qp_scalar_bound():
    # min 0.5 z^2 subject to z >= 1
    sol = solve_qp(Qp(H=np.eye(1), c=np.zeros(1), Ain=np.array([[-1.0]]), bin=np.array([-1.0])))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [1.0], atol=1e-10)
    np.testing.assert_allclose(sol.mult_in, [1.0], atol=1e-10)


def test_qp_unconstrained_normal_equations():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((5, 5))
    H = G @ G.T + np.eye(5)
    c = rng.standard_normal(5)
    sol = solve_qp(Qp(H=H, c=c))
    np.testing.assert_allclose(sol.z, -np.linalg.solve(H, c), atol=1e-9)
    assert sol.active_set == ()


def test_qp_equality_constrained_matches_kkt_system():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((6, 6))
    H = G @ G.T + np.eye(6)
    c = rng.standard_normal(6)
    Aeq = rng.standard_normal((2, 6))
    beq = rng.standard_normal(2)
    sol = solve_qp(Qp(H=H, c=c, Aeq=Aeq, beq=beq))
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
        sol = solve_qp(Qp(H=H, c=c, Ain=A, bin=b))
        z_pg = oracles.pg_solve(H, c, A, b)
        f = lambda z: 0.5 * z @ H @ z + c @ z
        assert f(sol.z) <= f(z_pg) + 1e-8 * (1.0 + abs(f(z_pg)))


def test_qp_random_instances_optimality_and_duals():
    rng = np.random.default_rng(4)
    for _ in range(10):
        qp, z0 = oracles.random_feasible_qp(rng)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
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


def test_qp_warm_start_agrees_with_cold():
    rng = np.random.default_rng(5)
    qp, _ = oracles.random_feasible_qp(rng, dim=7, n_con=5)
    cold = solve_qp(qp)
    warm = solve_qp(qp, warm_start=cold.active_set)
    np.testing.assert_allclose(warm.z, cold.z, atol=1e-8)
    shifted = solve_qp(qp, warm_start=())
    np.testing.assert_allclose(shifted.z, cold.z, atol=1e-8)


def test_qp_detects_empty_region():
    qp = Qp(
        H=np.eye(1),
        c=np.zeros(1),
        Ain=np.array([[1.0], [-1.0]]),
        bin=np.array([-1.0, -1.0]),
    )
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_qp_phase1_finds_a_start_when_both_guesses_are_infeasible(monkeypatch):
    # min 0.5 x^2 s.t. 1 <= x <= 2: neither the unconstrained minimizer nor
    # the origin is feasible, so the LP of phase 1 supplies the start
    calls = []
    phase1 = numerics._phase1

    def spy(Ar, br):
        calls.append(1)
        return phase1(Ar, br)

    monkeypatch.setattr(numerics, "_phase1", spy)
    sol = solve_qp(Qp(H=np.eye(1), c=np.zeros(1),
                      Ain=np.array([[-1.0], [1.0]]), bin=np.array([-1.0, 2.0])))
    assert calls == [1]
    np.testing.assert_allclose(sol.z, [1.0], atol=1e-10)
    assert sol.active_set == (0,)
    np.testing.assert_allclose(sol.mult_in, [1.0, 0.0], atol=1e-10)


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
    sol = solve_qp(Qp(H=H, c=c, Ain=-np.eye(8), bin=np.zeros(8)))
    assert sol.status == "optimal"
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
