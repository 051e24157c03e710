"""Rollout, stationarity assembly, and KKT residuals."""

import hashlib
import json
import pickle

import numpy as np
import pytest

import ioc_eiv
import oracles
from ioc_eiv import (
    ForwardProblem,
    LinearSystem,
    PolytopicConstraints,
    QpRows,
    QuadraticFeature,
    build_stationarity,
    forward,
    kkt_residual,
    rollout,
    solve_forward,
)
from ioc_eiv.bench_cli import parse_problem
from ioc_eiv.model import (
    DEMO_ACTIVE_TOL,
    ITERATE_ACTIVE_TOL,
    constraint_values,
    multiplier_index,
    objective,
)


def test_rollout_zero_everything():
    sysd = LinearSystem(oracles.SPRING_A, oracles.SPRING_B)
    xs = rollout(sysd, np.zeros(2), np.zeros(5), 5)
    assert xs.shape == (6, 2)
    assert np.all(xs == 0.0)


def test_rollout_identity_accumulates_inputs():
    sysd = LinearSystem(np.eye(1), np.eye(1))
    xs = rollout(sysd, np.array([1.0]), np.array([1.0, 1.0]), 2)
    np.testing.assert_allclose(xs.ravel(), [1.0, 2.0, 3.0])


def test_rollout_matches_scalar_recursion():
    # free response of the benchmark system against an explicit loop
    sysd = LinearSystem(oracles.SPRING_A, oracles.SPRING_B)
    x0 = np.array([1.0, 0.1])
    N = 10
    xs = rollout(sysd, x0, np.zeros(N), N)
    x = x0.copy()
    for k in range(N):
        np.testing.assert_allclose(xs[k], x, rtol=0, atol=1e-14)
        x = oracles.SPRING_A @ x
    np.testing.assert_allclose(xs[N], x, rtol=0, atol=1e-14)


def _stationarity(bs, theta, lam, U):
    MU = sum(t * (M @ U) for t, M in zip(theta, bs.Mj))
    return MU + bs.E_theta @ theta + bs.J_lambda @ lam


def _gradient_oracle(fp, theta, lam, U):
    """Lagrangian gradient in U by explicit chain-rule loops."""
    n, m, N = fp.system.n, fp.system.m, fp.horizon
    xs = rollout(fp.system, fp.x0, U, N)
    # row k * n + i is d x_k[i] / dU: rollouts from rest of each unit input
    dxdU = np.column_stack(
        [rollout(fp.system, np.zeros(n), e, N).ravel() for e in np.eye(m * N)]
    )
    grad = np.zeros(m * N)
    for j, feat in enumerate(fp.features):
        for k in range(N):
            if feat.kind == "state":
                dev = xs[k, feat.index] - feat.target
                grad += 2.0 * theta[j] * dev * dxdU[k * n + feat.index]
            else:
                dev = U[k * m + feat.index] - feat.target
                grad[k * m + feat.index] += 2.0 * theta[j] * dev
    Hx, Hu = fp.constraints.Hx, fp.constraints.Hu
    n_rows = Hx.shape[0]
    for k in range(N + 1):
        for i in range(n_rows):
            lam_ik = lam[multiplier_index(i, k, n_rows)]
            grad += lam_ik * (Hx[i] @ dxdU[k * n : (k + 1) * n])
            if k < N:
                grad[k * m : (k + 1) * m] += lam_ik * Hu[i]
    return grad


def test_stationarity_matches_chain_rule_oracle():
    fp = oracles.spring_damper()
    bs = build_stationarity(fp)
    rng = np.random.default_rng(7)
    n_lam = fp.constraints.h.shape[0] * (fp.horizon + 1)
    for _ in range(100):
        theta = rng.uniform(0.1, 5.0, 3)
        lam = rng.uniform(0.0, 2.0, n_lam)
        U = rng.standard_normal(10)
        s = _stationarity(bs, theta, lam, U)
        g = _gradient_oracle(fp, theta, lam, U)
        assert np.max(np.abs(s - g)) <= 1e-10 * (1.0 + np.max(np.abs(g)))


def test_stationarity_matches_finite_differences():
    fp = oracles.spring_damper()
    bs = build_stationarity(fp)
    rng = np.random.default_rng(19)
    theta = rng.uniform(0.5, 4.0, 3)
    lam = rng.uniform(0.0, 1.0, 11)
    U = rng.standard_normal(10)
    s = _stationarity(bs, theta, lam, U)
    h = 1e-5
    for i in range(10):
        e = np.zeros(10)
        e[i] = h
        fd = (oracles.lagrangian(fp, theta, lam, U + e)
              - oracles.lagrangian(fp, theta, lam, U - e)) / (2.0 * h)
        assert abs(fd - s[i]) <= 1e-6 * (1.0 + abs(fd))


def _shipped_problem(config):
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        return parse_problem(json.load(fh)["problem"])


def test_J_theta_equals_the_per_column_formula_bytewise():
    # the stacked product must round every column exactly as Mj @ U + E_theta[:, j]
    rng = np.random.default_rng(29)
    problems = [_shipped_problem("spring_damper"), _shipped_problem("tls_positivity")]
    problems += [oracles.random_instance(rng)[0] for _ in range(10)]
    for fp in problems:
        bs = build_stationarity(fp)
        for _ in range(50):
            U = rng.standard_normal(bs.n_inputs) * 10.0 ** rng.uniform(-3.0, 3.0)
            U[rng.random(U.size) < 0.3] = 0.0
            want = np.column_stack(
                [Mj @ U + bs.E_theta[:, j] for j, Mj in enumerate(bs.Mj)]
            )
            got = bs.J_theta(U)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _face_model_problems():
    """Both shipped configs at N = 1, 3, 8, 10 and 50, and 200 seeded random
    problems, some with -0.0 entries, zero columns, zero rows or no rows."""
    problems = []
    for config in ("spring_damper", "tls_positivity"):
        with open(f"configs/{config}.json", encoding="utf-8") as fh:
            obj = json.load(fh)["problem"]
        problems += [parse_problem(dict(obj, horizon=N)) for N in (1, 3, 8, 10, 50)]
    rng = np.random.default_rng(37)
    for _ in range(200):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        N, I = int(rng.integers(1, 30)), int(rng.integers(0, 6))
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        B, x0 = rng.standard_normal((n, m)), rng.standard_normal(n)
        Hx, Hu, h = rng.standard_normal((I, n)), rng.standard_normal((I, m)), rng.standard_normal(I)
        for a in (A, B, x0, Hx, Hu, h):
            a[rng.random(a.shape) < 0.2] = -0.0
        for a in (B, Hx, Hu):
            if rng.random() < 0.3:
                a[:, rng.integers(a.shape[1])] = 0.0
        if I and rng.random() < 0.3:
            Hu[rng.integers(I)] = 0.0  # a constant row at step 0
        kinds = rng.choice(["state", "input"], size=int(rng.integers(1, 4)))
        feats = tuple(
            QuadraticFeature(str(kind), int(rng.integers(n if kind == "state" else m)),
                             float(rng.standard_normal()))
            for kind in kinds
        )
        problems.append(ForwardProblem(LinearSystem(A, B), feats,
                                       PolytopicConstraints(Hx, Hu, h), N, x0))
    return problems


# sha256 of every array build_stationarity returns (its shape, dtype, memory
# order and bytes), nonzero_rows and violated_row over _face_model_problems.
# Pinned before the stacked-dynamics intermediate was removed; a change to
# how the face model is assembled must leave it as it is.  The bytes depend
# on the floating-point kernels of the numpy/OpenBLAS build.
GOLDEN_FACE_MODEL_SHA256 = "4170a48f7ee24d7b7ce204b70b71d388114b90b89335018a4412e64ee757b11f"


def test_face_model_is_bit_identical_to_golden():
    h = hashlib.sha256()
    for fp in _face_model_problems():
        bs = build_stationarity(fp)
        arrays = (*bs.Mj, bs.E_theta, bs.J_lambda, bs.g_offset, bs.g_scale, bs.h_ref,
                  bs.nonzero_rows)
        for a in arrays:
            h.update(repr((a.shape, a.dtype.str, a.flags.c_contiguous)).encode())
            h.update(a.tobytes())
        h.update(repr(bs.violated_row).encode())
    assert h.hexdigest() == GOLDEN_FACE_MODEL_SHA256


def _loop_m_beta(bs, theta):
    """``M_beta`` as a loop over the features, adding each product to zero in order."""
    out = np.zeros_like(bs.Mj[0])
    for tj, Mj in zip(theta, bs.Mj):
        out += tj * Mj
    return out


def test_m_beta_equals_the_loop_over_features_bytewise():
    rng = np.random.default_rng(31)
    problems = [_shipped_problem("spring_damper"), _shipped_problem("tls_positivity")]
    problems += [oracles.random_instance(rng)[0] for _ in range(10)]
    for fp in problems:
        bs = build_stationarity(fp)
        for _ in range(50):
            theta = rng.standard_normal(bs.n_features) * 10.0 ** rng.uniform(-3.0, 3.0)
            theta[rng.random(theta.size) < 0.3] = 0.0
            theta[rng.random(theta.size) < 0.1] = -0.0
            got = bs.M_beta(theta)
            want = _loop_m_beta(bs, theta)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous


@pytest.mark.parametrize("length", [0, 2, 4, 5])
def test_m_beta_refuses_a_theta_without_one_weight_per_feature(length):
    # zip would drop the surplus weights, or treat the missing ones as zero
    bs = build_stationarity(oracles.spring_damper())
    assert bs.n_features == 3
    with pytest.raises(ValueError, match=rf"theta has shape \({length},\), expected \(3,\)"):
        bs.M_beta(np.ones(length))
    with pytest.raises(ValueError, match="expected"):
        bs.M_beta(np.ones((3, 1)))
    with pytest.raises(ValueError, match="expected"):
        bs.stationarity(np.zeros(10), np.ones(length), np.zeros(11))


def test_residual_doubles_with_parameters():
    # the stationarity and complementarity blocks are linear in (theta, lam),
    # and doubling is exact in binary floating point
    fp = oracles.spring_damper()
    rng = np.random.default_rng(23)
    theta = rng.uniform(0.1, 3.0, 3)
    lam = rng.uniform(0.0, 1.0, 11)
    U = rng.standard_normal(10)
    r1 = kkt_residual(fp, theta, lam, U)
    r2 = kkt_residual(fp, 2.0 * theta, 2.0 * lam, U)
    assert np.array_equal(r2.stationarity, 2.0 * r1.stationarity)
    assert np.array_equal(r2.complementarity, 2.0 * r1.complementarity)
    assert np.array_equal(r2.primal_violation, r1.primal_violation)


def test_input_feature_hessian_is_two_identity():
    fp = oracles.scalar_problem(horizon=3)
    bs = build_stationarity(fp)
    # second feature is the input quadratic: curvature 2 on every input
    np.testing.assert_allclose(bs.Mj[1], 2.0 * np.eye(3))
    # first feature is a state quadratic: its curvature comes through the
    # dynamics only, checked by symmetry
    assert np.allclose(bs.Mj[0], bs.Mj[0].T)


def test_cap_constraint_gradient_unit_entry():
    fp = oracles.spring_damper()
    bs = build_stationarity(fp)
    N = fp.horizon
    for k in range(N):
        col = bs.J_lambda[:, multiplier_index(0, k, 1)]
        expect = np.zeros(N)
        expect[k] = 1.0
        np.testing.assert_allclose(col, expect)
    # terminal stage has no input, so its multiplier column is zero
    assert np.all(bs.J_lambda[:, multiplier_index(0, N, 1)] == 0.0)


def test_residual_zero_at_unconstrained_minimizer():
    # stage costs run over k = 0..N-1, so with horizon 2 only u_0 shapes a
    # penalized state (x_1) and u_1 = 0 at the optimum; u_0 has a closed form
    a, b, target, theta1, theta2 = 0.9, 0.6, 2.0, 4.0, 1.5
    fp = oracles.scalar_problem(a=a, b=b, target=target, horizon=2, x0=0.5)
    u0 = theta1 * b * (target - a * 0.5) / (theta1 * b * b + theta2)
    res = kkt_residual(
        fp, np.array([theta1, theta2]), np.zeros(0), np.array([u0, 0.0])
    )
    assert np.max(np.abs(res.stationarity)) <= 1e-8
    assert res.complementarity.size == 0
    assert res.primal_violation.size == 0


def test_residual_zero_parameters_zero_stationarity():
    fp = oracles.spring_damper()
    rng = np.random.default_rng(31)
    U = rng.standard_normal(10)
    res = kkt_residual(fp, np.zeros(3), np.zeros(11), U)
    assert np.all(res.stationarity == 0.0)
    assert np.all(res.complementarity == 0.0)


def test_residual_small_at_solver_output():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    res = kkt_residual(fp, oracles.SPRING_THETA, sol.lam, sol.U)
    for block in (
        res.stationarity,
        res.complementarity,
        res.primal_violation,
        res.dual_violation,
    ):
        assert block.size == 0 or np.max(np.abs(block)) <= 1e-6


def test_lagrangian_is_objective_plus_constraint_term():
    fp = oracles.spring_damper()
    rng = np.random.default_rng(29)
    theta = rng.uniform(0.5, 4.0, 3)
    lam = rng.uniform(0.0, 1.0, 11)
    U = rng.standard_normal(10)
    value = oracles.lagrangian(fp, theta, lam, U)
    assert value == objective(fp, theta, U) + float(lam @ constraint_values(fp, U))
    assert oracles.lagrangian(fp, theta, np.zeros(11), U) == objective(fp, theta, U)
    # the rollout cost has one definition, importable from its old homes too
    assert forward.objective is objective and ioc_eiv.objective is objective
    with pytest.raises(ValueError):
        oracles.lagrangian(fp, theta, lam[:-1], U)
    with pytest.raises(ValueError):
        oracles.lagrangian(fp, theta[:-1], lam, U)


@pytest.mark.parametrize("field,bad", [
    ("theta_true", [np.nan, 5.0, 7.0]),
    ("theta_true", [10.0, np.inf, 7.0]),
    ("x0", [np.nan, 0.1]),
    ("x0", [1.0, -np.inf]),
])
def test_forward_problem_refuses_a_non_finite_weight_or_start(field, bad):
    # a NaN weight used to pass the theta <= 0 test, and a NaN start was
    # accepted; both ended in a traceback inside the first solve
    fp = oracles.spring_damper()
    kw = dict(system=fp.system, features=fp.features, constraints=fp.constraints,
              horizon=fp.horizon, x0=fp.x0, theta_true=fp.theta_true)
    kw[field] = np.array(bad)
    with pytest.raises(ValueError, match="finite"):
        ForwardProblem(**kw)


def test_feature_index_and_horizon_must_be_integers():
    # a float index used to build and raise IndexError at the first solve,
    # and a float horizon TypeError inside build_stationarity
    with pytest.raises(TypeError):
        QuadraticFeature("state", 0.5)
    fp = oracles.spring_damper()
    with pytest.raises(TypeError):
        ForwardProblem(fp.system, fp.features, fp.constraints, 8.0, fp.x0)
    # integers of any type are taken, and kept as Python ints
    feat = QuadraticFeature("state", np.int64(1))
    assert type(feat.index) is int and feat.index == 1
    fp2 = ForwardProblem(fp.system, fp.features, fp.constraints, np.int64(fp.horizon), fp.x0,
                         fp.theta_true)
    assert type(fp2.horizon) is int and fp2 == fp


@pytest.mark.parametrize("field", ["A", "B", "Hx", "Hu", "h", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_data_must_be_finite_where_it_is_built(field, bad):
    # a NaN in A or an infinite h used to surface from the first QP solve as
    # "bin must not contain infs or NaNs"; now the constructor names the field
    fp = oracles.spring_damper()
    sys_, con = fp.system, fp.constraints
    arrays = dict(A=sys_.A.copy(), B=sys_.B.copy(), Hx=con.Hx.copy(), Hu=con.Hu.copy(),
                  h=con.h.copy())
    match = f"{field} must be finite"
    with pytest.raises(ValueError, match=match):
        if field == "target":
            QuadraticFeature("state", 0, bad)
        elif field in ("A", "B"):
            arrays[field].flat[-1] = bad
            LinearSystem(arrays["A"], arrays["B"])
        else:
            arrays[field].flat[-1] = bad
            PolytopicConstraints(arrays["Hx"], arrays["Hu"], arrays["h"])


def test_problem_arrays_are_read_only():
    # every array is frozen where it is built, a one-row Hx given as a
    # vector and a scalar h included
    sysd = LinearSystem(np.eye(2), np.ones((2, 1)))
    con = PolytopicConstraints([1.0, 2.0], [3.0], 4.0)
    fp = ForwardProblem(sysd, (QuadraticFeature("input", 0),), con, 2, [0.0, 1.0], [1.0])
    assert (con.Hx.shape, con.Hu.shape, con.h.shape) == ((1, 2), (1, 1), (1,))
    for a in (sysd.A, sysd.B, con.Hx, con.Hu, con.h, fp.x0, fp.theta_true):
        assert not a.flags.writeable


@pytest.mark.parametrize("tol", [DEMO_ACTIVE_TOL, ITERATE_ACTIVE_TOL])
def test_active_rows_scale_each_row_by_its_own_bound(tol):
    # two input rows with different bounds, u <= 0.5 and -u <= 3, so a
    # per-row scale tiled wrongly over the steps flips some flags
    h = np.array([0.5, 3.0])
    fp = ForwardProblem(
        LinearSystem(np.array([[0.9]]), np.array([[1.0]])),
        (QuadraticFeature("state", 0, 1.0), QuadraticFeature("input", 0, 0.0)),
        PolytopicConstraints(np.zeros((2, 1)), np.array([[1.0], [-1.0]]), h),
        3,
        np.array([0.0]),
    )
    bs = build_stationarity(fp)
    # step 0: row 1 off by 3 tol (inside its band of 4 tol, outside row 0's
    # 1.5 tol); step 1: row 0 off by 2 tol (outside its band, inside row
    # 1's); step 2: row 0 off by tol; step 3 (terminal): no input, inactive
    U = np.array([-3.0 - 3.0 * tol, 0.5 + 2.0 * tol, 0.5 - tol])
    got = bs.active_rows(U, tol)
    g = constraint_values(fp, U)
    scale = np.array([abs(h[i]) for k in range(4) for i in range(2)])
    assert np.array_equal(got, np.abs(g) <= tol * (1.0 + scale))
    assert got.tolist() == [False, True, False, False, True, False, False, False]


def test_active_rows_leave_out_a_constant_row_at_zero():
    # tls_positivity's one row is -u <= 0; at the terminal step it has no
    # input, so g is 0 whatever U is: satisfied with equality, yet no row
    fp = _shipped_problem("tls_positivity")
    bs = build_stationarity(fp)
    term = multiplier_index(0, fp.horizon, 1)
    U = solve_forward(fp, fp.theta_true).U
    assert not bs.nonzero_rows[term]
    assert bs.constraint_values(U)[term] == 0.0
    for tol in (DEMO_ACTIVE_TOL, ITERATE_ACTIVE_TOL):
        act = bs.active_rows(U, tol)
        assert not act[term]
        g = bs.constraint_values(U)[:term]
        assert np.array_equal(act[:term], np.abs(g) <= tol * (1.0 + bs.h_ref[:term]))


def test_held_rows_ignore_constant_rows_and_compare_strictly():
    fp = _shipped_problem("tls_positivity")
    bs = build_stationarity(fp)
    term = multiplier_index(0, fp.horizon, 1)
    lam = np.zeros(fp.n_multipliers)
    lam[0] = ITERATE_ACTIVE_TOL
    lam[1] = np.nextafter(ITERATE_ACTIVE_TOL, 1.0)
    lam[2] = 5.0
    lam[term] = 5.0
    assert bs.held_rows(lam).tolist() == [False, True, True] + [False] * (term - 2)


def test_face_blocks_pose_chosen_rows_and_skip_empty_blocks():
    # the blocks of face_rows' QpRows; a mask left out or without rows
    # poses an empty block
    fp = _shipped_problem("tls_positivity")
    bs = build_stationarity(fp)
    L, mN = fp.n_multipliers, fp.n_inputs
    none = np.zeros(L, dtype=bool)

    def shapes(rows):
        return rows.Aeq.shape, rows.beq.shape, rows.Ain.shape, rows.bin.shape

    empty = ((0, mN), (0,), (0, mN), (0,))
    assert shapes(bs.face_rows()) == empty
    assert shapes(bs.face_rows(eq=none, ineq=none)) == empty
    G, g0 = bs.J_lambda.T, bs.g_offset
    # every row as an inequality poses the nonconstant ones only
    rows = bs.face_rows(ineq=~none)
    assert isinstance(rows, QpRows) and rows.n == mN and rows.Aeq.shape == (0, mN)
    np.testing.assert_array_equal(rows.Ain, G[: L - 1])
    np.testing.assert_array_equal(rows.bin, -g0[: L - 1])
    # faces 1 and 3 (and the constant row, dropped) as equalities, the rest
    # as inequalities
    eq = none.copy()
    eq[[1, 3, L - 1]] = True
    rows = bs.face_rows(eq=eq, ineq=~eq)
    others = [i for i in range(L - 1) if i not in (1, 3)]
    np.testing.assert_array_equal(rows.Aeq, G[[1, 3]])
    np.testing.assert_array_equal(rows.beq, -g0[[1, 3]])
    np.testing.assert_array_equal(rows.Ain, G[others])
    np.testing.assert_array_equal(rows.bin, -g0[others])
    assert shapes(bs.face_rows(eq=eq))[2:] == ((0, mN), (0,))
    # the forward QP's rows are every nonconstant row as an inequality
    forward = bs.forward_rows
    assert forward.Aeq.shape == (0, mN)
    np.testing.assert_array_equal(forward.Ain, G[: L - 1])
    np.testing.assert_array_equal(forward.bin, -g0[: L - 1])


def test_free_columns_are_the_weights_and_the_active_rows_multipliers():
    fp = _shipped_problem("tls_positivity")
    bs = build_stationarity(fp)
    U = solve_forward(fp, fp.theta_true).U
    for tol in (DEMO_ACTIVE_TOL, ITERATE_ACTIVE_TOL):
        Jt, Ja, act = bs.free_columns(U, tol)
        assert act.size and act.tolist() == np.flatnonzero(bs.active_rows(U, tol)).tolist()
        assert Jt.tobytes() == bs.J_theta(U).tobytes()
        assert Ja.tobytes() == bs.J_lambda[:, act].tobytes()
        free = np.concatenate([np.arange(fp.q), fp.q + act])
        np.testing.assert_array_equal(np.hstack([Jt, Ja]), bs.J(U)[:, free])


def test_face_blocks_are_new_on_every_call():
    fp = _shipped_problem("tls_positivity")
    bs = build_stationarity(fp)
    L = fp.n_multipliers
    eq = np.zeros(L, dtype=bool)
    eq[[1, 3]] = True
    rows = bs.face_rows(eq=eq, ineq=~eq)
    # each call builds its own rows, holding read-only copies of the
    # model's arrays
    again = bs.face_rows(eq=eq, ineq=~eq)
    assert again is not rows
    assert not np.shares_memory(rows.Aeq, again.Aeq)
    assert not np.shares_memory(rows.Aeq, bs.J_lambda)
    np.testing.assert_array_equal(again.Aeq, bs.J_lambda.T[[1, 3]])
    assert again.Ain.shape[0] == L - 3
    # a later change to the caller's mask poses the new faces
    eq[5] = True
    np.testing.assert_array_equal(bs.face_rows(eq=eq).Aeq, bs.J_lambda.T[[1, 3, 5]])


def test_problems_with_equal_bytes_are_equal_and_share_one_decomposition():
    with open("configs/tls_positivity.json", encoding="utf-8") as fh:
        obj = json.load(fh)["problem"]
    fp1, fp2 = parse_problem(obj), parse_problem(json.loads(json.dumps(obj)))
    assert fp1 is not fp2 and fp1 == fp2 and hash(fp1) == hash(fp2)
    assert build_stationarity(fp1) is build_stationarity(fp2)
    # every field takes part, to the bit: -0.0 is not 0.0, and theta_true counts
    for edit in (
        {"horizon": obj["horizon"] + 1},
        {"x0": [np.nextafter(obj["x0"][0], np.inf)]},
        {"theta_true": [4.0, 2.0]},
        {"features": [dict(obj["features"][0]), dict(obj["features"][1], target=-0.0)]},
        {"constraints": dict(obj["constraints"], h=[1e-300])},
    ):
        other = parse_problem(dict(obj, **edit))
        assert other != fp1
        assert build_stationarity(other) is not build_stationarity(fp1)
    assert fp1 != object() and fp1 != "problem"
    copy = pickle.loads(pickle.dumps(fp1))
    assert copy is not fp1 and copy == fp1 and hash(copy) == hash(fp1)
