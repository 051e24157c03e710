"""Forward optimal control solutions and objective evaluation."""

import json
import time

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    ForwardProblem,
    Infeasible,
    LinearSystem,
    PolytopicConstraints,
    QuadraticFeature,
    bench_cli,
    kkt_residual,
    solve_forward,
)
from ioc_eiv.forward import objective
from ioc_eiv.model import build_stationarity


def test_benchmark_solution_properties():
    fp = oracles.spring_damper()
    t0 = time.time()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    assert time.time() - t0 < 1.0
    res = kkt_residual(fp, oracles.SPRING_THETA, sol.lam, sol.U)
    for block in (
        res.stationarity,
        res.complementarity,
        res.primal_violation,
        res.dual_violation,
    ):
        assert np.max(np.abs(block)) <= 1e-6
    # the cap saturates the first two inputs
    assert np.isclose(sol.U[0], 0.7) and np.isclose(sol.U[1], 0.7)
    np.testing.assert_allclose(sol.U, oracles.SPRING_U_STAR, atol=1e-6)
    assert np.isclose(objective(fp, oracles.SPRING_THETA, sol.U), oracles.SPRING_OBJECTIVE,
                      rtol=1e-9)


def test_benchmark_cap_actually_binds():
    # removing the cap moves the early inputs above it
    free = oracles.spring_damper(cap=1e9)
    sol_free = solve_forward(free, oracles.SPRING_THETA)
    assert np.max(sol_free.U) > 0.7


def test_benchmark_beats_random_feasible_points():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    best = objective(fp, oracles.SPRING_THETA, sol.U)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        cand = np.minimum(sol.U + 0.1 * rng.standard_normal(10), 0.7)
        assert objective(fp, oracles.SPRING_THETA, cand) >= best - 1e-9


def test_one_step_closed_form():
    a, b, target, x0 = 0.85, 0.4, 1.5, -0.2
    theta = np.array([6.0, 2.0])
    fp = oracles.scalar_problem(a=a, b=b, target=target, horizon=2, x0=x0)
    sol = solve_forward(fp, theta)
    u0 = theta[0] * b * (target - a * x0) / (theta[0] * b * b + theta[1])
    np.testing.assert_allclose(sol.U, [u0, 0.0], atol=1e-9)


def test_zero_input_optimal_when_already_on_target():
    # start exactly at the feature targets with 0 feasible
    sysd = LinearSystem(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = (
        QuadraticFeature("state", 0, 2.0),
        QuadraticFeature("state", 1, -1.0),
        QuadraticFeature("input", 0, 0.0),
        QuadraticFeature("input", 1, 0.0),
    )
    con = oracles.no_constraints(2, 2)
    fp = ForwardProblem(sysd, feats, con, 3, np.array([2.0, -1.0]))
    theta = np.array([3.0, 4.0, 1.0, 1.0])
    sol = solve_forward(fp, theta)
    np.testing.assert_allclose(sol.U, np.zeros(6), atol=1e-10)
    assert sol.lam.size == 0
    assert abs(objective(fp, theta, sol.U)) <= 1e-12


def test_objective_zero_weights():
    fp = oracles.spring_damper()
    rng = np.random.default_rng(29)
    assert objective(fp, np.zeros(3), rng.standard_normal(10)) == 0.0


def test_objective_zero_when_state_sits_on_target():
    # dynamics that ignore the input keep the state on its target
    sysd = LinearSystem(np.eye(1), np.zeros((1, 1)))
    fp = ForwardProblem(
        sysd,
        (QuadraticFeature("state", 0, 3.0),),
        oracles.no_constraints(1, 1),
        4,
        np.array([3.0]),
    )
    rng = np.random.default_rng(31)
    assert objective(fp, np.array([5.0]), rng.standard_normal(4)) == 0.0


def test_objective_matches_stage_loop():
    fp = oracles.spring_damper()
    rng = np.random.default_rng(37)
    theta = rng.uniform(0.5, 5.0, 3)
    U = rng.standard_normal(10)
    from ioc_eiv.model import feature_values, rollout

    xs = rollout(fp.system, fp.x0, U, fp.horizon)
    total = 0.0
    for k in range(fp.horizon):
        total += theta @ feature_values(fp, xs[k], U[k : k + 1])
    assert np.isclose(objective(fp, theta, U), total, rtol=1e-12)


def test_scaling_weights_leaves_minimizer_fixed():
    fp = oracles.spring_damper()
    base = solve_forward(fp, oracles.SPRING_THETA)
    for c in (0.1, 3.0, 250.0):
        scaled = solve_forward(fp, c * oracles.SPRING_THETA)
        np.testing.assert_allclose(scaled.U, base.U, atol=1e-8)
        np.testing.assert_allclose(scaled.lam, c * base.lam, rtol=1e-6, atol=1e-10)


def test_complementary_slackness_at_solution():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    from ioc_eiv.model import constraint_values

    g = constraint_values(fp, sol.U)
    assert np.max(np.abs(sol.lam * g)) <= 1e-9
    assert np.min(sol.lam) >= -1e-10


@pytest.mark.parametrize("theta", [[np.nan, 5.0, 7.0], [10.0, np.inf, 7.0], [10.0, 5.0, 0.0]])
def test_solve_refuses_a_weight_that_is_not_positive_and_finite(theta):
    with pytest.raises(ValueError, match="positive and finite"):
        solve_forward(oracles.spring_damper(), theta)


def _state_cap_problem(s, x0_share):
    """1-D system with the state row x_k <= s and x0 = x0_share * s; the row at
    k = 0 is constant, since no input moves x0."""
    sys1 = LinearSystem(np.array([[0.8]]), np.array([[0.5]]))
    feats = (QuadraticFeature("state", 0, 0.0), QuadraticFeature("input", 0, 0.0))
    con = PolytopicConstraints(np.array([[1.0]]), np.zeros((1, 1)), np.array([s]))
    return ForwardProblem(sys1, feats, con, 4, np.array([x0_share * s]))


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-9, 1e-12])
def test_violated_constant_row_is_infeasible_at_every_scale(s):
    # x0 = 1.5 s breaks x_0 <= s by 0.5 s, which is a third of the terms
    # forming the row's value at every scale
    with pytest.raises(Infeasible, match="row 0 is constant and violated"):
        solve_forward(_state_cap_problem(s, 1.5), np.ones(2))


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-9, 1e-12])
def test_satisfied_constant_row_is_no_constraint_at_every_scale(s):
    fp = _state_cap_problem(s, 0.5)
    sol = solve_forward(fp, np.ones(2))
    assert sol.lam[0] == 0.0
    assert kkt_residual(fp, np.ones(2), sol.lam, sol.U).max_abs() <= 1e-6 * s


@pytest.mark.parametrize("config, value", [("spring_damper", -0.7), ("tls_positivity", 0.0)])
def test_shipped_constant_rows_keep_their_outcome(config, value):
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        fp = bench_cli.parse_problem(json.load(fh)["problem"])
    bs = build_stationarity(fp)
    # the one constant row is the terminal step's, where only Hx applies
    assert np.flatnonzero(~bs.nonzero_rows).tolist() == [fp.n_multipliers - 1]
    assert bs.g_offset[-1] == value
    sol = solve_forward(fp, fp.theta_true)
    assert sol.lam[-1] == 0.0


@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_warm_started_solve_is_the_cold_solve(config):
    # a start from the solution at other weights ends on the same face here,
    # so it returns the cold solve's bits
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        fp = bench_cli.parse_problem(json.load(fh)["problem"])
    rng = np.random.default_rng(41)
    prev = solve_forward(fp, fp.theta_true)
    for _ in range(20):
        theta = fp.theta_true * rng.uniform(0.7, 1.4, fp.q)
        warm = solve_forward(fp, theta, start=prev)
        cold = solve_forward(fp, theta)
        assert warm.U.tobytes() == cold.U.tobytes()
        assert warm.lam.tobytes() == cold.lam.tobytes()
        prev = warm


@pytest.mark.parametrize("horizon", [50, 100])
def test_cold_solve_at_long_horizons_ends_in_a_few_face_tries(monkeypatch, horizon):
    # the unconstrained optimum breaks the input cap on a run of early steps;
    # the QP's face search repairs that guess in a few tries, where a loop
    # that adds one blocking row per iteration took 19 (N = 50) and 18
    # (N = 100) iterations
    from ioc_eiv import forward

    iters = []
    solve_qp = forward.solve_qp

    def counting(qp, face=None):
        sol = solve_qp(qp, face=face)
        iters.append(sol.n_iter)
        return sol

    monkeypatch.setattr(forward, "solve_qp", counting)
    fp = oracles.spring_damper(horizon=horizon)
    sol = solve_forward(fp, oracles.SPRING_THETA)
    assert len(iters) == 1 and iters[0] <= 5
    res = kkt_residual(fp, oracles.SPRING_THETA, sol.lam, sol.U)
    for block in (res.stationarity, res.complementarity, res.primal_violation, res.dual_violation):
        assert np.max(np.abs(block)) <= 1e-6
