"""Forward optimal control solutions and objective evaluation."""

import time

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    ForwardProblem,
    LinearSystem,
    QuadraticFeature,
    kkt_residual,
    solve_forward,
)
from ioc_eiv.forward import objective


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
