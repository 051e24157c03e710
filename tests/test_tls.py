"""Total-least-squares estimation with the alternating covariance update."""

import itertools

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    ForwardProblem,
    LinearSystem,
    NoiseSpec,
    NormalizationRule,
    PolytopicConstraints,
    QuadraticFeature,
    generate,
    noise_scale_from_percent,
    rescale_to_l1,
    rmse,
    sample_mean,
    solve_forward,
    tls_estimate,
    tls_inner,
)
from ioc_eiv import tls_estimator
from ioc_eiv.model import build_stationarity, constraint_values
from ioc_eiv.tls_estimator import MAX_OUTER_ITERS, RIDGE, SIGMA_TOL


def _benchmark_demos(pct, seed, D, kind="gaussian"):
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    if kind == "gaussian":
        sig = noise_scale_from_percent(sol.U, pct)
        spec = NoiseSpec.gaussian(np.diag(sig**2), seed=seed)
    else:
        sig = noise_scale_from_percent(sol.U, pct)
        spec = NoiseSpec.uniform(np.sqrt(3.0) * sig, seed=seed)
    return fp, sol, generate(sol.U, spec, D, fp)


def _positivity_problem():
    sysd = LinearSystem(np.array([[0.75]]), np.array([[0.5]]))
    feats = (QuadraticFeature("state", 0, 0.5), QuadraticFeature("input", 0, 0.0))
    # inputs must stay nonnegative: -u <= 0
    con = PolytopicConstraints(np.zeros((1, 1)), np.array([[-1.0]]), np.array([0.0]))
    theta = np.array([4.0, 1.0])
    fp = ForwardProblem(sysd, feats, con, 8, np.array([2.0]), theta)
    return fp, theta


def _norm():
    return NormalizationRule("sum", value=22.0)


def test_norm_is_required():
    fp, sol, ds = _benchmark_demos(10.0, 1, 4)
    with pytest.raises(ValueError):
        tls_estimate(ds, fp, None)


def test_noiseless_demos_are_a_fixed_point():
    fp, sol, _ = _benchmark_demos(10.0, 2, 2)
    ds = generate(sol.U, NoiseSpec.gaussian(np.zeros((1, 1)), seed=2), 4, fp)
    res = tls_estimate(ds, fp, _norm())
    assert rmse(res.U_hat, sol.U) <= 1e-8
    assert rmse(rescale_to_l1(res.theta, 22.0), oracles.SPRING_THETA) <= 1e-6
    np.testing.assert_allclose(res.Sigma_U_hat, RIDGE * np.eye(10), atol=1e-14)
    assert res.path == "exact"


def _far_cap_demos(pct, seed, D):
    # a cap nothing reaches keeps every multiplier at zero, so the inner
    # solve reduces to an equality-constrained least squares problem with a
    # closed form
    fp = oracles.spring_damper(cap=1e9)
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, pct)
    return fp, sol, generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=seed), D, fp)


def test_inner_result_is_weighted_projection_of_demos():
    fp, sol, ds = _far_cap_demos(8.0, 3, 3)
    bs = build_stationarity(fp)
    Sigma_U = 0.002 * np.eye(10)
    U0 = sample_mean(ds)
    from ioc_eiv import kkt_single

    init = kkt_single(U0, fp, _norm())
    beta0 = np.concatenate([init.theta, init.lam_list[0]])
    # a sample-mean start sits off the stationarity manifold, so the first
    # inner call legitimately detours through the penalty ramp; its closing
    # projection is the equality-constrained solve checked here
    U, theta, lam, cost, path, trace = tls_inner(ds, fp, Sigma_U, _norm(), U0, beta0)
    assert path in ("exact", "penalty")
    assert np.max(np.abs(lam), initial=0.0) <= 1e-12
    M_beta = sum(t * M for t, M in zip(theta, bs.Mj))
    rhs_con = -(bs.E_theta @ theta + bs.J_lambda @ lam)
    D = ds.n_demos
    Si = np.linalg.inv(Sigma_U)
    kkt = np.block([[2.0 * D * Si, M_beta.T], [M_beta, np.zeros((10, 10))]])
    rhs = np.concatenate([2.0 * Si @ np.sum(ds.stacked(), axis=0), rhs_con])
    U_oracle = np.linalg.solve(kkt, rhs)[:10]
    np.testing.assert_allclose(U, U_oracle, atol=1e-8)


def test_single_demo_euclidean_projection():
    fp, sol, ds = _far_cap_demos(8.0, 4, 1)
    bs = build_stationarity(fp)
    from ioc_eiv import kkt_single

    init = kkt_single(ds.U_list[0], fp, _norm())
    beta0 = np.concatenate([init.theta, init.lam_list[0]])
    U, theta, lam, cost, path, trace = tls_inner(
        ds, fp, np.eye(10), _norm(), ds.U_list[0], beta0
    )
    M_beta = sum(t * M for t, M in zip(theta, bs.Mj))
    rhs = -(bs.E_theta @ theta + bs.J_lambda @ lam)
    # Euclidean projection of the lone demo onto {U : M_beta U = rhs}
    kkt = np.block([[2.0 * np.eye(10), M_beta.T], [M_beta, np.zeros((10, 10))]])
    U_oracle = np.linalg.solve(kkt, np.concatenate([2.0 * ds.U_list[0], rhs]))[:10]
    np.testing.assert_allclose(U, U_oracle, atol=1e-8)


def test_hard_stationarity_and_feasibility_at_output():
    fp, sol, ds = _benchmark_demos(10.0, 5, 8, kind="uniform")
    res = tls_estimate(ds, fp, _norm())
    bs = build_stationarity(fp)
    beta = np.concatenate([res.theta, res.lam])
    s = (
        sum(t * (M @ res.U_hat) for t, M in zip(res.theta, bs.Mj))
        + bs.E_theta @ res.theta
        + bs.J_lambda @ res.lam
    )
    assert np.max(np.abs(s)) <= 1e-8
    g = constraint_values(fp, res.U_hat)
    assert np.max(g) <= 1e-8
    assert np.min(res.lam) >= -1e-10
    assert np.max(np.abs(res.lam * g)) <= 1e-8


def test_residuals_reconstruct_demos_exactly():
    fp, sol, ds = _benchmark_demos(10.0, 6, 5)
    res = tls_estimate(ds, fp, _norm())
    for U_d, r_d in zip(ds.U_list, res.residuals):
        # the residual is the demo correction by construction; undoing it
        # reproduces the estimate up to one rounding of the subtraction
        np.testing.assert_array_equal(r_d, U_d - res.U_hat)
        np.testing.assert_allclose(U_d - r_d, res.U_hat, rtol=0, atol=1e-15)
    # the correction objective evaluated from residuals equals the demo
    # term evaluated from the estimate
    Si = np.linalg.inv(res.Sigma_U_hat)
    from_residuals = sum(float(r @ Si @ r) for r in res.residuals)
    from_estimate = sum(
        float((res.U_hat - U_d) @ Si @ (res.U_hat - U_d)) for U_d in ds.U_list
    )
    assert np.isclose(from_residuals, from_estimate, rtol=1e-12)


def test_inner_merit_monotone_within_phases():
    fp, sol, ds = _benchmark_demos(15.0, 7, 6)
    res = tls_estimate(ds, fp, _norm())
    assert len(res.inner_traces) >= 1
    for steps in res.inner_traces:
        for label, group in itertools.groupby(steps, key=lambda t: t[0]):
            merits = [m for _, m in group]
            for a, b in zip(merits, merits[1:]):
                assert b <= a + 1e-12 * (1.0 + abs(a))


def test_outer_deltas_shrink_to_tolerance():
    fp, sol, ds = _benchmark_demos(10.0, 8, 6)
    res = tls_estimate(ds, fp, _norm())
    deltas = [d for _, d in res.outer_trace if np.isfinite(d)]
    assert deltas[-1] <= SIGMA_TOL or len(res.outer_trace) == MAX_OUTER_ITERS


def test_estimate_is_deterministic():
    fp, sol, ds = _benchmark_demos(10.0, 9, 5)
    a = tls_estimate(ds, fp, _norm())
    b = tls_estimate(ds, fp, _norm())
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.U_hat, b.U_hat)


def test_positivity_surrogate_beats_sample_mean():
    fp, theta = _positivity_problem()
    sol = solve_forward(fp, theta)
    sig = float(noise_scale_from_percent(sol.U, 10.0)[0])
    norm = NormalizationRule("sum", value=float(np.sum(theta)))
    wins = []
    for seed in range(10):
        spec = NoiseSpec.truncated_gaussian(
            np.array([[sig**2]]),
            lower=np.array([0.0]),
            upper=np.array([0.6]),
            seed=800 + seed,
        )
        ds = generate(sol.U, spec, 10, fp)
        res = tls_estimate(ds, fp, norm)
        wins.append(rmse(res.U_hat, sol.U) < rmse(sample_mean(ds), sol.U))
    assert sum(wins) > 5


@pytest.fixture(scope="module")
def retry_fit():
    """TLS on spring_damper at N = 25, where the outer loop feeds back.

    Returns the result and the path of each inner call.  At the shipped
    N = 10 every estimate makes two inner calls; here the first ones end
    ``penalty_unprojected``, the refit covariance moves, and the loop
    retries until a call projects.
    """
    fp = oracles.spring_damper(horizon=25)
    U_star = solve_forward(fp, oracles.SPRING_THETA).U
    scale = noise_scale_from_percent(U_star, 10.0, fp.system.m)
    ds = generate(U_star, NoiseSpec.gaussian(np.diag(scale**2), seed=20260819), 10, fp)
    paths = []

    def spy(*args, **kwargs):
        out = tls_inner(*args, **kwargs)
        paths.append(out[4])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tls_estimator, "tls_inner", spy)
        res = tls_estimate(ds, fp, _norm())
    return fp, res, paths


def test_outer_retry_after_unprojected_calls_ends_hard_stationary(retry_fit):
    fp, res, paths = retry_fit
    assert len(paths) >= 3
    assert paths[0] == "penalty_unprojected"
    assert paths[-2:] == ["penalty", "exact"]
    assert res.path == "exact"
    s = build_stationarity(fp).stationarity(res.U_hat, res.theta, res.lam)
    assert np.max(np.abs(s)) <= 1e-8
    g = constraint_values(fp, res.U_hat)
    assert np.max(g) <= 1e-8
    assert np.min(res.lam) >= -1e-10
    assert np.max(np.abs(res.lam * g)) <= 1e-8


@pytest.mark.xfail(strict=True, reason="the retry path ends at a corner where theta_3 = 0")
def test_outer_retry_keeps_every_weight_positive(retry_fit):
    _, res, _ = retry_fit
    assert float(res.theta.min()) > 1e-9 * float(np.sum(np.abs(res.theta)))
