"""Total-least-squares estimation at the per-step noise covariance."""

import hashlib
import itertools
import json

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    DemoSet,
    ForwardProblem,
    LinearSystem,
    NoiseSpec,
    NormalizationRule,
    PolytopicConstraints,
    QuadraticFeature,
    default_priors,
    generate,
    kkt_ls,
    kkt_single,
    noise_scale_from_percent,
    rescale_to_l1,
    rmse,
    sample_mean,
    solve_forward,
    tls_estimate,
    tls_inner,
)
from ioc_eiv import bench_cli, forward, kkt_baseline, map_estimator, model, tls_estimator
from ioc_eiv.model import build_stationarity, constraint_values, kkt_residual


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
    np.testing.assert_array_equal(res.Sigma_u, np.eye(1))
    assert res.path == "exact"


def test_covariance_is_pooled_per_step_scatter_with_relative_ridge():
    fp, theta = oracles.random_instance(np.random.default_rng(0))
    m = fp.system.m
    assert m == 2
    U_star = solve_forward(fp, theta).U
    spec = NoiseSpec.gaussian(np.array([[0.04, 0.01], [0.01, 0.09]]), seed=31)
    norm = NormalizationRule("sum", value=float(np.sum(theta)))
    ds = generate(U_star, spec, 5, fp)
    res = tls_estimate(ds, fp, norm)
    Sigma_u = oracles.per_step_covariance(ds.U_list, m)
    Sigma_u += tls_estimator.RIDGE * np.trace(Sigma_u) / m * np.eye(m)
    np.testing.assert_allclose(res.Sigma_u, Sigma_u, rtol=1e-12, atol=0.0)
    one = generate(U_star, spec, 1, fp)
    np.testing.assert_array_equal(tls_estimate(one, fp, norm).Sigma_u, np.eye(m))


def _scaled_problem(fp, s):
    """``fp`` in input units ``s`` times larger: x0, feature targets and h scaled."""
    con = fp.constraints
    feats = tuple(QuadraticFeature(f.kind, f.index, s * f.target) for f in fp.features)
    return ForwardProblem(fp.system, feats, PolytopicConstraints(con.Hx, con.Hu, s * con.h),
                          fp.horizon, s * fp.x0)


def _shipped_tasks(config, reps):
    """``(fp, norm, demo sets)`` of the bench tasks of ``config``: every
    shipped level, repetitions ``0..reps-1``."""
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    fp = bench_cli.parse_problem(cfg["problem"])
    norm = bench_cli._parse_norm(cfg, fp)
    U_star = solve_forward(fp, fp.theta_true).U
    tasks = [
        generate(U_star, bench_cli._noise_spec(cfg["noise"], U_star, fp.system.m, float(level),
                                               cfg["seed"] + rep), cfg["n_demos"], fp)
        for level in cfg["noise"]["percent_levels"] for rep in range(reps)
    ]
    return fp, norm, tasks


def _assert_unit_free(config, fit):
    """``fit(ds, fp, norm).theta`` moves by at most 1e-6 of its sum when the
    bench demos of ``config`` (3 repetitions per level) and the problem are
    given in input units 1e-6, 1e-3 and 1e3 times larger."""
    fp, norm, tasks = _shipped_tasks(config, 3)
    for i, ds in enumerate(tasks):
        theta = fit(ds, fp, norm).theta
        for s in (1e-6, 1e-3, 1e3):
            scaled = DemoSet(U_list=tuple(s * U for U in ds.U_list),
                             fp_ref=_scaled_problem(fp, s))
            theta_s = fit(scaled, scaled.fp_ref, norm).theta
            assert np.max(np.abs(theta_s - theta)) <= 1e-6 * np.sum(theta), (i, s)


@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_estimate_does_not_depend_on_units(config):
    _assert_unit_free(config, tls_estimate)


# kkt_ls decides which rows of each demo are active with the absolute
# model.DEMO_ACTIVE_TOL, so its theta moves with the input units (by up to
# 0.43 of its sum at 1e-6), and at 1e-6 some of its QPs overflow and raise
# ValueError; making the activity test scale-free removes this marker
@pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                   reason="kkt_ls's activity tolerance is absolute")
@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_kkt_baseline_does_not_depend_on_units(config):
    _assert_unit_free(config, kkt_ls)


def test_path_tests_the_floor_relative_to_the_normalisation_value():
    # the 30 shipped tls_positivity tasks with norm.value 1e-8 times the
    # shipped one: every fit's smallest weight sits near 0.2 of the value,
    # far above the floor, and an absolute test read all 30 as "floor"
    fp, norm, tasks = _shipped_tasks("tls_positivity", 10)
    small = NormalizationRule(norm.kind, 1e-8 * norm.value, norm.index)
    for ds in tasks:
        res = tls_estimate(ds, fp, small)
        assert res.theta.min() > 0.1 * small.value
        assert res.path == "exact"


# held_rows keeps a row whose multiplier exceeds the absolute
# model.ITERATE_ACTIVE_TOL, but multipliers scale with theta, so below
# norm.value x 1e-6 the sensitivity drops held rows and TLS's theta/value
# moves (by 0.14 on spring_damper and 0.085 on tls_positivity at 1e-8);
# scaling that threshold with norm.value removes this marker
_HELD_ROWS_ABSOLUTE = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="held_rows' multiplier threshold is absolute")


@pytest.mark.parametrize("method,scale", [
    ("kkt", 1e-2), ("kkt", 1e2), ("kkt", 1e-8), ("tls", 1e-2), ("tls", 1e2),
    pytest.param("tls", 1e-8, marks=_HELD_ROWS_ABSOLUTE),
])
@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_weights_are_equivariant_in_the_normalisation_value(config, method, scale):
    # theta / norm.value does not depend on norm.value, on the shipped
    # levels, repetitions 0-2
    fit = {"kkt": kkt_ls, "tls": tls_estimate}[method]
    fp, norm, tasks = _shipped_tasks(config, 3)
    scaled = NormalizationRule(norm.kind, scale * norm.value, norm.index)
    for ds in tasks:
        theta = fit(ds, fp, norm).theta / norm.value
        theta_s = fit(ds, fp, scaled).theta / scaled.value
        assert np.max(np.abs(theta_s - theta)) <= 1e-12


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
    Sigma_u = np.array([[0.002]])
    U0 = sample_mean(ds)
    init = kkt_single(U0, fp, _norm())
    # the inner fit ends at the forward optimum of its weights, which with
    # every multiplier at zero is the equality-constrained solve checked here
    U, theta, lam, cost, path, trace = tls_inner(ds, fp, Sigma_u, _norm(), init.theta)
    assert path == "exact"
    assert np.max(np.abs(lam), initial=0.0) <= 1e-12
    M_beta = sum(t * M for t, M in zip(theta, bs.Mj))
    rhs_con = -(bs.E_theta @ theta + bs.J_lambda @ lam)
    D = ds.n_demos
    Si = np.eye(10) / 0.002
    kkt = np.block([[2.0 * D * Si, M_beta.T], [M_beta, np.zeros((10, 10))]])
    rhs = np.concatenate([2.0 * Si @ np.sum(np.vstack(ds.U_list), axis=0), rhs_con])
    U_oracle = np.linalg.solve(kkt, rhs)[:10]
    np.testing.assert_allclose(U, U_oracle, atol=1e-8)


def test_single_demo_euclidean_projection():
    fp, sol, ds = _far_cap_demos(8.0, 4, 1)
    bs = build_stationarity(fp)
    init = kkt_single(ds.U_list[0], fp, _norm())
    U, theta, lam, cost, path, trace = tls_inner(ds, fp, np.eye(1), _norm(), init.theta)
    M_beta = sum(t * M for t, M in zip(theta, bs.Mj))
    rhs = -(bs.E_theta @ theta + bs.J_lambda @ lam)
    # Euclidean projection of the lone demo onto {U : M_beta U = rhs}
    kkt = np.block([[2.0 * np.eye(10), M_beta.T], [M_beta, np.zeros((10, 10))]])
    U_oracle = np.linalg.solve(kkt, np.concatenate([2.0 * ds.U_list[0], rhs]))[:10]
    np.testing.assert_allclose(U, U_oracle, atol=1e-8)


def _assert_forward_optimum(fp, res):
    """The TLS invariant: U_hat is the forward optimum of theta, bit for bit."""
    assert res.U_hat.tobytes() == solve_forward(fp, res.theta).U.tobytes()
    assert kkt_residual(fp, res.theta, res.lam, res.U_hat).max_abs() <= 1e-6


def test_sensitivity_matches_central_differences_of_forward_solve():
    fp, theta = _positivity_problem()
    bs = build_stationarity(fp)
    sol = solve_forward(fp, theta)
    assert bs.held_rows(sol.lam).any()  # u >= 0 holds at least one row
    G = tls_estimator._sensitivity(bs, theta, sol)
    h = 1e-6
    for j in range(fp.q):
        e = h * np.eye(fp.q)[j]
        fd = (solve_forward(fp, theta + e).U - solve_forward(fp, theta - e).U) / (2 * h)
        np.testing.assert_allclose(G[:, j], fd, rtol=0, atol=1e-7)


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


def test_attained_cost_is_the_demo_correction_cost():
    # the last merit of the fit is its TLS cost: the demo corrections
    # U_d - U_hat in the metric (I_N kron Sigma_u)^{-1}
    fp, sol, ds = _benchmark_demos(10.0, 6, 5)
    res = tls_estimate(ds, fp, _norm())
    Si = np.linalg.inv(np.kron(np.eye(fp.horizon), res.Sigma_u))
    corrections = [U_d - res.U_hat for U_d in ds.U_list]
    from_corrections = sum(float(r @ Si @ r) for r in corrections)
    assert np.isclose(res.inner_traces[-1][-1][1], from_corrections, rtol=1e-10)


def test_fit_makes_no_rollout(monkeypatch):
    # every evaluation is one forward.solve, which reads U from the QP and
    # rolls nothing out
    with open("configs/tls_positivity.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    fp = bench_cli.parse_problem(cfg["problem"])
    U_star = solve_forward(fp, fp.theta_true).U
    spec = bench_cli._noise_spec(cfg["noise"], U_star, fp.system.m, 10.0, cfg["seed"])
    ds = generate(U_star, spec, cfg["n_demos"], fp)
    rollout, calls = model.rollout, []

    def spy(*args):
        calls.append(args)
        return rollout(*args)

    monkeypatch.setattr(model, "rollout", spy)
    tls_estimate(ds, fp, bench_cli._parse_norm(cfg, fp))
    assert calls == []


def test_fits_under_equal_rules_pose_every_qp_on_rows_prepared_once(monkeypatch):
    # the forward QPs read the problem's rows; the cone QPs of TLS (the
    # projection and every step), of its kkt start and of MAP's beta-step
    # read the cone that beta_rows keeps per rule value and size, so fits
    # under rules built apart share one QpRows, checked and reduced once
    def rows_posed_through(module):
        solve_qp, seen = module.solve_qp, []

        def spy(qp, face=None):
            seen.append(qp.rows)
            return solve_qp(qp, face=face)

        monkeypatch.setattr(module, "solve_qp", spy)
        return seen

    forward_rows, cones = rows_posed_through(forward), rows_posed_through(tls_estimator)
    kkt_cones, beta_cones = rows_posed_through(kkt_baseline), rows_posed_through(map_estimator)
    fp, sol, ds = _benchmark_demos(10.0, 3, 5)
    bs = build_stationarity(fp)
    for _ in range(2):  # two fits, each under its own rule
        tls_estimate(ds, fp, _norm())
        map_estimator._beta_step(bs, ds, default_priors(ds, fp, _norm()), sol.U, _norm())
    assert forward_rows and all(r is bs.forward_rows for r in forward_rows)
    assert len(cones) >= 4 and all(r is cones[0] for r in cones)
    # kkt_single starts TLS and kkt_ls sets MAP's priors: each round poses the same cones
    half = len(kkt_cones) // 2
    assert half >= 1 and all(a is b for a, b in zip(kkt_cones[:half], kkt_cones[half:]))
    assert len(beta_cones) == 2 and beta_cones[0] is beta_cones[1]


def test_inner_merit_monotone_within_phases():
    fp, sol, ds = _benchmark_demos(15.0, 7, 6)
    res = tls_estimate(ds, fp, _norm())
    assert len(res.inner_traces) >= 1
    for steps in res.inner_traces:
        for label, group in itertools.groupby(steps, key=lambda t: t[0]):
            merits = [m for _, m in group]
            for a, b in zip(merits, merits[1:]):
                assert b <= a + 1e-12 * (1.0 + abs(a))


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


def _median_theta_error(fp, theta, spec, D, seeds, fit):
    """Median rmse against ``theta`` of the weights ``fit(ds)``, over one set of
    ``D`` demos of ``fp`` at ``theta`` per seed."""
    U_star = solve_forward(fp, theta).U
    return float(np.median([rmse(fit(generate(U_star, spec.with_seed(s), D, fp)), theta)
                            for s in seeds]))


def test_tls_error_falls_like_a_consistent_estimator_and_kkt_does_not():
    # the paper's consistency claim: zero-mean noise drawn independently per
    # step; TLS's median error falls about like D^-1/2 (slope -0.61 over
    # 0.747/0.249/0.112/0.059), while the KKT baseline's errors-in-variables
    # bias does not average away (6.05 at D = 10, 6.34 at D = 160)
    fp, theta = oracles.spring_damper(), oracles.SPRING_THETA
    sig = noise_scale_from_percent(solve_forward(fp, theta).U, 10.0)
    spec = NoiseSpec.gaussian(np.diag(sig**2), seed=0)
    seeds = range(500, 510)
    Ds = (10, 40, 160, 640)
    tls = [_median_theta_error(fp, theta, spec, D, seeds,
                               lambda ds: tls_estimate(ds, fp, _norm()).theta) for D in Ds]
    slope = np.polyfit(np.log(Ds), np.log(tls), 1)[0]
    assert slope <= -0.35, tls
    kkt = [_median_theta_error(fp, theta, spec, D, seeds,
                               lambda ds: kkt_ls(ds, fp, _norm()).theta) for D in (10, 160)]
    assert kkt[1] >= 0.9 * kkt[0], kkt


def test_per_step_covariance_weighting_matters_with_two_unequal_inputs():
    # with one input channel W = Sigma_u^{-1} is a scalar and cannot move
    # theta; on this two-input spring-damper, whose second channel is 10x
    # noisier, weighting by the estimated Sigma_u beats the unweighted fit
    # (0.151 against 0.536 at D = 10, 0.023 against 0.075 at D = 160)
    B = np.array([[0.0099, 0.0], [0.0988, 0.05]])
    feats = (QuadraticFeature("state", 0, 3.0), QuadraticFeature("state", 1, 0.0),
             QuadraticFeature("input", 0, 0.0), QuadraticFeature("input", 1, 0.0))
    con = PolytopicConstraints(np.zeros((2, 2)), np.eye(2), np.array([0.7, 0.7]))
    fp = ForwardProblem(LinearSystem(oracles.SPRING_A, B), feats, con, 10, np.array([1.0, 0.1]))
    theta = np.array([10.0, 5.0, 7.0, 3.0])
    norm = NormalizationRule("sum", value=float(np.sum(theta)))
    spec = NoiseSpec.gaussian(np.diag([0.01, 0.1]) ** 2, seed=0)

    def unweighted(ds):  # from tls_estimate's start, at Sigma_u = I
        return tls_inner(ds, fp, np.eye(2), norm, kkt_single(ds.mean, fp, norm).theta)[1]

    for D in (10, 160):
        weighted = _median_theta_error(fp, theta, spec, D, range(1000, 1010),
                                       lambda ds: tls_estimate(ds, fp, norm).theta)
        plain = _median_theta_error(fp, theta, spec, D, range(1000, 1010), unweighted)
        assert weighted <= 0.5 * plain, (D, weighted, plain)


@pytest.fixture(scope="module")
def retry_fit():
    """TLS on spring_damper at N = 25, where an alternating projection
    used to end at a corner with theta_3 = 0.

    Returns the problem, the demos and the result.
    """
    fp = oracles.spring_damper(horizon=25)
    U_star = solve_forward(fp, oracles.SPRING_THETA).U
    scale = noise_scale_from_percent(U_star, 10.0, fp.system.m)
    ds = generate(U_star, NoiseSpec.gaussian(np.diag(scale**2), seed=20260819), 10, fp)
    return fp, ds, tls_estimate(ds, fp, _norm())


def test_outer_retry_after_unprojected_calls_ends_hard_stationary(retry_fit):
    fp, _, res = retry_fit
    _assert_forward_optimum(fp, res)
    s = build_stationarity(fp).stationarity(res.U_hat, res.theta, res.lam)
    assert np.max(np.abs(s)) <= 1e-8
    g = constraint_values(fp, res.U_hat)
    assert np.max(g) <= 1e-8
    assert np.min(res.lam) >= -1e-10
    assert np.max(np.abs(res.lam * g)) <= 1e-8


def test_outer_retry_keeps_every_weight_positive(retry_fit):
    _, _, res = retry_fit
    assert float(res.theta.min()) > 1e-9 * float(np.sum(np.abs(res.theta)))


def _result_digest(res, ds):
    """sha256 over every field of a TlsResult, inner merit traces included,
    and the demo corrections ``U_d - U_hat``."""
    h = hashlib.sha256()
    corrections = [U_d - res.U_hat for U_d in ds.U_list]
    for a in (res.theta, res.lam, res.U_hat, res.Sigma_u, *corrections):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(res.path.encode())
    for steps in res.inner_traces:
        h.update(b"|")
        for label, merit in steps:
            h.update(label.encode())
            h.update(np.float64(merit).tobytes())
    return h.hexdigest()


# sha256 of full TLS results (theta, lam, U_hat, Sigma_u, the demo
# corrections, path and every merit value of the inner trace) on bench
# demos of both shipped configs at each shipped level, and on the N = 25
# retry fit above.
# The estimate JSON pins leave out the inner trace, so these catch a change
# that reorders a merit sum.  Recorded with the Gauss-Newton fit in theta
# at the per-step covariance, and re-recorded when the merit became
# D |U - Ubar|^2_W + tr(W S) in the demos' mean and scatter (a rounding-level
# move).  tls_positivity and retry moved again, by rounding, when the face
# and sensitivity systems left numpy.linalg.solve for scipy's LAPACK dgesv;
# like the other golden pins they depend on the numpy and scipy builds.
# All three moved when the result carried the m x m Sigma_u in place of
# I_N kron Sigma_u and the merit's trace term became tr(W sum_k S_kk):
# theta, lam and U_hat stayed bit for bit, the merits moved by rounding.
GOLDEN_TLS_SHA256 = {
    "spring_damper": "9076a778a59aed2c47b20f9af98ddf55b62e4186ed58de4b7fe7a1f41b974eda",
    "tls_positivity": "6feca8db281a61ee0dc1a6f116bca2c5abfc6bdaafd043188da66ace1605f55b",
    "retry": "fc4f395c5a47a22a293f8e4dc4249b154aa5d05899660aad005e8dcd006bf759",
}


@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_estimate_outputs_are_bit_identical_to_golden(config):
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    fp = bench_cli.parse_problem(cfg["problem"])
    norm = bench_cli._parse_norm(cfg, fp)
    U_star = solve_forward(fp, fp.theta_true).U
    digests = []
    for i, level in enumerate(cfg["noise"]["percent_levels"]):
        spec = bench_cli._noise_spec(cfg["noise"], U_star, fp.system.m, float(level),
                                     cfg["seed"] + i)
        ds = generate(U_star, spec, cfg["n_demos"], fp)
        res = tls_estimate(ds, fp, norm)
        _assert_forward_optimum(fp, res)
        digests.append(_result_digest(res, ds))
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert digest == GOLDEN_TLS_SHA256[config]


def test_retry_fit_is_bit_identical_to_golden(retry_fit):
    _, ds, res = retry_fit
    assert _result_digest(res, ds) == GOLDEN_TLS_SHA256["retry"]


@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_warm_started_fits_match_a_cold_start_oracle_in_fewer_iterations(monkeypatch, config):
    # the 30 shipped bench tasks (3 levels x 10 repetitions): each
    # backtracking trial's forward solve starts from the current solution;
    # the oracle drops that start
    fp, norm, tasks = _shipped_tasks(config, 10)
    assert len(tasks) == 30
    iters = []
    solve_qp = forward.solve_qp

    def counting(qp, face=None):
        sol = solve_qp(qp, face=face)
        iters.append(sol.n_iter)
        return sol

    monkeypatch.setattr(forward, "solve_qp", counting)
    warm = [_result_digest(tls_estimate(ds, fp, norm), ds) for ds in tasks]
    warm_iters, iters[:] = sum(iters), []
    cold_solve = forward.solve
    monkeypatch.setattr(tls_estimator, "forward_solve",
                        lambda fp, theta, start=None: cold_solve(fp, theta))
    cold = [_result_digest(tls_estimate(ds, fp, norm), ds) for ds in tasks]
    assert warm == cold
    # spring_damper's cold solves already end on their first face try, so
    # the start saves iterations only on tls_positivity
    if config == "spring_damper":
        assert warm_iters <= sum(iters)
    else:
        assert warm_iters < sum(iters)
