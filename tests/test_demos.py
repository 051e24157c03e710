"""Demonstration generation, noise scaling, and the small statistics helpers."""

import json
from math import erf, sqrt

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    NoiseSpec,
    bench_cli,
    demos,
    generate,
    noise_scale_from_percent,
    rmse,
    sample_mean,
    solve_forward,
)
from ioc_eiv.demos import noise_cov


def _benchmark_setup():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    return fp, sol.U


def test_zero_covariance_reproduces_optimum():
    fp, U_star = _benchmark_setup()
    ds = generate(U_star, NoiseSpec.gaussian(np.zeros((1, 1)), seed=1), 5, fp)
    for U_d in ds.U_list:
        np.testing.assert_array_equal(U_d, U_star)


def test_gaussian_sample_moments():
    fp, U_star = _benchmark_setup()
    sigma = 0.3
    D = 10_000
    ds = generate(U_star, NoiseSpec.gaussian(np.array([[sigma**2]]), seed=2), D, fp)
    stacked = np.vstack(ds.U_list)
    mean_err = np.linalg.norm(stacked.mean(axis=0) - U_star)
    assert mean_err <= 4.0 * sigma * np.sqrt(10.0 / D)
    var = stacked.var(axis=0, ddof=1)
    assert np.all(np.abs(var - sigma**2) <= 0.05 * sigma**2)


def test_same_seed_identical_demos():
    fp, U_star = _benchmark_setup()
    spec = NoiseSpec.gaussian(np.array([[0.04]]), seed=3)
    a = generate(U_star, spec, 6, fp)
    b = generate(U_star, spec, 6, fp)
    for x, y in zip(a.U_list, b.U_list):
        np.testing.assert_array_equal(x, y)


def test_demo_substreams_independent_of_count():
    # demo d depends only on (seed, d), so a prefix of a larger set matches
    fp, U_star = _benchmark_setup()
    spec = NoiseSpec.gaussian(np.array([[0.04]]), seed=4)
    small = generate(U_star, spec, 3, fp)
    large = generate(U_star, spec, 8, fp)
    for x, y in zip(small.U_list, large.U_list[:3]):
        np.testing.assert_array_equal(x, y)


def test_uniform_noise_zero_mean_and_bounded():
    fp, U_star = _benchmark_setup()
    hw = 0.25
    D = 10_000
    ds = generate(U_star, NoiseSpec.uniform(np.array([hw]), seed=5), D, fp)
    noise = np.vstack(ds.U_list) - U_star
    assert np.max(np.abs(noise)) <= hw
    se = hw / np.sqrt(3.0 * D)
    assert np.all(np.abs(noise.mean(axis=0)) <= 5.0 * se)
    assert np.all(np.abs(noise.var(axis=0) - hw**2 / 3.0) <= 0.08 * hw**2 / 3.0)


def test_truncated_noise_respects_bounds_and_biases():
    fp, U_star = _benchmark_setup()
    lower, upper = 0.0, 1.2
    spec = NoiseSpec.truncated_gaussian(
        np.array([[0.09]]), lower=np.array([lower]), upper=np.array([upper]), seed=6
    )
    ds = generate(U_star, spec, 2000, fp)
    stacked = np.vstack(ds.U_list)
    assert np.min(stacked) >= lower and np.max(stacked) <= upper
    # the last optimal input is 0, so the one-sided clip shifts its mean up
    assert stacked[:, 9].mean() > 0.05


def test_invalid_covariance_rejected():
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(np.array([[-1.0]]), seed=7)
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(np.array([[1.0, 0.5], [0.4, 1.0]]), seed=7)
    with pytest.raises(ValueError):
        NoiseSpec.truncated_gaussian(
            np.array([[1.0]]), lower=np.array([1.0]), upper=np.array([0.0]), seed=7
        )


def test_noise_scale_from_percent_values():
    np.testing.assert_allclose(noise_scale_from_percent(np.ones(10), 10.0), [0.1])
    _, U_star = _benchmark_setup()
    scales = [float(noise_scale_from_percent(U_star, pct)[0]) for pct in (5, 10, 20)]
    u_m = np.mean(U_star)
    np.testing.assert_allclose(scales, [0.05 * u_m, 0.10 * u_m, 0.20 * u_m])
    assert scales[0] < scales[1] < scales[2]


def test_noise_scale_rejects_nonpositive_percent():
    with pytest.raises(ValueError):
        noise_scale_from_percent(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        noise_scale_from_percent(np.ones(4), -5.0)


@pytest.mark.parametrize("pct", [np.nan, np.inf])
def test_noise_scale_rejects_a_non_finite_percent(pct):
    # NaN used to pass the pct <= 0 test and give NaN demonstrations
    with pytest.raises(ValueError, match="positive and finite"):
        noise_scale_from_percent(np.ones(4), pct)


def test_noise_scale_uses_signed_channel_means():
    # channel 1 alternates around zero: signed mean is 0, so scale is 0
    U = np.array([1.0, 1.0, 1.0, -1.0])
    np.testing.assert_allclose(noise_scale_from_percent(U, 10.0, m=2), [0.1, 0.0])


def test_stacked_covariance_matches_kind():
    # the per-step covariance: halfwidth^2 / 3 per channel for uniform noise
    spec = NoiseSpec.uniform(np.array([0.3]), seed=8)
    np.testing.assert_allclose(noise_cov(spec, 1), [[0.03]])
    np.testing.assert_allclose(noise_cov(spec, 2), np.eye(2) * 0.03)
    spec_u = NoiseSpec.uniform(np.array([0.3, 0.6]), seed=8)
    np.testing.assert_allclose(noise_cov(spec_u, 2), np.diag([0.03, 0.12]))
    sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
    spec_g = NoiseSpec.gaussian(sigma, seed=8)
    np.testing.assert_array_equal(noise_cov(spec_g, 2), sigma)
    spec_t = NoiseSpec.truncated_gaussian(sigma, lower=-1.0, upper=1.0, seed=8)
    np.testing.assert_array_equal(noise_cov(spec_t, 2), sigma)


def test_sample_mean_small_cases():
    fp, U_star = _benchmark_setup()
    one = generate(U_star, NoiseSpec.gaussian(np.array([[0.01]]), seed=9), 1, fp)
    np.testing.assert_array_equal(sample_mean(one), one.U_list[0])
    from ioc_eiv.demos import DemoSet

    two = DemoSet(
        U_list=(np.zeros(10), 2.0 * np.ones(10)), fp_ref=fp, U_star=U_star
    )
    np.testing.assert_allclose(sample_mean(two), np.ones(10))
    many = generate(U_star, NoiseSpec.gaussian(np.array([[0.01]]), seed=10), 7, fp)
    acc = np.zeros(10)
    for U_d in many.U_list:
        acc += U_d
    np.testing.assert_allclose(sample_mean(many), acc / 7.0, rtol=1e-12)


def test_rmse_definition():
    assert rmse(np.ones(5), np.ones(5)) == 0.0
    assert rmse(np.array([1.0, 1.0]), np.zeros(2)) == 1.0
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(9), rng.standard_normal(9)
    loop = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / 9.0)
    assert np.isclose(rmse(a, b), loop, rtol=1e-12)
    with pytest.raises(ValueError):
        rmse(np.ones(3), np.ones(4))


def test_mean_and_scatter_are_read_only_and_equal_their_oracle():
    fp, U_star = _benchmark_setup()
    ds = generate(U_star, NoiseSpec.gaussian(np.array([[0.04]]), seed=12), 5, fp)
    stacked = np.vstack(ds.U_list)
    assert ds.mean.tobytes() == stacked.mean(axis=0).tobytes()
    want = oracles.demo_scatter(ds.U_list, stacked.mean(axis=0))
    np.testing.assert_allclose(ds.scatter, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    assert np.array_equal(ds.scatter, ds.scatter.T)
    assert sample_mean(ds) is ds.mean
    # the statistics and the demos they were built from are all read-only
    for a in (ds.mean, ds.scatter, ds.U_list[0]):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(ValueError, match="at least one demo"):
        demos.DemoSet(U_list=(), fp_ref=fp)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_demo_set_refuses_a_demo_of_the_wrong_length_or_not_finite(bad):
    # a short demo used to build and fail inside numpy's matmul in kkt_ls,
    # and a NaN demo to surface as "H must not contain infs or NaNs"
    fp, U_star = _benchmark_setup()
    with pytest.raises(ValueError, match=r"demo 1 has shape \(9,\), expected"):
        demos.DemoSet(U_list=(U_star, U_star[:-1]), fp_ref=fp)
    with pytest.raises(ValueError, match=r"demo 0 has shape \(1, 10\)"):
        demos.DemoSet(U_list=(U_star[None, :],), fp_ref=fp)
    U_bad = U_star.copy()
    U_bad[3] = bad
    with pytest.raises(ValueError, match="demo 2 must be finite"):
        demos.DemoSet(U_list=(U_star, U_star, U_bad), fp_ref=fp)


def _assert_demos_equal(ds, expected):
    assert len(ds.U_list) == len(expected)
    for got, want in zip(ds.U_list, expected):
        assert got.tobytes() == want.tobytes()


def _shipped(config):
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    fp = bench_cli.parse_problem(cfg["problem"])
    return cfg, fp, solve_forward(fp, fp.theta_true).U


# the spring_damper optimum reaches 0.7, so its box is wider than the
# tls_positivity one, or the first two steps would clip after every try
_BOX = {"spring_damper": (0.0, 1.0), "tls_positivity": (0.0, 0.6)}


@pytest.mark.parametrize("kind", ["gaussian", "truncated_gaussian", "uniform"])
@pytest.mark.parametrize("config", ["spring_damper", "tls_positivity"])
def test_block_draw_is_byte_equal_to_the_per_try_oracle_on_shipped_configs(config, kind):
    cfg, fp, U_star = _shipped(config)
    lower, upper = _BOX[config]
    noise = {"kind": kind, "lower": lower, "upper": upper}
    for level in (5.0, 10.0, 20.0):
        for seed in range(30):
            spec = bench_cli._noise_spec(noise, U_star, fp.system.m, level, cfg["seed"] + seed)
            ds = generate(U_star, spec, cfg["n_demos"], fp)
            _assert_demos_equal(ds, oracles.per_try_demos(U_star, spec, cfg["n_demos"], fp))


def _two_input_setup():
    fp, theta = oracles.random_instance(np.random.default_rng(0))
    assert fp.system.m == 2
    return fp, solve_forward(fp, theta).U


def _two_input_specs(U_star, sigma, seed):
    lo, hi = U_star.min(), U_star.max()
    pad = 0.1 * (hi - lo)
    return (
        NoiseSpec.gaussian(sigma, seed),
        NoiseSpec.truncated_gaussian(sigma, lo - pad, hi + pad, seed),
        NoiseSpec.uniform(np.sqrt(3.0 * np.diag(sigma)), seed),
    )


def test_block_draw_is_byte_equal_to_the_oracle_for_two_inputs_and_diagonal_covariance():
    fp, U_star = _two_input_setup()
    for seed in range(30):
        for spec in _two_input_specs(U_star, np.diag([0.04, 0.09]), seed):
            _assert_demos_equal(generate(U_star, spec, 6, fp),
                                oracles.per_try_demos(U_star, spec, 6, fp))


def test_block_draw_matches_the_oracle_to_rounding_for_a_full_covariance():
    # each noise entry of a full covariance is a sum of m products, which
    # the block product (gemm) and the per-try product (gemv) may round
    # differently in the last bit
    fp, U_star = _two_input_setup()
    sigma = np.array([[0.04, 0.015], [0.015, 0.09]])
    for seed in range(30):
        for spec in _two_input_specs(U_star, sigma, seed)[:2]:
            ds = generate(U_star, spec, 6, fp)
            for got, want in zip(ds.U_list, oracles.per_try_demos(U_star, spec, 6, fp)):
                np.testing.assert_allclose(got - U_star, want - U_star, rtol=1e-14,
                                           atol=1e-14 * np.max(np.abs(want - U_star)))


def test_narrow_band_refills_blocks_within_a_step():
    # a band of +-0.05 sigma accepts about 4% of draws, so a step needs
    # about 25 tries and the first block of 4 N candidates runs out mid-step
    fp, _ = _benchmark_setup()
    U_star = np.full(10, 0.5)
    assert erf(0.05 / sqrt(2.0)) < 0.1
    for seed in range(30):
        spec = NoiseSpec.truncated_gaussian(np.array([[1.0]]), 0.45, 0.55, seed)
        ds = generate(U_star, spec, 5, fp)
        _assert_demos_equal(ds, oracles.per_try_demos(U_star, spec, 5, fp))
        stacked = np.vstack(ds.U_list)
        assert np.all((stacked >= 0.45) & (stacked <= 0.55))


@pytest.mark.parametrize("max_tries", [1, 5, 37])
def test_steps_out_of_tries_clip_and_later_steps_still_accept(monkeypatch, max_tries):
    # even steps sit 50 sigma above the box and can never enter it; odd
    # steps sit in its middle and accept about 90% of draws
    monkeypatch.setattr(demos, "_MAX_REJECTION_TRIES", max_tries)
    fp, _ = _benchmark_setup()
    U_star = np.tile([16.0, 0.5], 5)
    lower, upper = 0.0, 1.0
    accepted = 0
    for seed in range(10):
        spec = NoiseSpec.truncated_gaussian(np.array([[0.09]]), lower, upper, seed)
        ds = generate(U_star, spec, 5, fp)
        _assert_demos_equal(ds, oracles.per_try_demos(U_star, spec, 5, fp))
        stacked = np.vstack(ds.U_list)
        assert np.all(stacked[:, 0::2] == np.clip(U_star[0::2], lower, upper))
        odd = stacked[:, 1::2]
        assert np.all((odd >= lower) & (odd <= upper))
        accepted += int(np.sum(odd != 0.5))
    assert accepted > 0


def test_generate_refuses_a_spec_with_another_channel_count():
    fp, U_star = _benchmark_setup()
    two = np.eye(2) * 0.01
    for spec in (NoiseSpec.gaussian(two, seed=1),
                 NoiseSpec.truncated_gaussian(two, 0.0, 1.0, seed=1),
                 NoiseSpec.uniform([0.1, 0.1], seed=1)):
        with pytest.raises(ValueError, match=r"2, but the system has m = 1"):
            generate(U_star, spec, 2, fp)
    fp2, U2 = _two_input_setup()
    with pytest.raises(ValueError, match=r"length 3, but the system has m = 2"):
        generate(U2, NoiseSpec.uniform([0.1, 0.1, 0.1], seed=1), 2, fp2)
    # one halfwidth serves every channel
    assert generate(U2, NoiseSpec.uniform([0.1], seed=1), 2, fp2).n_demos == 2
    with pytest.raises(ValueError, match="unknown noise kind"):
        generate(U_star, NoiseSpec(kind="laplace", seed=1), 2, fp)


def test_with_seed_shares_the_checked_arrays_and_the_factor():
    fp, U_star = _benchmark_setup()
    sigma = np.diag([0.3, 0.2, 0.1][: fp.system.m]) ** 2
    spec = NoiseSpec.truncated_gaussian(sigma, -0.5, 0.5, seed=4)
    assert spec.sigma_u is not sigma and not spec.sigma_u.flags.writeable
    assert not spec.lower.flags.writeable and not spec.upper.flags.writeable
    F = spec.factor()
    assert spec.factor() is F and not F.flags.writeable
    np.testing.assert_array_equal(F, demos._cov_factor(sigma))
    other = spec.with_seed(9)
    assert (other.kind, other.seed) == ("truncated_gaussian", 9) and spec.seed == 4
    assert other.factor() is F and other.sigma_u is spec.sigma_u and other.lower is spec.lower
    fresh = NoiseSpec.truncated_gaussian(sigma, -0.5, 0.5, seed=9)
    for a, b in zip(generate(U_star, other, 6, fp).U_list, generate(U_star, fresh, 6, fp).U_list):
        assert a.tobytes() == b.tobytes()
    uniform = NoiseSpec.uniform([0.1], seed=1)
    assert uniform.factor() is None and uniform.with_seed(2).factor() is None
