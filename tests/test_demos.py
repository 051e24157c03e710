"""Demonstration generation, noise scaling, and the small statistics helpers."""

import numpy as np
import pytest

import oracles
from ioc_eiv import NoiseSpec, generate, noise_scale_from_percent, rmse, sample_mean, solve_forward
from ioc_eiv.demos import noise_cov_stacked


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
    stacked = ds.stacked()
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
    noise = ds.stacked() - U_star
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
    stacked = ds.stacked()
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
    spec = NoiseSpec.uniform(np.array([0.3]), seed=8)
    np.testing.assert_allclose(noise_cov_stacked(spec, 1, 4), np.eye(4) * 0.03)
    spec_g = NoiseSpec.gaussian(np.array([[0.04]]), seed=8)
    np.testing.assert_allclose(noise_cov_stacked(spec_g, 1, 3), np.eye(3) * 0.04)


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


def test_stacked_is_built_once_read_only_and_equal_to_vstack():
    fp, U_star = _benchmark_setup()
    ds = generate(U_star, NoiseSpec.gaussian(np.array([[0.04]]), seed=12), 5, fp)
    first = ds.stacked()
    assert ds.stacked() is first
    assert np.array_equal(first, np.vstack(ds.U_list))
    assert first.shape == (5, 10)
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    # the demos themselves are read-only too, so the cache cannot go stale
    with pytest.raises(ValueError):
        ds.U_list[0][0] = 1.0


def test_demo_sum_is_built_once_read_only_and_equal_to_the_stacked_sum():
    fp, U_star = _benchmark_setup()
    ds = generate(U_star, NoiseSpec.gaussian(np.array([[0.04]]), seed=13), 4, fp)
    first = ds.demo_sum()
    assert ds.demo_sum() is first
    assert first.tobytes() == ds.stacked().sum(axis=0).tobytes()
    with pytest.raises(ValueError):
        first[0] = 1.0
