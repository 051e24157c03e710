"""Every reader of the demo statistics (D, Ubar, S) against its residual-form oracle."""

import itertools

import numpy as np
import pytest

import oracles
from ioc_eiv import NoiseSpec, NormalizationRule, Priors, generate, solve_forward, tls_estimator
from ioc_eiv.map_estimator import map_cost
from ioc_eiv.mcmc import _u_information, default_priors, full_conditional_SigmaU
from ioc_eiv.model import build_stationarity

CASES = pytest.mark.parametrize("m,D", list(itertools.product((1, 2), (1, 2, 10))))


def _demos(m, D):
    """``D`` gaussian demos of a one-input (spring-damper) or two-input problem."""
    if m == 1:
        fp, theta = oracles.spring_damper(), oracles.SPRING_THETA
        sigma = np.array([[0.04]])
    else:
        fp, theta = oracles.random_instance(np.random.default_rng(0))
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
    assert fp.system.m == m
    U_star = solve_forward(fp, theta).U
    ds = generate(U_star, NoiseSpec.gaussian(sigma, seed=17 + D), D, fp)
    return fp, theta, U_star, ds


def _spd(rng, n, scale):
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T / n + np.eye(n))


def _priors(bs, U0, W_U):
    """Priors centred on ``U0`` and on ``beta = 0``, with unit precisions."""
    mN, nb = bs.n_inputs, bs.n_features + bs.n_multipliers
    return Priors(U0=U0, Sigma_U0=np.eye(mN), beta0=np.zeros(nb), Sigma_beta=np.eye(nb),
                  W_U=W_U, m_U=mN + 2, Sigma_Y=np.eye(mN))


def _assert_close(got, want):
    """Equal to 1e-12 of the largest entry of ``want``."""
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@CASES
def test_map_cost_demo_term_matches_its_oracle(m, D):
    # at beta = 0 = beta0 and U = U0 only the demo term is left
    fp, _, U_star, ds = _demos(m, D)
    rng = np.random.default_rng(m * D)
    bs = build_stationarity(fp)
    U = U_star + 0.1 * rng.standard_normal(U_star.shape[0])
    Sigma_U = _spd(rng, U.shape[0], 0.01)
    beta = np.zeros(bs.n_features + bs.n_multipliers)
    got = map_cost(U, beta, Sigma_U, ds, _priors(bs, U, np.eye(U.shape[0])), bs)
    _assert_close(got, oracles.demo_term(ds.U_list, U, np.linalg.inv(Sigma_U)))


@CASES
def test_tls_cost_matches_its_oracle(m, D):
    # the oracle weighs every step's residual by the same Sigma_u^{-1}
    fp, theta, _, ds = _demos(m, D)
    Sigma_u = _spd(np.random.default_rng(m * D), m, 0.01)
    norm = NormalizationRule("sum", float(np.sum(theta)))
    U, *_, cost, _, trace = tls_estimator.tls_inner(ds, fp, Sigma_u, norm, theta)
    assert trace[-1][1] == cost
    W = np.linalg.inv(np.kron(np.eye(fp.horizon), Sigma_u))
    _assert_close(cost, oracles.demo_term(ds.U_list, U, W))


@CASES
def test_u_information_reads_the_demo_sum(m, D):
    # at theta = 0 and U0 = 0 the information vector is the demos' term alone
    fp, _, _, ds = _demos(m, D)
    bs = build_stationarity(fp)
    mN = fp.n_inputs
    SigU_inv = np.linalg.inv(_spd(np.random.default_rng(m * D), mN, 0.01))
    lam = np.zeros(bs.n_multipliers)
    _, info = _u_information(ds, np.zeros(bs.n_features), lam, SigU_inv, bs,
                             _priors(bs, np.zeros(mN), np.eye(mN)))
    _assert_close(info, SigU_inv @ sum(ds.U_list))


@CASES
def test_inverse_wishart_scale_matches_its_oracle_and_is_exactly_symmetric(m, D):
    fp, _, U_star, ds = _demos(m, D)
    rng = np.random.default_rng(m * D)
    bs = build_stationarity(fp)
    U = U_star + 0.1 * rng.standard_normal(U_star.shape[0])
    W_U = np.diag(rng.uniform(0.01, 0.1, U.shape[0]))
    priors = _priors(bs, U, W_U)
    scale, nu = full_conditional_SigmaU(ds, U, priors)
    _assert_close(scale, oracles.inverse_wishart_scale(ds.U_list, U, W_U))
    # exact symmetry keeps the factorization on its fast path
    assert np.array_equal(scale, scale.T)
    assert nu == D + priors.m_U


@CASES
def test_prior_covariance_matches_its_oracle_and_is_exactly_symmetric(m, D):
    fp, theta, _, ds = _demos(m, D)
    mN = fp.n_inputs
    priors = default_priors(ds, fp, NormalizationRule("sum", float(np.sum(theta))))
    cov = oracles.sample_covariance(ds.U_list)
    floor = 1e-8 * (1.0 + float(ds.mean @ ds.mean) / mN)
    _assert_close(priors.W_U, np.diag(np.maximum(np.diag(cov), floor)))
    _assert_close(priors.Sigma_U0, max(10.0 * np.trace(cov) / mN, 100.0 * floor) * np.eye(mN))
    assert priors.U0.tobytes() == ds.mean.tobytes()
    if D > 1:
        cov = ds.scatter / (D - 1)
        assert np.array_equal(cov, cov.T)


@CASES
def test_tls_per_step_covariance_matches_its_oracle(m, D):
    fp, theta, _, ds = _demos(m, D)
    res = tls_estimator.estimate(ds, fp, NormalizationRule("sum", float(np.sum(theta))))
    if D == 1:  # no scatter: the identity
        np.testing.assert_array_equal(res.Sigma_u, np.eye(m))
        return
    Sigma_u = oracles.per_step_covariance(ds.U_list, m)
    Sigma_u += tls_estimator.RIDGE * np.trace(Sigma_u) / m * np.eye(m)
    _assert_close(res.Sigma_u, Sigma_u)
