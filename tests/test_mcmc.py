"""Sampling primitives, closed-form full conditionals, and the Gibbs chain."""

import dataclasses
import hashlib

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    NoiseSpec,
    Priors,
    cholesky,
    default_priors,
    generate,
    gibbs_run,
    mh_step,
    mh_within_gibbs_U,
    noise_scale_from_percent,
    rmse,
    sample_mean,
    solve_forward,
)
from ioc_eiv.mcmc import (
    full_conditional_SigmaU,
    full_conditional_U,
    full_conditional_beta,
    sample_inverse_wishart,
    sample_mvn,
)
from ioc_eiv.model import (
    ForwardProblem,
    LinearSystem,
    QuadraticFeature,
    build_stationarity,
)
from ioc_eiv.numerics import cholesky_inverse


def _toy_problem():
    """Scalar one-step problem with a single input feature: beta is 1-D."""
    sysd = LinearSystem(np.array([[0.9]]), np.array([[0.5]]))
    fp = ForwardProblem(
        sysd,
        (QuadraticFeature("input", 0, 0.0),),
        oracles.no_constraints(1, 1),
        1,
        np.array([0.4]),
    )
    return fp


def _toy_priors(beta0=1.0, s_beta=0.5, u0=0.0, s_u0=2.0, sigma_y=0.05):
    return Priors(
        U0=np.array([u0]),
        Sigma_U0=np.array([[s_u0**2]]),
        beta0=np.array([beta0]),
        Sigma_beta=np.array([[s_beta**2]]),
        W_U=np.eye(1),
        m_U=3.0,
        Sigma_Y=np.array([[sigma_y**2]]),
    )


def _toy_demos(fp, values):
    from ioc_eiv.demos import DemoSet

    return DemoSet(
        U_list=tuple(np.array([float(v)]) for v in values),
        fp_ref=fp,
        U_star=None,
    )


def test_mvn_collapses_to_mean():
    rng = np.random.default_rng(0)
    mean = np.array([2.0, -1.0])
    draw = sample_mvn(mean, 1e-30 * np.eye(2), rng)
    np.testing.assert_allclose(draw, mean, atol=1e-12)


def test_mvn_sample_covariance():
    rng = np.random.default_rng(1)
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    draws = np.array([sample_mvn(np.zeros(2), cov, rng) for _ in range(100_000)])
    emp = np.cov(draws, rowvar=False)
    assert np.linalg.norm(emp - cov) <= 0.03 * np.linalg.norm(cov)


def test_mvn_seeded_determinism():
    cov = np.array([[1.0, 0.2], [0.2, 1.0]])
    a = sample_mvn(np.zeros(2), cov, np.random.default_rng(7))
    b = sample_mvn(np.zeros(2), cov, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_inverse_wishart_scalar_mean():
    rng = np.random.default_rng(2)
    w, nu = 3.0, 6.0
    draws = [sample_inverse_wishart(np.array([[w]]), nu, rng)[0, 0] for _ in range(100_000)]
    assert abs(np.mean(draws) - w / (nu - 2.0)) <= 0.03 * w / (nu - 2.0)


def test_inverse_wishart_matrix_mean_and_spd():
    rng = np.random.default_rng(3)
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    nu = 10.0
    acc = np.zeros((2, 2))
    for i in range(100_000):
        S = sample_inverse_wishart(W, nu, rng)
        if i < 1000:
            assert np.all(np.linalg.eigvalsh(S) > 0.0)
            np.testing.assert_allclose(S, S.T, atol=1e-12)
        acc += S
    mean = acc / 100_000
    expect = W / (nu - 2.0 - 1.0)
    assert np.linalg.norm(mean - expect) <= 0.05 * np.linalg.norm(expect)


def test_inverse_wishart_matches_scalar_bartlett_reference():
    # the Bartlett rows are filled by one vector draw each; a Generator
    # fills arrays in order, so the draw equals i scalar draws per row, bit
    # for bit
    def reference(W, nu, rng):
        p = W.shape[0]
        Lw = cholesky(cholesky_inverse(cholesky(W)))
        A = np.zeros((p, p))
        for i in range(p):
            A[i, i] = np.sqrt(rng.chisquare(nu - i))
            for j in range(i):
                A[i, j] = rng.standard_normal()
        LA = Lw @ A
        return cholesky_inverse(cholesky(LA @ LA.T))

    G = np.random.default_rng(0).standard_normal((6, 6))
    W = G @ G.T + np.eye(6)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(20):
        got = sample_inverse_wishart(W, 9.5, rng_a)
        ref = reference(W, 9.5, rng_b)
        np.testing.assert_array_equal(got, ref)
    # both streams consumed the same number of variates
    assert rng_a.standard_normal() == rng_b.standard_normal()


def test_priors_precisions_equal_spd_inverse_bitwise():
    G = np.random.default_rng(4).standard_normal((3, 3))
    priors = Priors(
        U0=np.zeros(3),
        Sigma_U0=G @ G.T + np.eye(3),
        beta0=np.ones(2),
        Sigma_beta=np.array([[2.0, 0.3], [0.3, 1.5]]),
        W_U=np.eye(3),
        m_U=5.0,
        Sigma_Y=0.01 * np.eye(3),
    )
    changed = dataclasses.replace(priors, Sigma_Y=G.T @ G + 0.5 * np.eye(3))
    for pr in (priors, changed):
        for name in ("Sigma_U0", "Sigma_beta", "Sigma_Y"):
            inverse = cholesky_inverse(cholesky(getattr(pr, name)))
            assert np.array_equal(getattr(pr, f"{name}_inv"), inverse)
    assert not np.array_equal(changed.Sigma_Y_inv, priors.Sigma_Y_inv)
    with pytest.raises(TypeError):
        Priors(U0=np.zeros(1), Sigma_U0=np.eye(1), beta0=np.ones(1), Sigma_beta=np.eye(1),
               W_U=np.eye(1), m_U=3.0, Sigma_Y=np.eye(1), Sigma_Y_inv=np.eye(1))


def test_priors_information_vector_is_the_product_bitwise():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 4))
    priors = Priors(
        U0=rng.standard_normal(4),
        Sigma_U0=G @ G.T + np.eye(4),
        beta0=np.ones(2),
        Sigma_beta=np.eye(2),
        W_U=np.eye(4),
        m_U=7.0,
        Sigma_Y=np.eye(3),
    )
    changed = dataclasses.replace(priors, U0=rng.standard_normal(4))
    for pr in (priors, changed):
        assert pr.Sigma_U0_inv_U0.tobytes() == (pr.Sigma_U0_inv @ pr.U0).tobytes()
    assert not np.array_equal(changed.Sigma_U0_inv_U0, priors.Sigma_U0_inv_U0)


def test_beta_conditional_matches_grid():
    fp = _toy_problem()
    bs = build_stationarity(fp)
    priors = _toy_priors(beta0=1.2, s_beta=0.4, sigma_y=0.08)
    ds = _toy_demos(fp, [0.35, 0.42, 0.31])
    U = np.array([0.4])
    mean, cov = full_conditional_beta(ds, U, bs, priors)
    J = 2.0 * U[0]  # input quadratic: d/dU of beta * u^2

    def log_density(b):
        lp = -0.5 * (b - 1.2) ** 2 / 0.4**2
        lp -= ds.n_demos * 0.5 * (J * b) ** 2 / 0.08**2
        return lp

    grid = np.linspace(mean[0] - 8 * np.sqrt(cov[0, 0]), mean[0] + 8 * np.sqrt(cov[0, 0]), 4001)
    assert oracles.grid_tv(grid, log_density, mean[0], cov[0, 0]) <= 1e-3


def test_beta_conditional_flat_prior_limit():
    fp = _toy_problem()
    bs = build_stationarity(fp)
    priors = _toy_priors(beta0=5.0, sigma_y=0.05)
    priors = Priors(
        U0=priors.U0,
        Sigma_U0=priors.Sigma_U0,
        beta0=priors.beta0,
        Sigma_beta=np.array([[1e12]]),
        W_U=priors.W_U,
        m_U=priors.m_U,
        Sigma_Y=priors.Sigma_Y,
    )
    ds = _toy_demos(fp, [0.5])
    mean, cov = full_conditional_beta(ds, np.array([0.5]), bs, priors)
    # the data say 2*U*beta = 0 with U != 0, so the flat-prior fit is zero
    assert abs(mean[0]) <= 1e-6
    np.testing.assert_allclose(cov[0, 0], 0.05**2 / (2.0 * 0.5) ** 2, rtol=1e-3)


def test_beta_conditional_equals_naive_stacked_model():
    # D identical copies of the stationarity rows, assembled by hand
    fp = oracles.spring_damper()
    bs = build_stationarity(fp)
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=13), 4, fp)
    priors = default_priors(ds, fp)
    U = sample_mean(ds)
    mean, cov = full_conditional_beta(ds, U, bs, priors)

    J = np.hstack([np.column_stack([M @ U for M in bs.Mj]) + bs.E_theta, bs.J_lambda])
    A = np.vstack([J] * ds.n_demos)
    R = np.kron(np.eye(ds.n_demos), priors.Sigma_Y)
    Sp = np.linalg.inv(
        np.linalg.inv(priors.Sigma_beta) + A.T @ np.linalg.solve(R, A)
    )
    mp = Sp @ np.linalg.solve(priors.Sigma_beta, priors.beta0)
    np.testing.assert_allclose(cov, Sp, atol=1e-8 * np.max(np.abs(Sp)))
    np.testing.assert_allclose(mean, mp, atol=1e-8 * (1.0 + np.max(np.abs(mp))))


def test_u_conditional_matches_grid():
    fp = _toy_problem()
    bs = build_stationarity(fp)
    priors = _toy_priors(u0=0.1, s_u0=1.5, sigma_y=0.1)
    ds = _toy_demos(fp, [0.3, 0.55])
    beta = np.array([0.8])
    Sigma_U = np.array([[0.2**2]])
    mean, cov = full_conditional_U(ds, beta, Sigma_U, bs, priors)

    def log_density(u):
        lp = -0.5 * (u - 0.1) ** 2 / 1.5**2
        lp -= 0.5 * ds.n_demos * (2.0 * 0.8 * u) ** 2 / 0.1**2
        for U_d in ds.U_list:
            lp -= 0.5 * (U_d[0] - u) ** 2 / 0.2**2
        return lp

    grid = np.linspace(mean[0] - 8 * np.sqrt(cov[0, 0]), mean[0] + 8 * np.sqrt(cov[0, 0]), 4001)
    assert oracles.grid_tv(grid, log_density, mean[0], cov[0, 0]) <= 1e-3


def test_u_conditional_zero_beta_reduces_to_gaussian_mean_posterior():
    fp = _toy_problem()
    bs = build_stationarity(fp)
    base = _toy_priors()
    priors = Priors(
        U0=base.U0,
        Sigma_U0=np.array([[1e12]]),
        beta0=base.beta0,
        Sigma_beta=base.Sigma_beta,
        W_U=base.W_U,
        m_U=base.m_U,
        Sigma_Y=base.Sigma_Y,
    )
    ds = _toy_demos(fp, [0.2, 0.6, 0.7, 0.9])
    Sigma_U = np.array([[0.3**2]])
    mean, cov = full_conditional_U(ds, np.zeros(1), Sigma_U, bs, priors)
    np.testing.assert_allclose(mean, [np.mean([0.2, 0.6, 0.7, 0.9])], rtol=1e-6)
    np.testing.assert_allclose(cov, [[0.3**2 / 4.0]], rtol=1e-6)


def test_u_conditional_uninformative_stationarity_same_reduction():
    fp = _toy_problem()
    bs = build_stationarity(fp)
    base = _toy_priors()
    priors = Priors(
        U0=base.U0,
        Sigma_U0=np.array([[1e12]]),
        beta0=base.beta0,
        Sigma_beta=base.Sigma_beta,
        W_U=base.W_U,
        m_U=base.m_U,
        Sigma_Y=np.array([[1e12]]),
    )
    ds = _toy_demos(fp, [0.2, 0.6])
    mean, cov = full_conditional_U(ds, np.array([0.8]), np.array([[0.09]]), bs, priors)
    np.testing.assert_allclose(mean, [0.4], rtol=1e-5)
    np.testing.assert_allclose(cov, [[0.09 / 2.0]], rtol=1e-5)


def test_u_conditional_equals_naive_stacked_model():
    fp = oracles.spring_damper()
    bs = build_stationarity(fp)
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=17), 3, fp)
    priors = default_priors(ds, fp)
    rng = np.random.default_rng(5)
    beta = np.abs(rng.standard_normal(3 + 11))
    Sigma_U = np.diag(rng.uniform(0.01, 0.05, 10))
    mean, cov = full_conditional_U(ds, beta, Sigma_U, bs, priors)

    theta, lam = beta[:3], beta[3:]
    M_beta = sum(t * M for t, M in zip(theta, bs.Mj))
    Eb = bs.E_theta @ theta + bs.J_lambda @ lam
    D = ds.n_demos
    A = np.vstack([np.vstack([M_beta] * D), np.vstack([np.eye(10)] * D)])
    y = np.concatenate([np.tile(-Eb, D), np.concatenate(ds.U_list)])
    R = np.block(
        [
            [np.kron(np.eye(D), priors.Sigma_Y), np.zeros((10 * D, 10 * D))],
            [np.zeros((10 * D, 10 * D)), np.kron(np.eye(D), Sigma_U)],
        ]
    )
    Sp = np.linalg.inv(np.linalg.inv(priors.Sigma_U0) + A.T @ np.linalg.solve(R, A))
    mp = Sp @ (np.linalg.solve(priors.Sigma_U0, priors.U0) + A.T @ np.linalg.solve(R, y))
    np.testing.assert_allclose(cov, Sp, atol=1e-8 * np.max(np.abs(Sp)))
    np.testing.assert_allclose(mean, mp, atol=1e-8 * (1.0 + np.max(np.abs(mp))))


def test_sigma_conditional_degenerate_and_hand_cases():
    fp = _toy_problem()
    priors = _toy_priors()
    U = np.array([0.5])
    same = _toy_demos(fp, [0.5, 0.5, 0.5])
    W_post, nu_post = full_conditional_SigmaU(same, U, priors)
    np.testing.assert_allclose(W_post, priors.W_U)
    assert nu_post == 3 + priors.m_U
    two = _toy_demos(fp, [0.2, 0.8])
    W_post, nu_post = full_conditional_SigmaU(two, U, priors)
    np.testing.assert_allclose(W_post, priors.W_U + np.array([[0.3**2 + 0.3**2]]))
    assert nu_post == 2 + priors.m_U


def test_sigma_conditional_posterior_mean_approaches_scatter():
    fp = _toy_problem()
    priors = _toy_priors()
    rng = np.random.default_rng(6)
    vals = 0.5 + 0.25 * rng.standard_normal(10_000)
    ds = _toy_demos(fp, vals)
    W_post, nu_post = full_conditional_SigmaU(ds, np.array([0.5]), priors)
    post_mean = W_post / (nu_post - 1 - 1)
    assert abs(post_mean[0, 0] - 0.25**2) <= 0.05 * 0.25**2


def test_gibbs_degenerate_demos_concentrate_on_optimum():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    ds = generate(sol.U, NoiseSpec.gaussian(np.zeros((1, 1)), seed=19), 5, fp)
    priors = default_priors(ds, fp)
    out = gibbs_run(ds, fp, priors, n_iter=500, n_keep=300, rng=np.random.default_rng(19))
    assert rmse(out.U_mean, sol.U) <= 1e-3


def test_gibbs_recovers_noise_scale():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = float(noise_scale_from_percent(sol.U, 10.0)[0])
    ratios = []
    for seed in range(5):
        ds = generate(
            sol.U, NoiseSpec.gaussian(np.array([[sig**2]]), seed=700 + seed), 10, fp
        )
        priors = default_priors(ds, fp)
        out = gibbs_run(
            ds, fp, priors, n_iter=800, n_keep=200, rng=np.random.default_rng(seed)
        )
        ratios.append(np.median(np.diag(out.Sigma_U_mean)) / sig**2)
        for s in out.samples[::50]:
            assert np.all(np.linalg.eigvalsh(s.Sigma_U) > 0.0)
    med = float(np.median(ratios))
    assert 0.3 <= med <= 3.0


def test_gibbs_seeded_determinism():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=23), 6, fp)
    priors = default_priors(ds, fp)
    a = gibbs_run(ds, fp, priors, n_iter=100, n_keep=50, rng=np.random.default_rng(42))
    b = gibbs_run(ds, fp, priors, n_iter=100, n_keep=50, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.U_mean, b.U_mean)
    np.testing.assert_array_equal(a.Sigma_U_mean, b.Sigma_U_mean)


# sha256 of the trace below, recorded before the hot path was rewritten;
# a "bit-exact" speed-up that moves any draw of the chain changes it.  The
# bytes depend on the floating-point kernels of the numpy/OpenBLAS build.
GOLDEN_TRACE_SHA256 = "a155ff68b1f085f4c0997d990768aa9ea52615ca7b1929f4b2f8358ba6046db0"


def test_gibbs_trace_is_bit_identical_to_golden(tmp_path):
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=11), 10, fp)
    priors = default_priors(ds, fp)
    path = tmp_path / "trace.csv"
    gibbs_run(
        ds, fp, priors, n_iter=200, n_keep=50, rng=np.random.default_rng(2024),
        trace_csv=str(path),
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256


def test_gibbs_output_does_not_depend_on_trace_csv(tmp_path):
    # without a trace file only the retained tail is kept; the result must
    # not change
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=19), 6, fp)
    priors = default_priors(ds, fp)
    a = gibbs_run(ds, fp, priors, n_iter=120, n_keep=30, rng=np.random.default_rng(3))
    b = gibbs_run(ds, fp, priors, n_iter=120, n_keep=30, rng=np.random.default_rng(3),
                  trace_csv=str(tmp_path / "trace.csv"))
    assert len(a.samples) == len(b.samples) == 30
    assert [s.iteration for s in a.samples] == list(range(91, 121))
    for sa, sb in zip(a.samples, b.samples):
        assert sa.iteration == sb.iteration
        for name in ("U", "beta", "Sigma_U"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name))
    for name in ("U_mean", "beta_mean", "Sigma_U_mean"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.acceptance_rate == b.acceptance_rate


def test_gibbs_dispersed_initializations_agree():
    # chains from different RNG streams must agree to Monte Carlo accuracy
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=29), 10, fp)
    priors = default_priors(ds, fp)
    a = gibbs_run(ds, fp, priors, n_iter=1500, n_keep=1000, rng=np.random.default_rng(1))
    b = gibbs_run(ds, fp, priors, n_iter=1500, n_keep=1000, rng=np.random.default_rng(2))
    for i in range(0, 10, 3):
        xa = np.array([s.U[i] for s in a.samples])
        xb = np.array([s.U[i] for s in b.samples])
        se = np.hypot(oracles.batch_se(xa), oracles.batch_se(xb))
        assert abs(xa.mean() - xb.mean()) <= 3.0 * se + 1e-12


def test_gibbs_trace_csv_schema(tmp_path):
    fp = _toy_problem()
    ds = _toy_demos(fp, [0.3, 0.5])
    priors = _toy_priors()
    path = tmp_path / "trace.csv"
    gibbs_run(
        ds, fp, priors, n_iter=20, n_keep=10, rng=np.random.default_rng(3), trace_csv=str(path)
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,beta_0,U_0,sigma_U_diag_0"
    assert len(lines) == 21


def test_mh_uniform_target_always_accepts():
    rng = np.random.default_rng(4)
    state = np.zeros(1)
    for _ in range(50):
        state, accepted = mh_step(
            state,
            lambda z: 0.0,
            lambda r, frm: frm + r.standard_normal(1),
            lambda to, frm: 0.0,
            rng,
        )
        assert accepted


def test_mh_independence_sampler_matching_target_always_accepts():
    rng = np.random.default_rng(5)
    logp = lambda z: -0.5 * float(z @ z)
    state = np.zeros(1)
    n_acc = 0
    for _ in range(200):
        state, accepted = mh_step(
            state,
            logp,
            lambda r, frm: r.standard_normal(1),
            lambda to, frm: -0.5 * float(to @ to),
            rng,
        )
        n_acc += int(accepted)
    assert n_acc == 200


def test_mh_standard_normal_moments():
    rng = np.random.default_rng(6)
    logp = lambda z: -0.5 * float(z @ z)
    sampler = lambda r, frm: frm + 2.4 * r.standard_normal(1)
    state = np.zeros(1)
    draws = np.empty(100_000)
    for i in range(draws.shape[0]):
        state, _ = mh_step(state, logp, sampler, lambda to, frm: 0.0, rng)
        draws[i] = state[0]
    assert abs(draws.mean()) <= 0.02
    assert 0.95 <= draws.var() <= 1.05


def test_mh_rejects_nonfinite_proposals():
    rng = np.random.default_rng(7)
    logp = lambda z: -np.inf if z[0] > 0 else 0.0
    state = np.array([-1.0])
    state, accepted = mh_step(
        state, logp, lambda r, frm: np.array([5.0]), lambda to, frm: 0.0, rng
    )
    assert not accepted and state[0] == -1.0


def test_mh_u_block_acceptance_strictly_inside_unit_interval():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, 10.0)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=31), 8, fp)
    priors = default_priors(ds, fp)
    out = gibbs_run(
        ds,
        fp,
        priors,
        n_iter=300,
        n_keep=100,
        rng=np.random.default_rng(8),
        u_step="mh",
        mh_scale=1e-5,
    )
    assert 0.0 < out.acceptance_rate["U"] < 1.0


def test_mh_zero_scale_flagged_and_stuck():
    fp = _toy_problem()
    ds = _toy_demos(fp, [0.3, 0.5])
    priors = _toy_priors()
    U_prev = np.array([0.37])
    with pytest.warns(RuntimeWarning):
        U_new, accepted = mh_within_gibbs_U(
            ds,
            U_prev,
            np.array([0.8]),
            np.array([[0.01]]),
            priors,
            np.random.default_rng(9),
            a=0.0,
        )
    assert not accepted
    np.testing.assert_array_equal(U_new, U_prev)
