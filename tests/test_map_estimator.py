"""Posterior-cost minimization with complementarity handled by activity sets."""

import hashlib
import json
from functools import cache

import numpy as np
import pytest

import oracles
from ioc_eiv import (
    ForwardProblem,
    GibbsConfig,
    LinearSystem,
    MapConfig,
    NoiseSpec,
    NormalizationRule,
    PolytopicConstraints,
    Priors,
    QuadraticFeature,
    consistency_cost_check,
    default_priors,
    generate,
    gibbs_run,
    map_cost,
    map_estimate,
    noise_scale_from_percent,
    rescale_to_l1,
    rmse,
    solve_forward,
    tls_estimate,
)
from ioc_eiv import bench_cli
from ioc_eiv.demos import DemoSet
from ioc_eiv.model import (
    ITERATE_ACTIVE_TOL,
    build_stationarity,
    constraint_values,
    multiplier_index,
)
from ioc_eiv.numerics import Infeasible, Qp, solve_qp


def _benchmark_demos(pct, seed, D):
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    sig = noise_scale_from_percent(sol.U, pct)
    ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sig**2), seed=seed), D, fp)
    return fp, sol, ds


def test_cost_zero_at_consistent_point():
    fp, sol, _ = _benchmark_demos(10.0, 1, 3)
    U = sol.U
    ds = DemoSet(U_list=(U.copy(), U.copy()), fp_ref=fp, U_star=U)
    dim_beta = 3 + 11
    priors = Priors(
        U0=U.copy(),
        Sigma_U0=np.eye(10),
        beta0=np.zeros(dim_beta),
        Sigma_beta=np.eye(dim_beta),
        W_U=np.eye(10),
        m_U=12.0,
        Sigma_Y=0.01 * np.eye(10),
    )
    assert map_cost(U, np.zeros(dim_beta), np.eye(10), ds, priors) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cost_refuses_a_non_finite_latent_input(bad):
    fp, sol, ds = _benchmark_demos(10.0, 1, 3)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    U = sol.U.copy()
    U[4] = bad
    with pytest.raises(ValueError, match="NaNs"):
        map_cost(U, priors.beta0, np.eye(fp.n_inputs), ds, priors)


@pytest.mark.parametrize("n_iter,n_keep,message", [
    (1, 1, "n_iter must be >= 2"),
    (10, 50, r"n_keep must be in \[1, n_iter\]"),
    (10, 0, r"n_keep must be in \[1, n_iter\]"),
])
def test_gibbs_config_refuses_the_budgets_the_chain_refuses(n_iter, n_keep, message):
    # one rule for both: a config the chain would refuse is refused when built
    with pytest.raises(ValueError, match=message):
        GibbsConfig(n_iter=n_iter, n_keep=n_keep)
    fp, _, ds = _benchmark_demos(10.0, 1, 3)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    with pytest.raises(ValueError, match=message):
        gibbs_run(ds, fp, priors, n_iter, n_keep, np.random.default_rng(0))


def test_cost_gradient_matches_finite_differences():
    fp, sol, ds = _benchmark_demos(10.0, 2, 4)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    rng = np.random.default_rng(3)
    U = sol.U + 0.05 * rng.standard_normal(10)
    beta = np.abs(rng.standard_normal(14))
    Sigma_U = np.diag(rng.uniform(0.01, 0.04, 10))
    h = 1e-6

    def num_grad(f, x):
        g = np.zeros(x.shape[0])
        for i in range(x.shape[0]):
            e = np.zeros(x.shape[0])
            e[i] = h
            g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        return g

    gU = num_grad(lambda u: map_cost(u, beta, Sigma_U, ds, priors), U)
    gB = num_grad(lambda b: map_cost(U, b, Sigma_U, ds, priors), beta)

    # analytic directional check through a second, smaller step size
    h2 = 1e-4
    for g, x, f in (
        (gU, U, lambda u: map_cost(u, beta, Sigma_U, ds, priors)),
        (gB, beta, lambda b: map_cost(U, b, Sigma_U, ds, priors)),
    ):
        d = rng.standard_normal(x.shape[0])
        d /= np.linalg.norm(d)
        fd = (f(x + h2 * d) - f(x - h2 * d)) / (2.0 * h2)
        assert abs(fd - g @ d) <= 1e-6 * (1.0 + abs(fd))


def test_cost_is_quadratic_in_beta():
    fp, sol, ds = _benchmark_demos(10.0, 4, 3)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    rng = np.random.default_rng(5)
    U = sol.U + 0.02 * rng.standard_normal(10)
    beta = np.abs(rng.standard_normal(14))
    d = rng.standard_normal(14)
    f = lambda t: map_cost(U, beta + t * d, np.eye(10), ds, priors)
    # a quadratic is determined by three samples; a fourth must interpolate
    t = np.array([-1.0, 0.0, 1.0])
    coeffs = np.polyfit(t, [f(v) for v in t], 2)
    pred = np.polyval(coeffs, 2.5)
    assert abs(pred - f(2.5)) <= 1e-9 * (1.0 + abs(pred))


def test_noiseless_demos_recover_truth():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    ds = generate(sol.U, NoiseSpec.gaussian(np.zeros((1, 1)), seed=6), 5, fp)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=600, n_keep=200), norm=NormalizationRule("sum", value=22.0))
    res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(6))
    assert rmse(rescale_to_l1(res.theta, 22.0), oracles.SPRING_THETA) <= 1e-3
    assert rmse(res.U_hat, sol.U) <= 1e-6
    diffs = np.diff(res.cost_trace)
    assert np.all(diffs <= 1e-12)


def test_noisy_output_satisfies_optimality_blocks():
    fp, sol, ds = _benchmark_demos(10.0, 7, 10)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=800, n_keep=200), norm=NormalizationRule("sum", 3.0))
    res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(7))
    g = constraint_values(fp, res.U_hat)
    assert np.max(g) <= 1e-8
    assert np.min(res.lam) >= -1e-10
    assert np.max(np.abs(res.lam * g)) <= 1e-8
    assert np.all(res.theta >= -1e-10)
    diffs = np.diff(res.cost_trace)
    assert np.all(diffs <= 1e-12)


# sha256 of one estimate's outputs; a "bit-exact" change to the cost or
# either half-step that moves any output changes it.  Re-pinned when the
# inverse-Wishart draw changed, and again when the cost and both half-steps
# took their precisions from the priors and the U-step its Gaussian form from
# the Gibbs U conditional, and when the chain and the cost read the demos
# through their count, mean and scatter (both rounding-level moves).  The
# bytes depend on the floating-point kernels of the numpy/OpenBLAS build.
GOLDEN_MAP_SHA256 = "0e68285c090f3a82382fbf7b9f0c6a00680c64d0f6f5ea42af2632c29c6020bd"


def test_estimate_outputs_are_bit_identical_to_golden():
    fp, _, ds = _benchmark_demos(10.0, 11, 10)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=200, n_keep=50), norm=NormalizationRule("sum", 3.0))
    res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(2024))
    h = hashlib.sha256()
    for a in (res.theta, res.lam, res.U_hat, res.Sigma_U_hat, np.array(res.cost_trace)):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    assert h.hexdigest() == GOLDEN_MAP_SHA256


def test_u_step_retries_conflicting_faces_as_inequalities(monkeypatch):
    import ioc_eiv.map_estimator as me

    # the polytope u <= 0.5, -u <= 3; holding both rows at step 1 poses
    # u_1 = 0.5 and u_1 = -3 at once
    fp = ForwardProblem(
        LinearSystem(np.array([[0.9]]), np.array([[1.0]])),
        (QuadraticFeature("state", 0, 1.0), QuadraticFeature("input", 0, 0.0)),
        PolytopicConstraints(np.zeros((2, 1)), np.array([[1.0], [-1.0]]), np.array([0.5, 3.0])),
        3,
        np.array([0.0]),
    )
    theta = np.array([4.0, 1.0])
    U_star = solve_forward(fp, theta).U
    offsets = ([0.01, -0.02, 0.03], [-0.02, 0.01, -0.01], [0.02, 0.02, 0.0])
    ds = DemoSet(U_list=tuple(U_star + np.array(o) for o in offsets),
                 fp_ref=fp, U_star=None)
    bs = build_stationarity(fp)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    lam = np.zeros(fp.n_multipliers)
    lam[multiplier_index(0, 0, 2)] = 0.5
    lam[multiplier_index(0, 1, 2)] = 1.0
    lam[multiplier_index(1, 1, 2)] = 2.0

    posed = []
    solve_qp = me.solve_qp

    def spy(qp):
        try:
            sol = solve_qp(qp)
        except Infeasible:
            posed.append("infeasible")
            raise
        posed.append((qp.Aeq.shape[0], qp.Ain.shape[0]))
        return sol

    monkeypatch.setattr(me, "solve_qp", spy)
    # the demo precision of Sigma_U = 0.01 I
    U, beta = me._u_step(bs, ds, priors, 100.0 * np.eye(3), np.concatenate([theta, lam]))
    # the retry poses the six nonconstant rows as inequalities and nothing else
    assert posed == ["infeasible", (0, 6)]
    # re-recorded when the U-step took its Hessian and linear term from the
    # Gibbs U conditional's precision and information vector, and when the
    # prior and the information vector read the demos' mean and scatter
    assert [float(v).hex() for v in U] == [
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0bf82c0e0475ap-9"]
    assert beta.tolist() == [4.0, 1.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    # U stays on u_0 = 0.5 and u_1 = 0.5 and leaves -u_1 <= 3: only the
    # multiplier of the face it left is dropped
    assert np.max(constraint_values(fp, U)) <= 1e-12
    active = bs.active_rows(U, ITERATE_ACTIVE_TOL)
    assert np.array_equal(beta[2:], np.where(active, lam, 0.0))
    assert beta[2 + multiplier_index(1, 1, 2)] == 0.0


def test_u_step_without_constraints_is_the_gibbs_u_conditional_mean():
    import ioc_eiv.map_estimator as me
    from ioc_eiv.mcmc import full_conditional_U
    from ioc_eiv.numerics import spd_inverse

    fp = oracles.scalar_problem()
    U_star = solve_forward(fp, np.array([2.0, 1.0])).U
    ds = generate(U_star, NoiseSpec.gaussian(np.array([[0.01]]), seed=41), 5, fp)
    priors = default_priors(ds, fp, NormalizationRule("sum", float(fp.q)))
    bs = build_stationarity(fp)
    Sigma_U = np.diag([0.02, 0.01, 0.03, 0.015])
    beta = np.array([2.0, 1.0])
    U, _ = me._u_step(bs, ds, priors, spd_inverse(Sigma_U), beta)
    mean, _ = full_conditional_U(ds, beta, Sigma_U, bs, priors)
    np.testing.assert_allclose(U, mean, rtol=1e-12, atol=0.0)


def test_beta_step_minimizes_the_gibbs_beta_conditional_on_its_face():
    # the beta-step's Hessian and linear term are the Gibbs beta
    # conditional's precision and information on the free coordinates, so
    # its answer is that Gaussian's minimizer over the weight cone with the
    # multipliers of inactive rows held at zero; the precision is read back
    # from the conditional's covariance, so a change to either formula alone
    # moves one side
    import ioc_eiv.map_estimator as me
    from ioc_eiv.mcmc import full_conditional_beta

    fp, sol, ds = _benchmark_demos(10.0, 12, 10)
    norm = NormalizationRule("sum", 22.0)
    priors = default_priors(ds, fp, norm)
    bs = build_stationarity(fp)
    q = fp.q
    act = np.flatnonzero(bs.active_rows(sol.U, ITERATE_ACTIVE_TOL))
    assert act.size > 0  # the input cap holds at the truth, so the face frees multipliers
    free = np.concatenate([np.arange(q), q + act])
    beta = me._beta_step(bs, ds, priors, sol.U, norm)

    mean, cov = full_conditional_beta(ds, sol.U, bs, priors)
    P = np.linalg.inv(cov)
    H = P[np.ix_(free, free)]
    z = solve_qp(Qp(0.5 * (H + H.T), -(P @ mean)[free], norm.beta_rows(q, free.size))).z
    np.testing.assert_allclose(beta[free], z, rtol=0.0, atol=1e-8 * np.max(np.abs(z)))
    assert not np.any(np.delete(beta, free))


def test_estimate_deterministic_given_rng():
    fp, sol, ds = _benchmark_demos(10.0, 8, 6)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=200, n_keep=100), norm=NormalizationRule("sum", 3.0))
    a = map_estimate(ds, fp, cfg, rng=np.random.default_rng(11))
    b = map_estimate(ds, fp, cfg, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.U_hat, b.U_hat)


def _scaled_problem(fp, c):
    feats = tuple(
        QuadraticFeature(f.kind, f.index, c * f.target if f.kind == "state" else f.target)
        for f in fp.features
    )
    con = PolytopicConstraints(
        fp.constraints.Hx.copy(), fp.constraints.Hu.copy(), c * fp.constraints.h
    )
    return ForwardProblem(
        fp.system, feats, con, fp.horizon, c * fp.x0, fp.theta_true
    )


def test_affine_equivariance_under_unit_rescaling():
    # scaling demos, targets, bounds, and priors by c scales U_hat by c and
    # multipliers by c while the weights are unchanged; with a shared RNG
    # stream the two runs agree draw for draw
    c = 2.0
    fp, sol, ds = _benchmark_demos(10.0, 9, 5)
    fp_c = _scaled_problem(fp, c)
    ds_c = DemoSet(
        U_list=tuple(c * U for U in ds.U_list),
        fp_ref=fp_c,
        U_star=None,
    )
    dim_beta = 14
    beta0 = np.concatenate([np.ones(3), np.zeros(11)])
    sig_beta = np.diag(np.concatenate([np.full(3, 100.0), np.full(11, 100.0)]))
    sig_beta_c = np.diag(np.concatenate([np.full(3, 100.0), np.full(11, 100.0 * c * c)]))
    base = dict(m_U=12.0)
    pri = Priors(
        U0=np.asarray(oracles.SPRING_U_STAR),
        Sigma_U0=0.5 * np.eye(10),
        beta0=beta0,
        Sigma_beta=sig_beta,
        W_U=0.01 * np.eye(10),
        Sigma_Y=0.01 * np.eye(10),
        **base,
    )
    pri_c = Priors(
        U0=c * np.asarray(oracles.SPRING_U_STAR),
        Sigma_U0=c * c * 0.5 * np.eye(10),
        beta0=beta0 * np.concatenate([np.ones(3), np.full(11, c)]),
        Sigma_beta=sig_beta_c,
        W_U=c * c * 0.01 * np.eye(10),
        Sigma_Y=c * c * 0.01 * np.eye(10),
        **base,
    )
    norm = NormalizationRule("sum", value=22.0)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=300, n_keep=100), priors=pri, norm=norm)
    cfg_c = MapConfig(gibbs=GibbsConfig(n_iter=300, n_keep=100), priors=pri_c, norm=norm)
    res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(13))
    res_c = map_estimate(ds_c, fp_c, cfg_c, rng=np.random.default_rng(13))
    np.testing.assert_allclose(res_c.U_hat, c * res.U_hat, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(res_c.theta, res.theta, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(res_c.lam, c * res.lam, rtol=1e-6, atol=1e-9)


def test_cost_check_exact_at_zero_noise():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    spec = NoiseSpec.gaussian(np.zeros((1, 1)), seed=10)
    report = consistency_cost_check(
        fp,
        oracles.SPRING_THETA,
        sol.U,
        200,
        spec,
        np.random.default_rng(10),
        lam_star=sol.lam,
    )
    assert report["overall"] == 1.0
    assert report["cost_at_truth"] <= 1e-20


def test_cost_check_separates_inputs_not_weight_scale():
    # doubling (theta, lambda) together keeps the stationarity term at zero,
    # so only moving U away from the optimum raises the empirical cost
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    bs = build_stationarity(fp)
    theta2 = 2.0 * oracles.SPRING_THETA
    lam2 = 2.0 * sol.lam
    s = (
        sum(t * (M @ sol.U) for t, M in zip(theta2, bs.Mj))
        + bs.E_theta @ theta2
        + bs.J_lambda @ lam2
    )
    assert np.max(np.abs(s)) <= 1e-10
    spec = NoiseSpec.gaussian(np.array([[0.001]]), seed=11)
    rng = np.random.default_rng(11)
    report = consistency_cost_check(
        fp, theta2, sol.U, 400, spec, rng, lam_star=lam2, epsilons=(0.1,), n_per_eps=40
    )
    assert report[0.1] >= 0.95


@cache
def _bench_fits(config, rep, level=10.0):
    """MAP and TLS on one task of a shipped config's bench grid.

    The task's demos come from the config's master seed plus ``rep``, as
    ``ioc-eiv bench`` draws them, and MAP's chain from that seed's MAP stream.
    Returns ``(map_result, tls_result, cost_at_tls)``: the last is the MAP
    cost of the TLS answer under MAP's own ``Sigma_U_hat`` and priors.
    """
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    fp = bench_cli.parse_problem(cfg["problem"])
    norm, gibbs = bench_cli._parse_norm(cfg, fp), bench_cli._parse_gibbs(cfg)
    U_star = solve_forward(fp, fp.theta_true).U
    seed = cfg["seed"] + rep
    ds = generate(U_star, bench_cli._noise_spec(cfg["noise"], U_star, fp.system.m, level, seed),
                  cfg["n_demos"], fp)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(bench_cli._MAP_STREAM,)))
    res = map_estimate(ds, fp, MapConfig(norm=norm, gibbs=gibbs), rng=rng)
    tls = tls_estimate(ds, fp, norm)
    cost_at_tls = map_cost(tls.U_hat, np.concatenate([tls.theta, tls.lam]), res.Sigma_U_hat,
                           ds, default_priors(ds, fp, norm))
    return res, tls, cost_at_tls


@pytest.mark.parametrize("config", [
    "spring_damper",
    # MAP's alternation stops on a face far above its own optimum: from the
    # Gibbs means it ends at costs of 252 to 4008, where the TLS point scores
    # 170 to 487 (ROADMAP item 2, which starts U at the TLS fit)
    pytest.param("tls_positivity", marks=pytest.mark.xfail(
        strict=True, reason="MAP's alternation stops above its cost at the TLS point")),
])
@pytest.mark.parametrize("rep", range(5))
def test_map_ends_at_most_at_its_cost_at_the_tls_point(config, rep):
    res, _, cost_at_tls = _bench_fits(config, rep)
    assert res.cost_trace[-1] <= cost_at_tls


def test_stop_reason_is_cap_exactly_when_the_trace_is_full(monkeypatch):
    import ioc_eiv.map_estimator as me

    # four of these five shipped spring_damper fits run into the cap and one
    # meets the tolerance
    reasons = set()
    for rep in range(5):
        res = _bench_fits("spring_damper", rep)[0]
        reasons.add(res.stop_reason)
        assert (res.stop_reason == "cap") == (len(res.cost_trace) == 2 * me.MAX_OUTER_ITERS - 1)
    assert reasons == {"cap", "tolerance"}

    # with a one-iteration cap the projection is the whole alternation
    monkeypatch.setattr(me, "MAX_OUTER_ITERS", 1)
    fp, _, ds = _benchmark_demos(10.0, 11, 10)
    cfg = MapConfig(gibbs=GibbsConfig(n_iter=200, n_keep=50), norm=NormalizationRule("sum", 3.0))
    res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(2024))
    assert res.stop_reason == "cap" and len(res.cost_trace) == 1
