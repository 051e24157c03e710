"""Acceptance suite: one test per shipped claim of the library.

Each test prints a single PASS or FAIL line with the measured numbers, so
``pytest tests/test_acceptance.py -s`` doubles as a report.  The stochastic
checks compare trends and tolerances, not exact table values, because the
reference experiments do not pin demo counts or seeds.
"""

import json
import time
from itertools import groupby

import numpy as np

import oracles
from ioc_eiv import (
    DemoSet,
    GibbsConfig,
    MapConfig,
    NoiseSpec,
    NormalizationRule,
    Priors,
    consistency_cost_check,
    generate,
    gibbs_run,
    kkt_ls,
    map_estimate,
    mh_step,
    noise_scale_from_percent,
    rescale_to_l1,
    rmse,
    sample_mean,
    solve_forward,
    solve_qp,
    tls_estimate,
)
from ioc_eiv.bench_cli import main as cli_main
from ioc_eiv.mcmc import (
    full_conditional_U,
    full_conditional_beta,
    sample_inverse_wishart,
)
from ioc_eiv.model import (
    ForwardProblem,
    LinearSystem,
    QuadraticFeature,
    build_stationarity,
    kkt_residual,
)

SPRING_THETA = np.asarray(oracles.SPRING_THETA, dtype=float)
SPRING_U = np.asarray(oracles.SPRING_U_STAR, dtype=float)
NORM22 = NormalizationRule(kind="sum", value=float(SPRING_THETA.sum()))


def _report(name, checks, summary=""):
    bad = [d for ok, d in checks if not ok]
    tag = "PASS" if not bad else "FAIL"
    extra = summary if not bad else "; ".join(bad)
    print(f"{tag} {name}" + (f": {extra}" if extra else ""))
    assert not bad, f"{name}: " + "; ".join(bad)


def _theta_err(theta):
    return rmse(rescale_to_l1(theta, float(SPRING_THETA.sum())), SPRING_THETA)


def test_forward_benchmark_optimality():
    fp = oracles.spring_damper()
    t0 = time.perf_counter()
    sol = solve_forward(fp, SPRING_THETA)
    elapsed = time.perf_counter() - t0
    res = kkt_residual(fp, SPRING_THETA, sol.lam, sol.U)
    blocks = {
        "stationarity": float(np.max(np.abs(res.stationarity))),
        "complementarity": float(np.max(np.abs(res.complementarity))),
        "primal": float(np.max(res.primal_violation)),
        "dual": float(np.max(res.dual_violation)),
    }
    n_capped = int(np.sum(sol.U > 0.7 - 1e-6))
    free_peak = float(np.max(solve_forward(oracles.spring_damper(cap=1e9), SPRING_THETA).U))
    checks = [
        (v <= 1e-6, f"{k} residual {v:.2e}") for k, v in blocks.items()
    ] + [
        (n_capped >= 1, f"cap active on {n_capped} steps"),
        (free_peak > 0.7, f"uncapped peak input {free_peak:.3f} not above 0.7"),
        (elapsed < 1.0, f"solve took {elapsed:.3f}s"),
    ]
    _report(
        "forward optimality on the spring-damper benchmark",
        checks,
        f"max residual {max(blocks.values()):.2e}, cap active on {n_capped} steps, "
        f"uncapped peak {free_peak:.3f}, {elapsed * 1e3:.0f} ms",
    )


def test_qp_matches_projected_gradient_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        qp, _ = oracles.random_feasible_qp(rng)
        z = solve_qp(qp).z
        z_pg = oracles.pg_solve(qp.H, qp.c, qp.Ain, qp.bin)

        def f(x):
            return 0.5 * float(x @ qp.H @ x) + float(qp.c @ x)

        gap = abs(f(z) - f(z_pg)) / (1.0 + abs(f(z_pg)))
        worst = max(worst, gap)
    _report(
        "active-set QP agrees with projected gradient on 50 random problems",
        [(worst <= 1e-6, f"worst relative value gap {worst:.2e}")],
        f"worst relative value gap {worst:.2e}",
    )


def _toy_problem():
    sysd = LinearSystem(np.array([[0.9]]), np.array([[0.5]]))
    return ForwardProblem(
        sysd,
        (QuadraticFeature("input", 0, 0.0),),
        oracles.no_constraints(1, 1),
        1,
        np.array([0.4]),
    )


def _toy_demos(fp, values):
    return DemoSet(
        U_list=tuple(np.array([float(v)]) for v in values),
        fp_ref=fp,
        U_star=None,
    )


def test_full_conditionals_and_inverse_wishart():
    t0 = time.perf_counter()
    fp = _toy_problem()
    bs = build_stationarity(fp)

    priors_b = Priors(
        U0=np.array([0.0]), Sigma_U0=np.array([[4.0]]),
        beta0=np.array([1.2]), Sigma_beta=np.array([[0.4**2]]),
        W_U=np.eye(1), m_U=3.0, Sigma_Y=np.array([[0.08**2]]),
    )
    ds = _toy_demos(fp, [0.35, 0.42, 0.31])
    U = np.array([0.4])
    mean_b, cov_b = full_conditional_beta(ds, U, bs, priors_b)

    def log_density_b(b):
        lp = -0.5 * (b - 1.2) ** 2 / 0.4**2
        lp -= ds.n_demos * 0.5 * (2.0 * U[0] * b) ** 2 / 0.08**2
        return lp

    grid = np.linspace(mean_b[0] - 8 * np.sqrt(cov_b[0, 0]),
                       mean_b[0] + 8 * np.sqrt(cov_b[0, 0]), 4001)
    tv_beta = oracles.grid_tv(grid, log_density_b, mean_b[0], cov_b[0, 0])

    priors_u = Priors(
        U0=np.array([0.1]), Sigma_U0=np.array([[1.5**2]]),
        beta0=np.array([1.0]), Sigma_beta=np.array([[0.25]]),
        W_U=np.eye(1), m_U=3.0, Sigma_Y=np.array([[0.1**2]]),
    )
    ds_u = _toy_demos(fp, [0.3, 0.55])
    mean_u, cov_u = full_conditional_U(ds_u, np.array([0.8]),
                                       np.array([[0.2**2]]), bs, priors_u)

    def log_density_u(u):
        lp = -0.5 * (u - 0.1) ** 2 / 1.5**2
        lp -= 0.5 * ds_u.n_demos * (2.0 * 0.8 * u) ** 2 / 0.1**2
        for U_d in ds_u.U_list:
            lp -= 0.5 * (U_d[0] - u) ** 2 / 0.2**2
        return lp

    grid_u = np.linspace(mean_u[0] - 8 * np.sqrt(cov_u[0, 0]),
                         mean_u[0] + 8 * np.sqrt(cov_u[0, 0]), 4001)
    tv_u = oracles.grid_tv(grid_u, log_density_u, mean_u[0], cov_u[0, 0])

    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    nu = 10.0
    rng = np.random.default_rng(8)
    acc = np.zeros((2, 2))
    n_draws = 100_000
    for _ in range(n_draws):
        acc += sample_inverse_wishart(W, nu, rng)
    emp = acc / n_draws
    target = W / (nu - 2 - 1)
    iw_err = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    elapsed = time.perf_counter() - t0
    checks = [
        (tv_beta <= 1e-3, f"weight conditional TV {tv_beta:.2e}"),
        (tv_u <= 1e-3, f"input conditional TV {tv_u:.2e}"),
        (iw_err <= 0.05, f"inverse-Wishart mean off by {iw_err:.3f}"),
        (elapsed < 30.0, f"took {elapsed:.1f}s"),
    ]
    _report(
        "full conditionals match grid quadrature, inverse-Wishart mean correct",
        checks,
        f"TV {tv_beta:.1e}/{tv_u:.1e}, IW mean error {iw_err * 100:.1f}%, {elapsed:.1f}s",
    )


def test_error_table_trend_at_three_noise_levels():
    fp = oracles.spring_damper()
    cfg = MapConfig(norm=NORM22)
    t0 = time.perf_counter()
    med = {}
    for level in (5.0, 10.0, 20.0):
        scale = noise_scale_from_percent(SPRING_U, level, fp.system.m)
        kkt_t, map_t, map_u, mean_u = [], [], [], []
        for rep in range(10):
            seed = 1000 + rep
            ds = generate(SPRING_U, NoiseSpec.gaussian(np.diag(scale**2), seed), 10, fp)
            mean_u.append(rmse(sample_mean(ds), SPRING_U))
            kkt_t.append(_theta_err(kkt_ls(ds, fp, NORM22).theta))
            res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(seed))
            map_t.append(_theta_err(res.theta))
            map_u.append(rmse(res.U_hat, SPRING_U))
        med[level] = tuple(float(np.median(v)) for v in (kkt_t, map_t, mean_u, map_u))
    elapsed = time.perf_counter() - t0
    checks = []
    for level in (10.0, 20.0):
        k, m, _, _ = med[level]
        checks.append((m < k, f"at {level:.0f}%: weight error {m:.3f} not below {k:.3f}"))
    for level in (5.0, 10.0, 20.0):
        _, _, mu, pu = med[level]
        checks.append((pu < mu, f"at {level:.0f}%: input error {pu:.4f} not below {mu:.4f}"))
    m10 = med[10.0][1]
    checks.append((0.05 <= m10 <= 1.6, f"weight error at 10% is {m10:.3f}"))
    checks.append((elapsed < 180.0, f"took {elapsed:.0f}s"))
    _report(
        "posterior estimator beats baselines across noise levels",
        checks,
        f"weight error at 10%: {med[10.0][1]:.3f} vs baseline {med[10.0][0]:.3f}; "
        f"input error at 10%: {med[10.0][3]:.4f} vs mean {med[10.0][2]:.4f}; {elapsed:.0f}s",
    )


def test_map_error_shrinks_with_demo_count():
    fp = oracles.spring_damper()
    cfg = MapConfig(norm=NORM22)
    scale = noise_scale_from_percent(SPRING_U, 10.0, fp.system.m)
    Ds = (5, 20, 80, 320)
    t0 = time.perf_counter()
    med_map, med_kkt = {}, {}
    for D in Ds:
        map_e, kkt_e = [], []
        for s in range(10):
            seed = 2000 + s
            ds = generate(SPRING_U, NoiseSpec.gaussian(np.diag(scale**2), seed), D, fp)
            kkt_e.append(_theta_err(kkt_ls(ds, fp, NORM22).theta))
            res = map_estimate(ds, fp, cfg, rng=np.random.default_rng(seed))
            map_e.append(_theta_err(res.theta))
        med_map[D] = float(np.median(map_e))
        med_kkt[D] = float(np.median(kkt_e))
    elapsed = time.perf_counter() - t0
    checks = []
    for a, b in zip(Ds, Ds[1:]):
        checks.append(
            (med_map[b] <= 1.2 * med_map[a],
             f"median rose from {med_map[a]:.3f} (D={a}) to {med_map[b]:.3f} (D={b})")
        )
    checks.append(
        (med_map[320] < 0.5 * med_map[5],
         f"D=320 median {med_map[320]:.3f} not under half of D=5 ({med_map[5]:.3f})")
    )
    checks.append(
        (not med_kkt[320] < 0.5 * med_kkt[5],
         "residual-fit baseline also halved, so the contrast is lost")
    )
    checks.append((elapsed < 300.0, f"took {elapsed:.0f}s"))
    seq = "/".join(f"{med_map[D]:.3f}" for D in Ds)
    kkt_seq = f"{med_kkt[5]:.2f}->{med_kkt[320]:.2f}"
    _report(
        "posterior weight error shrinks with demo count, baseline stalls",
        checks,
        f"medians {seq} over D=5/20/80/320, baseline {kkt_seq}, {elapsed:.0f}s",
    )


def test_tls_error_shrinks_under_uniform_noise():
    fp = oracles.spring_damper()
    scale = noise_scale_from_percent(SPRING_U, 10.0, fp.system.m)
    hw = np.sqrt(3.0) * scale
    Ds = (5, 20, 80, 320)
    t0 = time.perf_counter()
    med = {}
    for D in Ds:
        errs = []
        for s in range(10):
            ds = generate(SPRING_U, NoiseSpec.uniform(hw, 3000 + s), D, fp)
            errs.append(_theta_err(tls_estimate(ds, fp, NORM22).theta))
        med[D] = float(np.median(errs))
    elapsed = time.perf_counter() - t0
    checks = []
    for a, b in zip(Ds, Ds[1:]):
        checks.append(
            (med[b] <= 1.2 * med[a],
             f"median rose from {med[a]:.3f} (D={a}) to {med[b]:.3f} (D={b})")
        )
    checks.append(
        (med[320] < 0.5 * med[5],
         f"D=320 median {med[320]:.3f} not under half of D=5 ({med[5]:.3f})")
    )
    checks.append((elapsed < 300.0, f"took {elapsed:.0f}s"))
    seq = "/".join(f"{med[D]:.3f}" for D in Ds)
    _report(
        "corrected least squares is consistent under uniform noise",
        checks,
        f"medians {seq} over D=5/20/80/320, {elapsed:.0f}s",
    )


def test_large_sample_cost_separates_truth():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, SPRING_THETA)
    scale = noise_scale_from_percent(SPRING_U, 10.0, fp.system.m)
    spec = NoiseSpec.gaussian(np.diag(scale**2), seed=7)
    report = consistency_cost_check(
        fp, SPRING_THETA, sol.U, 2000, spec, np.random.default_rng(7),
        lam_star=sol.lam,
    )
    frac = report["overall"]
    _report(
        "large-sample cost puts the truth below random perturbations",
        [(frac >= 0.99, f"only {frac:.3f} of perturbations cost more")],
        f"{frac:.3f} of perturbations cost more at D=2000",
    )


def test_alternation_monotonicity_and_feasibility():
    rng = np.random.default_rng(12345)
    worst_map = 0.0
    worst_tls = 0.0
    worst_feas = 0.0
    for i in range(20):
        fp, theta = oracles.random_instance(rng)
        sol = solve_forward(fp, theta)
        u = sol.U.reshape(fp.horizon, fp.system.m)
        sigma = 0.05 * (np.abs(u).mean(axis=0) + 0.05)
        ds = generate(sol.U, NoiseSpec.gaussian(np.diag(sigma**2), 100 + i), 4, fp)
        norm = NormalizationRule(kind="sum", value=float(theta.sum()))

        mres = map_estimate(
            ds, fp, MapConfig(norm=norm, gibbs=GibbsConfig(800, 200)),
            rng=np.random.default_rng(500 + i),
        )
        for a, b in zip(mres.cost_trace, mres.cost_trace[1:]):
            worst_map = max(worst_map, (b - a) / (1.0 + abs(a)))

        tres = tls_estimate(ds, fp, norm)
        for trace in tres.inner_traces:
            for _, grp in groupby(trace, key=lambda t: t[0]):
                vals = [g[1] for g in grp]
                for a, b in zip(vals, vals[1:]):
                    worst_tls = max(worst_tls, (b - a) / (1.0 + abs(a)))

        for th, lam, U in ((mres.theta, mres.lam, mres.U_hat),
                           (tres.theta, tres.lam, tres.U_hat)):
            res = kkt_residual(fp, th, lam, U)
            worst_feas = max(
                worst_feas,
                float(np.max(np.abs(res.complementarity), initial=0.0)),
                float(np.max(res.primal_violation, initial=0.0)),
                float(np.max(res.dual_violation, initial=0.0)),
            )
    checks = [
        (worst_map <= 1e-12, f"posterior cost rose by {worst_map:.2e}"),
        (worst_tls <= 1e-12, f"inner merit rose by {worst_tls:.2e}"),
        (worst_feas <= 1e-8, f"feasibility violated by {worst_feas:.2e}"),
    ]
    _report(
        "alternating solvers descend and return feasible points on 20 random problems",
        checks,
        f"worst cost rise {worst_map:.1e}/{worst_tls:.1e}, "
        f"worst feasibility violation {worst_feas:.1e}",
    )


def test_mh_moments_and_gibbs_agreement():
    rng = np.random.default_rng(6)

    def logp(z):
        return -0.5 * float(z @ z)

    def sampler(r, frm):
        return frm + 2.4 * r.standard_normal(1)

    state = np.zeros(1)
    draws = np.empty(100_000)
    for i in range(draws.shape[0]):
        state, _ = mh_step(state, logp, sampler, lambda to, frm: 0.0, rng)
        draws[i] = state[0]
    mean, var = float(draws.mean()), float(draws.var())

    fp = _toy_problem()
    priors = Priors(
        U0=np.array([0.0]), Sigma_U0=np.array([[4.0]]),
        beta0=np.array([1.0]), Sigma_beta=np.array([[0.25]]),
        W_U=np.eye(1), m_U=3.0, Sigma_Y=np.array([[0.05**2]]),
    )
    ds = _toy_demos(fp, [0.31, 0.45, 0.38, 0.52, 0.41, 0.35])
    exact = gibbs_run(ds, fp, priors, n_iter=12000, n_keep=10000,
                      rng=np.random.default_rng(61), u_step="exact")
    walk = gibbs_run(ds, fp, priors, n_iter=12000, n_keep=10000,
                     rng=np.random.default_rng(62), u_step="mh", mh_scale=0.05)
    checks = [
        (abs(mean) <= 0.02, f"walk mean {mean:.4f}"),
        (0.95 <= var <= 1.05, f"walk variance {var:.4f}"),
    ]
    ratios = []
    for name, ce, cm in (
        ("input", [s.U[0] for s in exact.samples], [s.U[0] for s in walk.samples]),
        ("weight", [s.beta[0] for s in exact.samples], [s.beta[0] for s in walk.samples]),
    ):
        se = float(np.hypot(oracles.batch_se(ce), oracles.batch_se(cm)))
        diff = abs(float(np.mean(ce)) - float(np.mean(cm)))
        ratios.append(diff / (3.0 * se))
        checks.append(
            (diff <= 3.0 * se,
             f"{name} means differ by {diff:.4f}, over 3 standard errors ({3 * se:.4f})")
        )
    _report(
        "Metropolis-Hastings moments and agreement with the exact chain",
        checks,
        f"walk mean {mean:.3f}, variance {var:.3f}; "
        f"chain gaps at {max(ratios) * 100:.0f}% of the 3-SE budget",
    )


def test_bench_rerun_is_byte_identical(tmp_path, capsys):
    with open("configs/spring_damper.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(
        {
            "n_demos": 5,
            "n_reps": 2,
            "seed": 4242,
            "methods": ["mean", "kkt", "map", "tls"],
            "gibbs": {"n_iter": 150, "n_keep": 60},
        }
    )
    cfg["noise"]["percent_levels"] = [5, 10]
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        rc = cli_main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 0
        outs.append((out_dir / "rows.csv").read_bytes())
    capsys.readouterr()
    n_rows = outs[0].count(b"\n") - 1
    _report(
        "repeated benchmark runs with one master seed are byte-identical",
        [(outs[0] == outs[1], "rows.csv differs between identical runs")],
        f"{n_rows} result rows identical across runs",
    )
