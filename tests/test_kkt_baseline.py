"""Least-squares inversion of the optimality conditions (the comparison method)."""

import json

import numpy as np
import pytest

import oracles
from ioc_eiv import bench_cli, kkt_baseline, map_estimator, tls_estimator
from ioc_eiv import (
    GibbsConfig,
    MapConfig,
    NoiseSpec,
    NormalizationRule,
    Qp,
    QpRows,
    default_priors,
    generate,
    kkt_ls,
    kkt_single,
    map_estimate,
    noise_scale_from_percent,
    rmse,
    solve_forward,
    solve_qp,
    tls_estimate,
)
from ioc_eiv.model import (
    DEMO_ACTIVE_TOL,
    ITERATE_ACTIVE_TOL,
    build_stationarity,
    constraint_values,
)


def _benchmark():
    fp = oracles.spring_damper()
    sol = solve_forward(fp, oracles.SPRING_THETA)
    return fp, sol.U


def _noisy_set(fp, U_star, pct, seed, D):
    sig = noise_scale_from_percent(U_star, pct)
    return generate(U_star, NoiseSpec.gaussian(np.diag(sig**2), seed=seed), D, fp)


def test_normalization_rule_is_required():
    fp, U_star = _benchmark()
    with pytest.raises(ValueError):
        kkt_single(U_star, fp, None)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_normalization_value_must_be_positive_and_finite(value):
    # NaN used to pass the value <= 0 test, and every fit then failed
    with pytest.raises(ValueError, match="positive and finite"):
        NormalizationRule("sum", value)


@pytest.mark.parametrize("estimator", ["kkt_ls", "tls_estimate", "map_estimate"])
def test_every_estimator_refuses_a_missing_rule(estimator):
    # the fit is homogeneous in the weights, so no estimator picks a scale itself
    fp, U_star = _benchmark()
    ds = _noisy_set(fp, U_star, 10.0, 5, 4)
    if estimator == "kkt_ls":
        call = lambda: kkt_ls(ds, fp, None)
    elif estimator == "tls_estimate":
        call = lambda: tls_estimate(ds, fp, None)
    else:
        # explicit priors: no prior fit refuses the missing rule for the estimator
        priors = default_priors(ds, fp, NormalizationRule("sum", 22.0))
        cfg = MapConfig(norm=None, priors=priors, gibbs=GibbsConfig(n_iter=20, n_keep=10))
        call = lambda: map_estimate(ds, fp, cfg, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="NormalizationRule is required"):
        call()


def test_noiseless_demo_recovers_weights():
    fp, U_star = _benchmark()
    norm = NormalizationRule("sum", value=float(np.sum(oracles.SPRING_THETA)))
    res = kkt_single(U_star, fp, norm)
    assert rmse(res.theta, oracles.SPRING_THETA) <= 1e-6
    assert res.residual <= 1e-12


def test_noiseless_demo_component_normalization():
    fp, U_star = _benchmark()
    res = kkt_single(U_star, fp, NormalizationRule("component", value=10.0, index=0))
    assert rmse(res.theta, oracles.SPRING_THETA) <= 1e-6


def test_multipliers_feasible_on_every_demo():
    fp, U_star = _benchmark()
    ds = _noisy_set(fp, U_star, 10.0, seed=21, D=8)
    norm = NormalizationRule("sum", value=22.0)
    res = kkt_ls(ds, fp, norm)
    assert np.all(res.theta >= -1e-10)
    for U_d, lam_d in zip(ds.U_list, res.lam_list):
        assert np.min(lam_d) >= -1e-10
        g = constraint_values(fp, U_d)
        assert np.max(np.abs(lam_d * g), initial=0.0) <= 1e-9


def test_single_equals_set_of_one():
    fp, U_star = _benchmark()
    ds = _noisy_set(fp, U_star, 10.0, seed=22, D=1)
    norm = NormalizationRule("sum", value=22.0)
    a = kkt_single(ds.U_list[0], fp, norm)
    b = kkt_ls(ds, fp, norm)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)


def test_noisy_error_magnitude_at_benchmark_level():
    # anchoring the first weight at its true value keeps the remaining
    # error attributable to the input noise alone; the freer sum rule lets
    # the two correlated state weights trade off and lands far higher
    fp, U_star = _benchmark()
    norm = NormalizationRule("component", value=10.0, index=0)
    errs = []
    for seed in range(10):
        ds = _noisy_set(fp, U_star, 10.0, seed=100 + seed, D=10)
        errs.append(rmse(kkt_ls(ds, fp, norm).theta, oracles.SPRING_THETA))
    assert 0.3 <= float(np.median(errs)) <= 3.5


def test_error_does_not_vanish_with_more_demos():
    # the relaxation is biased under input noise: growing D by 32x must not
    # shrink the median error by more than 30 percent
    fp, U_star = _benchmark()
    norm = NormalizationRule("sum", value=22.0)
    med = {}
    for D in (10, 320):
        errs = []
        for seed in range(20):
            ds = _noisy_set(fp, U_star, 20.0, seed=500 + seed, D=D)
            errs.append(rmse(kkt_ls(ds, fp, norm).theta, oracles.SPRING_THETA))
        med[D] = float(np.median(errs))
    assert med[320] >= 0.7 * med[10]


def test_activity_classification_tolerance():
    # both tolerances in use: demonstrations (kkt) and iterates (MAP, TLS)
    fp, U_star = _benchmark()
    bs = build_stationarity(fp)
    g = constraint_values(fp, U_star)
    for tol in (DEMO_ACTIVE_TOL, ITERATE_ACTIVE_TOL):
        act = bs.active_rows(U_star, tol)
        for i, flag in enumerate(act):
            assert flag == (abs(g[i]) <= tol * (1.0 + abs(fp.constraints.h[0])))
        # the cap binds on the first two stages of the benchmark solution
        assert act[0] and act[1]


@pytest.mark.parametrize("rule,row", [
    (NormalizationRule("sum", value=22.0), [1.0, 1.0, 1.0, 0.0, 0.0]),
    (NormalizationRule("component", value=10.0, index=1), [0.0, 1.0, 0.0, 0.0, 0.0]),
])
def test_beta_blocks_fix_the_rule_and_keep_every_variable_nonnegative(rule, row):
    # the blocks of the cone's rows: q = 3 weights followed by 2 free multipliers
    rows = rule.beta_rows(3, 5)
    assert isinstance(rows, QpRows) and rows.n == 5
    np.testing.assert_array_equal(rows.Aeq, [row])
    np.testing.assert_array_equal(rows.beq, [rule.value])
    np.testing.assert_array_equal(rows.Ain, -np.eye(5))
    np.testing.assert_array_equal(rows.bin, np.zeros(5))
    # a floor bounds every variable below, at the same rule
    floored = rule.beta_rows(3, 5, floor=0.25)
    np.testing.assert_array_equal(floored.Aeq, [row])
    np.testing.assert_array_equal(floored.bin, np.full(5, -0.25))


def test_beta_blocks_reject_a_component_outside_the_weights():
    with pytest.raises(ValueError, match="out of range"):
        NormalizationRule("component", index=3).beta_rows(3, 5)


@pytest.mark.parametrize("index", [1.5, -0.0, "1", None])
def test_normalization_index_must_be_an_integer(index):
    # these used to build a rule, then fail at its first QP
    with pytest.raises(TypeError):
        NormalizationRule("component", index=index)


def test_normalization_index_is_kept_as_an_int():
    rule = NormalizationRule("component", index=np.int64(1))
    assert type(rule.index) is int and rule.index == 1


def test_equal_rules_share_one_cone_that_solves_as_rows_built_alone(monkeypatch, tmp_path,
                                                                      capsys):
    # beta_rows is memoised by the rule's values: rules built apart share
    # one QpRows, and a solve on it, whose reduction an earlier QP stored,
    # has the bits of the same QP on rows built for it alone
    rule = NormalizationRule("sum", 22.0)
    assert NormalizationRule("sum", 22).beta_rows(3, 5) is rule.beta_rows(3, 5)
    assert rule.beta_rows(3, 5) is not rule.beta_rows(3, 6)
    assert rule.beta_rows(3, 5, floor=1e-5) is not rule.beta_rows(3, 5)
    assert (NormalizationRule("component", 22.0, 1).beta_rows(3, 5)
            is not NormalizationRule("component", 22.0, 2).beta_rows(3, 5))

    posed = {}
    for module in (kkt_baseline, map_estimator, tls_estimator):
        seen = posed.setdefault(module.__name__.rsplit(".", 1)[1], [])

        def spy(qp, face=None, solve=module.solve_qp, seen=seen):
            seen.append(qp)
            return solve(qp, face=face)

        monkeypatch.setattr(module, "solve_qp", spy)
    fp, U_star = _benchmark()
    ds = _noisy_set(fp, U_star, 10.0, 3, 5)
    q = fp.q
    kkt_ls(ds, fp, NormalizationRule("sum", 22.0))
    map_estimate(ds, fp, MapConfig(norm=NormalizationRule("sum", 22.0),
                                   gibbs=GibbsConfig(n_iter=200, n_keep=100)),
                 rng=np.random.default_rng(4))
    tls_estimate(ds, fp, NormalizationRule("sum", 22.0))
    cones = {
        "kkt_baseline": [qp for qp in posed["kkt_baseline"]
                         if qp.rows is rule.beta_rows(q, qp.dim)],
        "map_estimator": [qp for qp in posed["map_estimator"]
                          if qp.rows is rule.beta_rows(q, qp.dim)],
        "tls_estimator": [qp for qp in posed["tls_estimator"]
                          if qp.rows is rule.beta_rows(q, q, tls_estimator._FLOOR * 22.0)],
    }
    assert cones["kkt_baseline"] == posed["kkt_baseline"]
    assert cones["tls_estimator"] == posed["tls_estimator"]
    assert len(cones["map_estimator"]) >= 2 and len(cones["tls_estimator"]) >= 2
    for qps in cones.values():
        for qp in qps:
            shared = solve_qp(qp)
            alone = solve_qp(Qp(qp.H, qp.c, QpRows(qp.dim, qp.Aeq, qp.beq, qp.Ain, qp.bin)))
            assert shared.z.tobytes() == alone.z.tobytes()
            assert shared.mult_in.tobytes() == alone.mult_in.tobytes()
            assert shared.n_iter == alone.n_iter

    # the memo does not skip the range check: the CLI still refuses the rule
    with open("configs/spring_damper.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["norm"] = {"kind": "component", "index": 5, "value": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert bench_cli.main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: norm: component index 5 out of range for q = {q}"]
