"""Tests for the command line driver: JSON IO, exit codes, CSV outputs."""

import csv
import hashlib
import json

import numpy as np
import pytest

import oracles
from ioc_eiv import forward
from ioc_eiv.bench_cli import main, parse_problem, problem_to_json


def _tiny_config(**over):
    """Small scalar benchmark config that runs in milliseconds."""
    cfg = {
        "problem": {
            "system": {
                "A": {"rows": 1, "cols": 1, "data": [0.8]},
                "B": {"rows": 1, "cols": 1, "data": [0.5]},
            },
            "features": [
                {"kind": "state", "index": 0, "target": 1.0},
                {"kind": "input", "index": 0, "target": 0.0},
            ],
            "constraints": {
                "Hx": {"rows": 1, "cols": 1, "data": [0.0]},
                "Hu": {"rows": 1, "cols": 1, "data": [1.0]},
                "h": [0.6],
            },
            "horizon": 5,
            "x0": [0.0],
            "theta_true": [3.0, 1.0],
        },
        "noise": {"kind": "gaussian", "percent_levels": [5, 10]},
        "n_demos": 4,
        "n_reps": 2,
        "seed": 77,
        "methods": ["kkt", "mean"],
    }
    cfg.update(over)
    return cfg


def _write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_tiny_config(**over)), encoding="utf-8")
    return str(path)


def _make_demo_file(tmp_path, level=5.0, seed=3, **over):
    cfg = _write_config(tmp_path, **over)
    out = tmp_path / "demos.json"
    rc = main(
        ["demos", "--config", cfg, "--level", str(level), "--seed", str(seed),
         "--out", str(out)]
    )
    assert rc == 0
    return str(out)


def _read_rows(out_dir):
    with open(out_dir / "rows.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_problem_round_trip_preserves_fields():
    with open("configs/spring_damper.json", encoding="utf-8") as fh:
        obj = json.load(fh)["problem"]
    fp1 = parse_problem(obj)
    fp2 = parse_problem(problem_to_json(fp1))
    assert np.array_equal(fp1.system.A, fp2.system.A)
    assert np.array_equal(fp1.system.B, fp2.system.B)
    assert np.array_equal(fp1.x0, fp2.x0)
    assert np.array_equal(fp1.theta_true, fp2.theta_true)
    assert fp1.horizon == fp2.horizon
    assert len(fp1.features) == len(fp2.features)
    for f1, f2 in zip(fp1.features, fp2.features):
        assert f1.kind == f2.kind
        assert f1.index == f2.index
        assert f1.target == f2.target
    assert np.array_equal(fp1.constraints.Hx, fp2.constraints.Hx)
    assert np.array_equal(fp1.constraints.Hu, fp2.constraints.Hu)
    assert np.array_equal(fp1.constraints.h, fp2.constraints.h)


def test_forward_command_solves_benchmark(tmp_path):
    out = tmp_path / "fwd.json"
    rc = main(["forward", "--config", "configs/spring_damper.json", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["max_kkt_residual"] <= 1e-6
    np.testing.assert_allclose(res["U"], oracles.SPRING_U_STAR, atol=1e-6)
    np.testing.assert_allclose(res["objective"], oracles.SPRING_OBJECTIVE, rtol=1e-9)
    assert 0 in res["active_set"] and 1 in res["active_set"]


def test_forward_theta_flag_scales_like_weights(tmp_path):
    # doubling every weight leaves the minimizer alone and doubles the cost
    out = tmp_path / "fwd2.json"
    rc = main(
        ["forward", "--config", "configs/spring_damper.json",
         "--theta", "20,10,14", "--out", str(out)]
    )
    assert rc == 0
    res = json.loads(out.read_text())
    np.testing.assert_allclose(res["U"], oracles.SPRING_U_STAR, atol=1e-6)
    np.testing.assert_allclose(res["objective"], 2.0 * oracles.SPRING_OBJECTIVE,
                               rtol=1e-9)


def test_missing_config_file_fails(tmp_path, capsys):
    rc = main(["forward", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "problem": [,\n}\n', encoding="utf-8")
    rc = main(["forward", "--config", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_demos_same_seed_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = main(["demos", "--config", cfg, "--level", "10", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_demos_level_zero_gives_exact_demonstrations(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "exact.json"
    rc = main(["demos", "--config", cfg, "--level", "0", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert len(obj["demos"]) == 4
    for demo in obj["demos"]:
        assert demo == obj["U_star"]


def test_demos_negative_level_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["demos", "--config", cfg, "--level", "-5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_mean_reports_inputs(tmp_path):
    demos = _make_demo_file(tmp_path)
    out = tmp_path / "mean.json"
    rc = main(["estimate", "--demos", demos, "--method", "mean", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["method"] == "mean"
    assert len(res["U_hat"]) == 5
    assert res["rmse_U"] >= 0.0
    assert "theta" not in res


def test_estimate_kkt_reports_weights(tmp_path):
    demos = _make_demo_file(tmp_path)
    out = tmp_path / "kkt.json"
    rc = main(["estimate", "--demos", demos, "--method", "kkt", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert len(res["theta"]) == 2
    # default normalization anchors the weight sum at sum(theta_true)
    np.testing.assert_allclose(sum(res["theta"]), 4.0, rtol=1e-8)
    assert res["residual"] >= 0.0
    assert res["rmse_theta"] >= 0.0


def test_estimate_map_reports_covariance_and_trace(tmp_path):
    demos = _make_demo_file(tmp_path)
    est_cfg = tmp_path / "map_cfg.json"
    est_cfg.write_text(
        json.dumps({"gibbs": {"n_iter": 80, "n_keep": 40}}),
        encoding="utf-8",
    )
    out = tmp_path / "map.json"
    rc = main(
        ["estimate", "--demos", demos, "--method", "map",
         "--config", str(est_cfg), "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["Sigma_U"]["rows"] == res["Sigma_U"]["cols"] == 5
    assert len(res["cost_trace"]) >= 1
    assert all(np.isfinite(res["cost_trace"]))
    assert len(res["theta"]) == 2 and len(res["U_hat"]) == 5
    assert res["rmse_theta"] >= 0.0 and res["rmse_U"] >= 0.0


def test_estimate_tls_reports_trace_and_path(tmp_path):
    demos = _make_demo_file(tmp_path)
    out = tmp_path / "tls.json"
    rc = main(["estimate", "--demos", demos, "--method", "tls", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["Sigma_U"]["rows"] == res["Sigma_U"]["cols"] == 5
    assert res["path"] in ("exact", "penalty", "penalty_unprojected")
    assert len(res["outer_trace"]) >= 1
    assert all(len(pair) == 2 for pair in res["outer_trace"])
    assert len(res["theta"]) == 2 and len(res["U_hat"]) == 5


def test_estimate_unknown_method_is_usage_error(tmp_path, capsys):
    demos = _make_demo_file(tmp_path)
    rc = main(["estimate", "--demos", demos, "--method", "ridge"])
    assert rc == 2
    capsys.readouterr()


def test_estimate_missing_demo_file_fails(tmp_path, capsys):
    rc = main(["estimate", "--demos", str(tmp_path / "none.json"), "--method", "mean"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_outputs_and_rerun_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    dir_a, dir_b = tmp_path / "out_a", tmp_path / "out_b"
    for d in (dir_a, dir_b):
        rc = main(["bench", "--config", cfg, "--out-dir", str(d)])
        assert rc == 0
    capsys.readouterr()

    raw = (dir_a / "rows.csv").read_bytes()
    assert raw == (dir_b / "rows.csv").read_bytes()
    assert b"\r" not in raw

    rows = _read_rows(dir_a)
    assert rows[0] == ["method", "noise_percent", "rep", "seed",
                       "rmse_theta", "rmse_U", "status"]
    # 2 methods x 2 levels x 2 reps
    assert len(rows) == 1 + 8
    for row in rows[1:]:
        assert row[0] in ("kkt", "mean")
        assert "." in row[1]
        assert row[6] == "ok"
        filled = row[4] if row[0] == "kkt" else row[5]
        assert "." in filled

    with open(dir_a / "summary.csv", newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["method", "level", "rmse_theta_mean", "rmse_theta_std",
                        "rmse_U_mean", "rmse_U_std", "n_ok"]
    assert len(srows) == 1 + 4

    with open(dir_a / "timings.csv", newline="") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["method", "noise_percent", "rep", "wall_time_s"]

    summary = json.loads((dir_a / "summary.json").read_text())
    assert summary["master_seed"] == 77
    assert len(summary["cells"]) == 4


def test_bench_parallel_matches_serial(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    dir_s, dir_p = tmp_path / "serial", tmp_path / "par"
    assert main(["bench", "--config", cfg, "--out-dir", str(dir_s)]) == 0
    assert main(["bench", "--config", cfg, "--out-dir", str(dir_p), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert (dir_s / "rows.csv").read_bytes() == (dir_p / "rows.csv").read_bytes()


def test_bench_env_seed_overrides_config(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    dir_a, dir_b = tmp_path / "default", tmp_path / "env"
    assert main(["bench", "--config", cfg, "--out-dir", str(dir_a)]) == 0
    monkeypatch.setenv("IOC_EIV_SEED", "999")
    assert main(["bench", "--config", cfg, "--out-dir", str(dir_b)]) == 0
    capsys.readouterr()
    rows_a, rows_b = _read_rows(dir_a), _read_rows(dir_b)
    assert [r[3] for r in rows_a[1:]] == ["77", "78"] * 4
    assert [r[3] for r in rows_b[1:]] == ["999", "1000"] * 4
    assert rows_a != rows_b


def test_bench_noiseless_level_recovers_truth(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, noise={"kind": "gaussian", "percent_levels": [0]}, n_reps=1
    )
    out_dir = tmp_path / "clean"
    assert main(["bench", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    for row in _read_rows(out_dir)[1:]:
        assert row[6] == "ok"
        err = float(row[4]) if row[0] == "kkt" else float(row[5])
        assert err <= 1e-3


def test_bench_negative_level_fails(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, noise={"kind": "gaussian", "percent_levels": [-5]}
    )
    rc = main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "neg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_records_zero_map_iterations_as_failed_row(tmp_path, capsys):
    # a one-iteration chain is refused with ValueError inside the fit
    cfg = _write_config(
        tmp_path, methods=["kkt", "map"], gibbs={"n_iter": 1, "n_keep": 1},
    )
    out_dir = tmp_path / "zero"
    rc = main(["bench", "--config", cfg, "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert rc == 1  # every map cell failed, but the grid ran to the end
    rows = _read_rows(out_dir)[1:]
    assert len(rows) == 8
    assert {r[6] for r in rows if r[0] == "kkt"} == {"ok"}
    assert {r[6] for r in rows if r[0] == "map"} == {"failed:ValueError"}


@pytest.mark.parametrize("command,where,bad_key,over", [
    ("bench", "config", "tls", {"tls": {"max_outer_iters": 5}}),
    ("demos", "config", "map", {"map": {"max_outer_iters": 100}}),
    ("estimate", "gibbs", "seed", {"gibbs": {"n_iter": 80, "seed": 2024}}),
    ("estimate", "norm", "total", {"norm": {"kind": "sum", "total": 4.0}}),
])
def test_unread_config_key_is_an_error(tmp_path, capsys, command, where, bad_key, over):
    if command == "estimate":
        demos = _make_demo_file(tmp_path)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps(over), encoding="utf-8")
        argv = ["estimate", "--demos", demos, "--method", "kkt", "--config", str(cfg)]
    else:
        cfg = _write_config(tmp_path, **over)
        argv = [command, "--config", cfg, "--out-dir" if command == "bench" else "--out",
                str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{where}: unknown key(s) {bad_key!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bench", "estimate"])
def test_norm_index_out_of_range_is_a_config_error(tmp_path, capsys, command):
    over = {"norm": {"kind": "component", "index": 2, "value": 1.0}}
    if command == "estimate":
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps(over), encoding="utf-8")
        argv = ["estimate", "--demos", _make_demo_file(tmp_path), "--method", "kkt",
                "--config", str(cfg)]
    else:
        argv = ["bench", "--config", _write_config(tmp_path, **over),
                "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "norm: component index 2 out of range for q = 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_unknown_method_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, methods=["kkt", "lasso"])
    rc = main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "bad")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_demos_uses_config_seed_when_flag_absent(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "d.json"
    assert main(["demos", "--config", cfg, "--level", "5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["noise"]["seed"] == 77


def test_demos_match_library_generation(tmp_path):
    # the file the CLI writes must contain exactly what the library returns
    from ioc_eiv.demos import NoiseSpec, generate, noise_scale_from_percent

    demos = _make_demo_file(tmp_path, level=10.0, seed=9)
    obj = json.loads(open(demos).read())
    fp = parse_problem(obj["problem"])
    U_star = forward.solve(fp, fp.theta_true).U
    scale = noise_scale_from_percent(U_star, 10.0, fp.system.m)
    spec = NoiseSpec.gaussian(np.diag(scale**2), seed=9)
    ds = generate(U_star, spec, 4, fp)
    for got, want in zip(obj["demos"], ds.U_list):
        np.testing.assert_array_equal(np.asarray(got), want)


# sha256 of the ``estimate`` JSON for each method on one demo file per
# shipped config, recorded before the method table replaced the per-method
# branches; the rows.csv pins do not cover residual, Sigma_U, cost_trace,
# outer_trace or path.  Like the other golden pins, these depend on the
# numpy/OpenBLAS build.  tls_positivity-map was re-pinned when MAP's
# beta-step stopped freeing the multiplier of the constant terminal row, and
# both map pins when ``estimate --seed`` took the bench's chain stream.
GOLDEN_ESTIMATE_SHA256 = {
    ("spring_damper", "mean"): "1789ebcecbf03730d23192bc5cf5cddb6fdbe7a2d7f5861e30bcb71b3362f6f2",
    ("spring_damper", "kkt"): "41ef5e1c6220f661b73847f171ec25403817e1288c80a47acc28fbd794c36513",
    ("spring_damper", "map"): "99ebc4bb9cf99e9bb13fd462b331acf3f37930d5cf20c0665ac5150ba3f91922",
    ("spring_damper", "tls"): "55b8e592f6a6a87b93a989a5662a24fd5d5e895874b50a072c2a41b85595f52f",
    ("tls_positivity", "mean"): "2d62d22d6acdab13e8cd4f225a4f9b9e9e0bd5dd156bb788844ae6df03117697",
    ("tls_positivity", "kkt"): "afd2e2bc29e32e52b51be2e895bbaf0f53661c0de0aa5798da972f2749d003a5",
    ("tls_positivity", "map"): "4a6be57aed8463ad41831a21b32ddd7632367189e87f32f10b328e429734b1ff",
    ("tls_positivity", "tls"): "405c66f8a8a8ea885b2edbdafc0bce4b67f407da696032cb7a6c8d63e1f949fb",
}
_GOLDEN_DEMOS = {"spring_damper": (10, 20260821), "tls_positivity": (10, 20260824)}


@pytest.mark.parametrize("config,method", sorted(GOLDEN_ESTIMATE_SHA256))
def test_estimate_json_is_bit_identical_to_golden(tmp_path, config, method):
    level, seed = _GOLDEN_DEMOS[config]
    demos = tmp_path / "demos.json"
    assert main(["demos", "--config", f"configs/{config}.json", "--level", str(level),
                 "--seed", str(seed), "--out", str(demos)]) == 0
    args = ["estimate", "--demos", str(demos), "--method", method]
    if method == "map":
        est_cfg = tmp_path / "gibbs.json"
        est_cfg.write_text(json.dumps({"gibbs": {"n_iter": 200, "n_keep": 50}}),
                           encoding="utf-8")
        args += ["--config", str(est_cfg)]
    out = tmp_path / "estimate.json"
    assert main(args + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_ESTIMATE_SHA256[config, method]


@pytest.mark.parametrize("config,norm", [
    pytest.param("spring_damper", None, id="spring_damper"),
    pytest.param("tls_positivity", None, id="tls_positivity"),
    pytest.param("tls_positivity", {"kind": "component", "index": 0, "value": 4.0},
                 id="tls_positivity-component_norm"),
])
def test_estimate_agrees_with_bench_rows(tmp_path, capsys, config, norm):
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    # both bench and estimate read this config, so MAP runs one chain budget
    # and every method one normalization rule
    cfg.update(methods=["kkt", "mean", "tls", "map"], n_reps=2,
               gibbs={"n_iter": 200, "n_keep": 50})
    if norm is not None:
        cfg["norm"] = norm
    cfg["noise"]["percent_levels"] = [5, 20]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rows = _read_rows(out_dir)[1:]
    assert len(rows) == 4 * 2 * 2
    for method, level, rep, seed, rmse_theta, rmse_U, status in rows:
        assert status == "ok"
        demos = tmp_path / f"demos-{level}-{rep}.json"
        if not demos.exists():
            assert main(["demos", "--config", str(cfg_path), "--level", level,
                         "--seed", seed, "--out", str(demos)]) == 0
        out = tmp_path / f"{method}-{level}-{rep}.json"
        assert main(["estimate", "--demos", str(demos), "--method", method,
                     "--config", str(cfg_path), "--seed", seed, "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res.get("rmse_theta") == (float(rmse_theta) if rmse_theta else None)
        assert res.get("rmse_U") == (float(rmse_U) if rmse_U else None)
