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


@pytest.mark.parametrize("theta", ["1,2", "a,b,c", "0,1,1"])
def test_forward_bad_theta_is_one_error_line(tmp_path, capsys, theta):
    # a wrong count, a non-number or a non-positive weight used to end in a
    # ValueError traceback
    out = tmp_path / "fwd.json"
    rc = main(["forward", "--config", "configs/spring_damper.json", "--theta", theta,
               "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --theta")
    assert not out.exists()


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
    # the per-step covariance of the one input channel, not the stacked 5 x 5
    assert res["Sigma_u"]["rows"] == res["Sigma_u"]["cols"] == 1
    assert "Sigma_U" not in res
    assert res["path"] in ("exact", "floor")
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


@pytest.mark.parametrize("field", ["demos[1]", "U_star"])
@pytest.mark.parametrize("method", ["mean", "kkt", "tls"])
def test_estimate_wrong_length_demo_is_one_error_line(tmp_path, capsys, method, field):
    # m*N = 5 here; a demo one entry short used to end in a numpy traceback
    path = _make_demo_file(tmp_path)
    obj = json.loads(open(path, encoding="utf-8").read())
    if field == "U_star":
        obj["U_star"] = obj["U_star"][:-1]
    else:
        obj["demos"][1] = obj["demos"][1][:-1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    assert main(["estimate", "--demos", path, "--method", method]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: demo file: {field} has 4 entries, expected m*N = 5"]


@pytest.mark.parametrize("content,message", [
    ([], "expected a JSON object"),
    ("x", "expected a JSON object"),
    ({"problem": {}, "demos": [], "level": 5}, "unknown key(s) 'level'"),
], ids=["list", "string", "unknown-key"])
def test_estimate_malformed_demo_file_is_one_error_line(tmp_path, capsys, content, message):
    # a demo file that is not an object used to end in a TypeError traceback
    path = tmp_path / "demos.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert main(["estimate", "--demos", str(path), "--method", "tls"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: demo file: {message}")


@pytest.mark.parametrize("command", ["demos", "bench"])
def test_config_without_a_problem_is_one_error_line(tmp_path, capsys, command):
    # demos used to read the whole config as a bare problem, and named the
    # config's own keys as unknown problem keys
    cfg = _tiny_config()
    del cfg["problem"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = str(tmp_path / "out")
    argv = ["demos", "--config", str(path), "--out", out] if command == "demos" else [
        "bench", "--config", str(path), "--out-dir", out]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: config needs a 'problem' object"]
    assert not (tmp_path / "out").exists()


def test_demos_without_a_level_takes_the_first_grid_level(tmp_path):
    cfg = _write_config(tmp_path, noise={"kind": "gaussian", "percent_levels": [10, 5]})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demos", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
    assert main(["demos", "--config", cfg, "--seed", "5", "--level", "10", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["noise"]["percent"] == 10.0


@pytest.mark.parametrize("field,value", [("demos[1]", "1.0"), ("U_star", False)])
def test_estimate_text_or_bool_in_a_demo_is_one_error_line(tmp_path, capsys, field, value):
    path = _make_demo_file(tmp_path)
    obj = json.loads(open(path, encoding="utf-8").read())
    (obj["U_star"] if field == "U_star" else obj["demos"][1])[0] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    assert main(["estimate", "--demos", path, "--method", "mean"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: demo file: {field}: expected float, got {value!r}"]


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out-dir", str(out_dir), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


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
    ("demos", "noise", "percent", {"noise": {"kind": "gaussian", "percent": 5,
                                             "percent_levels": [5]}}),
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


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


@pytest.mark.parametrize("where,bad_key,edit", [
    ("problem", "constraint", lambda cfg: _rename(cfg["problem"], "constraints", "constraint")),
    ("problem.features[0]", "targt",
     lambda cfg: _rename(cfg["problem"]["features"][0], "target", "targt")),
    ("problem.system", "C", lambda cfg: cfg["problem"]["system"].update(C=[[1.0]])),
    ("problem.system.A", "dtype", lambda cfg: cfg["problem"]["system"]["A"].update(dtype="f4")),
    ("problem.constraints", "g", lambda cfg: cfg["problem"]["constraints"].update(g=[0.0])),
    ("noise", "knd", lambda cfg: _rename(cfg["noise"], "kind", "knd")),
], ids=["constraint", "targt", "system", "matrix", "constraints", "noise"])
def test_misspelled_problem_or_noise_key_is_an_error(tmp_path, capsys, where, bad_key, edit):
    # each of these used to be ignored: the grid ran without the constraint,
    # at target 0 or with gaussian noise, and exited 0
    cfg = _tiny_config()
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{where}: unknown key(s) {bad_key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _bad_problem(edit):
    """The tiny config's problem after ``edit``, as a config override."""
    problem = _tiny_config()["problem"]
    edit(problem)
    return {"problem": problem}


_X0_TEXT = _bad_problem(lambda p: p.update(x0=["2.0"]))
_H_BOOL = _bad_problem(lambda p: p["constraints"].update(h=[False]))
_DATA_TEXT = _bad_problem(lambda p: p["system"]["A"].update(data=["0.8"]))
_TARGET_TEXT = _bad_problem(lambda p: p["features"][0].update(target="1.0"))
_NORM_BOOL = {"norm": {"kind": "sum", "value": True}}


@pytest.mark.parametrize("command,name,over", [
    ("bench", "gibbs.n_iter", {"gibbs": {"n_iter": "many"}, "methods": ["kkt", "map"]}),
    ("estimate", "gibbs.n_iter", {"gibbs": {"n_iter": "many"}}),
    ("bench", "n_demos", {"n_demos": "ten"}),
    ("demos", "n_demos", {"n_demos": "ten"}),
    ("bench", "n_demos", {"n_demos": 0}),
    ("demos", "n_demos", {"n_demos": 0}),
    ("demos", "noise.percent_levels", {"noise": {"kind": "gaussian", "percent_levels": 5}}),
    ("bench", "n_demos", {"n_demos": "3"}),
    ("demos", "n_demos", {"n_demos": "3"}),
    ("bench", "norm.value", _NORM_BOOL),
    ("estimate", "norm.value", _NORM_BOOL),
    ("bench", "problem.x0", _X0_TEXT),
    ("demos", "problem.x0", _X0_TEXT),
    ("estimate", "problem.x0", _X0_TEXT),
    ("bench", "problem.constraints.h", _H_BOOL),
    ("demos", "problem.constraints.h", _H_BOOL),
    ("estimate", "problem.constraints.h", _H_BOOL),
    ("demos", "problem.system.A.data", _DATA_TEXT),
    ("estimate", "problem.features[0].target", _TARGET_TEXT),
    ("bench", "noise.lower", {"noise": {"kind": "truncated_gaussian", "lower": "0",
                                        "upper": 1.0, "percent_levels": [5]}}),
    ("demos", "noise.upper", {"noise": {"kind": "truncated_gaussian", "lower": 0.0,
                                        "upper": [True], "percent_levels": [5]}}),
], ids=["bench-n_iter-many", "estimate-n_iter-many", "bench-n_demos-ten", "demos-n_demos-ten",
        "bench-n_demos-0", "demos-n_demos-0", "demos-percent_levels-5", "bench-n_demos-text",
        "demos-n_demos-text", "bench-norm-bool", "estimate-norm-bool", "bench-x0-text",
        "demos-x0-text", "estimate-x0-text", "bench-h-bool", "demos-h-bool", "estimate-h-bool",
        "demos-data-text", "estimate-target-text", "bench-lower-text", "demos-upper-bool"])
def test_bad_setting_is_one_error_line_before_any_fit(tmp_path, capsys, command, name, over):
    # a JSON string or bool where a number belongs used to be converted:
    # n_demos "3" drew 3 demos and norm value true fitted under a sum of 1.0
    cfg, out = _write_config(tmp_path, "bad.json", **over), str(tmp_path / "out")
    if command == "estimate":
        demos = _make_demo_file(tmp_path)
        if "problem" in over:
            # estimate reads the problem from the demo file
            obj = json.loads(open(demos, encoding="utf-8").read())
            obj["problem"] = over["problem"]
            with open(demos, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = ["estimate", "--demos", demos, "--method", "map",
                "--config", cfg, "--out", out]
    elif command == "demos":
        argv = ["demos", "--config", cfg, "--level", "5", "--out", out]
    else:
        argv = ["bench", "--config", cfg, "--out-dir", out]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,edit", [
    ("n_demos", lambda cfg: cfg.update(n_demos=2.5)),
    ("n_reps", lambda cfg: cfg.update(n_reps=1.5)),
    ("seed", lambda cfg: cfg.update(seed=True)),
    ("gibbs.n_iter", lambda cfg: cfg.update(gibbs={"n_iter": 200.5}, methods=["map"])),
    ("problem.horizon", lambda cfg: cfg["problem"].update(horizon=8.9)),
    ("problem.features[0].index", lambda cfg: cfg["problem"]["features"][0].update(index=0.5)),
    ("problem.system.A.rows", lambda cfg: cfg["problem"]["system"]["A"].update(rows=True)),
    ("norm.index", lambda cfg: cfg.update(norm={"kind": "component", "index": 1.5})),
], ids=["n_demos", "n_reps", "seed", "gibbs", "horizon", "feature", "matrix", "norm"])
def test_fractional_or_boolean_count_is_an_error(tmp_path, capsys, name, edit):
    # int() used to truncate these: n_demos 2.5 ran 2 demos and exited 0
    cfg = _tiny_config()
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: expected int")
    assert not (tmp_path / "out" / "rows.csv").exists()


def test_bench_unknown_method_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, methods=["kkt", "lasso"])
    rc = main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "bad")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [5, ["kkt", "kkt"], [["kkt"]], "kkt", []],
                         ids=["int", "repeated", "nested", "string", "empty"])
def test_bench_methods_must_be_a_list_of_distinct_names(tmp_path, capsys, methods):
    # 5 used to end in a TypeError traceback, and a repeated name ran every
    # task twice and wrote each summary cell twice
    cfg = _write_config(tmp_path, methods=methods)
    assert main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: methods must be a nonempty list of distinct names")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,name,flag,over,env", [
    ("demos", "--seed", "-1", {}, None),
    ("estimate", "--seed", "-1", {}, None),
    ("demos", "seed", None, {"seed": -5}, None),
    ("bench", "seed", None, {"seed": -5}, None),
    ("demos", "IOC_EIV_SEED", None, {}, "-3"),
    ("bench", "IOC_EIV_SEED", None, {}, "-3"),
], ids=["demos-flag", "estimate-flag", "demos-config", "bench-config", "demos-env", "bench-env"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, monkeypatch,
                                         command, name, flag, over, env):
    # numpy's seed sequences refuse a negative seed with a ValueError traceback
    out = str(tmp_path / "out")
    if command == "estimate":
        argv = ["estimate", "--demos", _make_demo_file(tmp_path), "--method", "kkt", "--out", out]
    else:
        cfg = _write_config(tmp_path, "seed.json", **over)
        argv = (["demos", "--config", cfg, "--level", "5", "--out", out] if command == "demos"
                else ["bench", "--config", cfg, "--out-dir", out])
    if flag is not None:
        argv += ["--seed", flag]
    if env is not None:
        monkeypatch.setenv("IOC_EIV_SEED", env)
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    value = flag or env or over["seed"]
    assert lines == [f"error: {name}: expected a nonnegative integer, got {value}"]
    assert not (tmp_path / "out").exists()


_NON_FINITE = "@non-finite@"


@pytest.mark.parametrize("command,edit,literal", [
    ("bench", lambda cfg: cfg.update(norm={"kind": "sum", "value": _NON_FINITE}), "NaN"),
    ("forward", lambda cfg: cfg["problem"]["theta_true"].__setitem__(0, _NON_FINITE), "NaN"),
    ("forward", lambda cfg: cfg["problem"]["x0"].__setitem__(0, _NON_FINITE), "NaN"),
    ("bench", lambda cfg: cfg["noise"].update(percent_levels=[_NON_FINITE]), "Infinity"),
    ("demos", lambda cfg: cfg["problem"]["system"]["A"]["data"].__setitem__(0, _NON_FINITE),
     "-Infinity"),
    ("forward", lambda cfg: cfg["problem"]["x0"].__setitem__(0, _NON_FINITE), "1e400"),
    ("forward", lambda cfg: cfg["problem"]["x0"].__setitem__(0, _NON_FINITE), "1" + "0" * 400),
], ids=["norm-nan", "theta_true-nan", "x0-nan", "percent_levels-inf", "A-minus-inf",
        "x0-1e400", "x0-huge-int"])
def test_non_finite_number_is_one_error_line(tmp_path, capsys, command, edit, literal):
    # Python's decoder takes these; NaN passed every positivity test, and
    # bench wrote ok rows at an infinite noise level
    cfg = _tiny_config()
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace(json.dumps(_NON_FINITE), literal), encoding="utf-8")
    out = str(tmp_path / "out")
    argv = [command, "--config", str(path)]
    argv += {"forward": ["--out", out], "demos": ["--level", "5", "--out", out],
             "bench": ["--out-dir", out]}[command]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_demos_non_finite_level_is_one_error_line(tmp_path, capsys, level):
    # --level nan used to write demonstrations full of NaN and exit 0
    out = tmp_path / "out"
    assert main(["demos", "--config", _write_config(tmp_path), "--level", level,
                 "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: noise: pct must be positive and finite, got {float(level)}"]
    assert not out.exists()


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


# sha256 of the ``forward`` JSON of each shipped config at its theta_true,
# recorded before its ``active_set`` came from the face model's active_rows
# instead of the QP solver's own activity test.  Like the other golden pins,
# these depend on the numpy/OpenBLAS build.
GOLDEN_FORWARD_SHA256 = {
    "spring_damper": "f25ba011f9ec13f7725d04277e0fd25da36e099f1437275b01f5364dbd2ed118",
    "tls_positivity": "d289fba30b711eac6679c64bd93863c105a5f600c0d74b07a9b72f057432ba61",
}


@pytest.mark.parametrize("config", sorted(GOLDEN_FORWARD_SHA256))
def test_forward_json_is_bit_identical_to_golden(tmp_path, config):
    out = tmp_path / "forward.json"
    assert main(["forward", "--config", f"configs/{config}.json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FORWARD_SHA256[config]


# sha256 of the ``estimate`` JSON for each method on one demo file per
# shipped config, recorded before the method table replaced the per-method
# branches; the rows.csv pins do not cover residual, Sigma_U, Sigma_u,
# cost_trace or path.  Like the other golden pins, these depend on the
# numpy/OpenBLAS build.  tls_positivity-map was re-pinned when MAP's beta-step stopped
# freeing the multiplier of the constant terminal row, both map pins when
# ``estimate --seed`` took the bench's chain stream, both tls pins when
# TLS dropped its covariance loop for one fit at the per-step covariance, and
# both map pins again when the inverse-Wishart draw and MAP's prior and
# U-step precisions changed, and when MAP's cost and half-steps took the
# Gibbs conditionals' Gaussian forms (a rounding-level move); the map and tls
# pins moved again when the estimators read the demos through their count,
# mean and scatter (a rounding-level move), and both map pins when the chain
# left demo 1's random stream for a stream of its own.  Both tls pins moved
# when a tls result wrote the m x m per-step "Sigma_u" in place of the
# stacked "Sigma_U"; every other field stayed byte for byte.
GOLDEN_ESTIMATE_SHA256 = {
    ("spring_damper", "mean"): "1789ebcecbf03730d23192bc5cf5cddb6fdbe7a2d7f5861e30bcb71b3362f6f2",
    ("spring_damper", "kkt"): "41ef5e1c6220f661b73847f171ec25403817e1288c80a47acc28fbd794c36513",
    ("spring_damper", "map"): "264f0a74731bbe55b72a6694f214fee9a78cbe4d360eca4d8546deee243d1d97",
    ("spring_damper", "tls"): "7e7e87a3b1e5e64d90c5166801984f536d44833f337a5cf3bf5cc0868a4d7721",
    ("tls_positivity", "mean"): "2d62d22d6acdab13e8cd4f225a4f9b9e9e0bd5dd156bb788844ae6df03117697",
    ("tls_positivity", "kkt"): "afd2e2bc29e32e52b51be2e895bbaf0f53661c0de0aa5798da972f2749d003a5",
    ("tls_positivity", "map"): "8d4f7a229ae4000dc41705c3b6a4a1a367f71ee7479fbdb81cd62c400d3ec2da",
    ("tls_positivity", "tls"): "ea5dc1ca7407e1142ad83bddf1816b2fa5af7ab333af5ed6ddd996efbed90cfa",
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


# sha256 of rows.csv from perfbench's reference grid of each gated workload:
# the shipped config at its master seed, with these methods, repetitions
# and noise levels, run serially.  perfbench/run.py compares the same grids
# against perfbench/pins.json; these pins let the test suite tell a
# behaviour change from a speed change on its own.  Both moved when the
# estimators read the demos through their count, mean and scatter (a
# rounding-level move), spring_damper's again when the MAP chain left
# demo 1's random stream, and tls_positivity's when the face and
# sensitivity systems moved to scipy's LAPACK dgesv (TLS rows only, by
# rounding).  Like the other golden pins, they depend on the numpy and
# scipy builds.
GOLDEN_REFERENCE_ROWS_SHA256 = {
    "spring_damper": (("map",), 1, [5, 10, 20],
                      "76e2389550506aa83f9a926cacfe54ff3a5475ed0540b726be128f4dd46f0204"),
    "tls_positivity": (("tls", "kkt", "mean"), 10, [5, 10, 20],
                       "309850c7e25e7b86c46fb0da3066d9a75f5619c34f289c09519156d0a18a49a8"),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_REFERENCE_ROWS_SHA256))
def test_reference_grid_rows_are_bit_identical_to_golden(tmp_path, capsys, monkeypatch, config):
    methods, n_reps, levels, digest = GOLDEN_REFERENCE_ROWS_SHA256[config]
    monkeypatch.delenv("IOC_EIV_SEED", raising=False)
    with open(f"configs/{config}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    assert cfg["seed"] == 20260819 and cfg["noise"]["percent_levels"] == levels
    cfg.update(methods=list(methods), n_reps=n_reps)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "grid"
    assert main(["bench", "--config", str(path), "--out-dir", str(out_dir), "--jobs", "1"]) == 0
    assert hashlib.sha256((out_dir / "rows.csv").read_bytes()).hexdigest() == digest


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


def test_bench_parses_and_solves_the_truth_once_per_call(tmp_path, capsys, monkeypatch):
    from ioc_eiv import bench_cli, model

    calls = {"parse": 0, "truth": 0}
    parse, solve = bench_cli.parse_problem, forward.solve

    def parse_spy(obj):
        calls["parse"] += 1
        return parse(obj)

    def solve_spy(fp, theta):
        calls["truth"] += np.array_equal(theta, fp.theta_true)
        return solve(fp, theta)

    monkeypatch.setattr(bench_cli, "parse_problem", parse_spy)
    monkeypatch.setattr(forward, "solve", solve_spy)
    model.build_stationarity.cache_clear()
    cfg = _write_config(tmp_path)  # kkt and mean at 2 levels x 2 reps: 8 tasks
    for k in (1, 2):
        assert main(["bench", "--config", cfg, "--out-dir", str(tmp_path / f"o{k}")]) == 0
        # a second call in the same process parses and solves again
        assert calls == {"parse": k, "truth": k}
        # every call parses a problem equal to the first call's, so only the
        # first lookup in the process misses
        assert model.build_stationarity.cache_info().misses == 1
    assert (tmp_path / "o1" / "rows.csv").read_bytes() == (tmp_path / "o2" / "rows.csv").read_bytes()
    # another problem misses once more
    problem = dict(_tiny_config()["problem"], horizon=6)
    assert main(["bench", "--config", _write_config(tmp_path, "h6.json", problem=problem),
                 "--out-dir", str(tmp_path / "o3")]) == 0
    assert calls == {"parse": 3, "truth": 3}
    assert model.build_stationarity.cache_info().misses == 2


def test_parser_is_built_once_and_reaches_a_rebound_command(monkeypatch):
    from ioc_eiv import bench_cli

    assert bench_cli._build_parser() is bench_cli._build_parser()
    seen = []
    monkeypatch.setattr(bench_cli, "cmd_forward", lambda args: seen.append(args.config) or 0)
    assert main(["forward", "--config", "p.json"]) == 0
    assert seen == ["p.json"]


@pytest.mark.parametrize("methods, chains", [(["kkt", "mean"], 0), (["mean", "map"], 4)])
def test_bench_seeds_a_chain_for_map_tasks_only(tmp_path, capsys, monkeypatch, methods, chains):
    seeded = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    cfg = _write_config(tmp_path, methods=methods, gibbs={"n_iter": 20, "n_keep": 10})
    assert main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    # 2 levels x 2 reps per method, each drawing 4 demos from their own substreams
    assert len(seeded) == len(methods) * 4 * 4 + chains


def test_map_chain_draws_from_no_demo_substream(monkeypatch):
    # demo d draws from SeedSequence([seed, d]); a chain on one of those
    # streams would start by repeating that demo's noise
    from ioc_eiv import bench_cli, map_estimator

    class Drawn(Exception):
        pass

    def first_draws(ds, fp, cfg, rng):
        raise Drawn(rng.standard_normal(16))

    monkeypatch.setattr(map_estimator, "estimate", first_draws)
    for seed in (0, 20260819, 20260828):
        with pytest.raises(Drawn) as drawn:
            bench_cli._METHODS["map"](None, None, None, None, seed)
        chain = drawn.value.args[0]
        for d in range(64):
            demo = np.random.default_rng(np.random.SeedSequence([seed, d])).standard_normal(16)
            assert not np.array_equal(chain, demo), (seed, d)
