"""Command line driver: forward solves, demo generation, estimation, benchmarks.

All inputs are JSON.  Matrices use the row-major wire format
``{"rows": r, "cols": c, "data": [r*c floats]}``; a problem object carries
the system, features, constraints, horizon, initial state, and true
weights.  See the configs/ directory for complete examples.

Exit codes: 0 success; 1 invalid input (bad JSON reports the line number),
numerical failure, or a benchmark cell with no successful run; 2 usage
errors (unknown flags, unknown method).

``estimate`` and ``bench`` fit and score every method through one table,
``_METHODS``.  ``demos``, ``estimate`` and ``bench`` share one config
format; a key outside it is an error, and a config without ``gibbs`` or
``norm`` gets the ``GibbsConfig`` budget and the weight sum of ``theta_true``.

Benchmark outputs are split so that reruns are reproducible bit for bit:
``rows.csv`` holds one row per (method, noise level, repetition) with seeds
and errors and is byte-identical across reruns of the same config, wall
times go to ``timings.csv``, aggregate statistics to ``summary.csv`` and
``summary.json``.  The master seed can be overridden with the
``IOC_EIV_SEED`` environment variable; repetition ``r`` uses seed
``master + r`` for every method and noise level, so method comparisons are
paired on identical demo draws.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

from . import forward, map_estimator, model, tls_estimator
from .demos import (
    DemoSet,
    NoiseSpec,
    generate,
    noise_scale_from_percent,
    rmse,
    sample_mean,
)
from .kkt_baseline import NormalizationRule, kkt_ls
from .map_estimator import GibbsConfig, MapConfig, rescale_to_l1
from .numerics import Infeasible, IterationLimit, NotPositiveDefinite

__all__ = ["main", "parse_problem", "problem_to_json", "matrix_to_json"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

class ConfigError(Exception):
    """Invalid configuration or input file; maps to exit code 1."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _matrix(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object with rows, cols, data")
    try:
        r, c, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{name}: expected integer rows/cols and a data list") from e
    arr = np.asarray(data, dtype=float).ravel()
    if arr.shape[0] != r * c:
        raise ConfigError(
            f"{name}: data has {arr.shape[0]} entries, expected rows*cols = {r * c}"
        )
    return arr.reshape(r, c)


def matrix_to_json(a) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [float(v) for v in a.ravel()],
    }


def parse_problem(obj) -> model.ForwardProblem:
    """Build a ForwardProblem from its JSON object form."""
    if not isinstance(obj, dict):
        raise ConfigError("problem: expected a JSON object")
    try:
        system = model.LinearSystem(
            A=_matrix(obj["system"]["A"], "problem.system.A"),
            B=_matrix(obj["system"]["B"], "problem.system.B"),
        )
        features = tuple(
            model.QuadraticFeature(
                kind=f["kind"], index=int(f["index"]), target=float(f.get("target", 0.0))
            )
            for f in obj["features"]
        )
        con = obj.get("constraints")
        if con:
            constraints = model.PolytopicConstraints(
                Hx=_matrix(con["Hx"], "problem.constraints.Hx"),
                Hu=_matrix(con["Hu"], "problem.constraints.Hu"),
                h=np.asarray(con["h"], dtype=float),
            )
        else:
            constraints = model.PolytopicConstraints.empty(system.n, system.m)
        theta_true = obj.get("theta_true")
        return model.ForwardProblem(
            system=system,
            features=features,
            constraints=constraints,
            horizon=int(obj["horizon"]),
            x0=np.asarray(obj["x0"], dtype=float),
            theta_true=np.asarray(theta_true, dtype=float) if theta_true is not None else None,
        )
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"problem: missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"problem: {e}") from e


def problem_to_json(fp: model.ForwardProblem) -> dict:
    out = {
        "system": {"A": matrix_to_json(fp.system.A), "B": matrix_to_json(fp.system.B)},
        "features": [
            {"kind": f.kind, "index": f.index, "target": f.target} for f in fp.features
        ],
        "horizon": fp.horizon,
        "x0": [float(v) for v in fp.x0],
    }
    if fp.constraints.n_rows:
        out["constraints"] = {
            "Hx": matrix_to_json(fp.constraints.Hx),
            "Hu": matrix_to_json(fp.constraints.Hu),
            "h": [float(v) for v in fp.constraints.h],
        }
    if fp.theta_true is not None:
        out["theta_true"] = [float(v) for v in fp.theta_true]
    return out


def _noise_spec(noise_obj, U_star, m: int, percent: float, seed: int) -> NoiseSpec:
    """Resolve a noise config at one percent level into a concrete spec.

    Level 0 means exact demonstrations (zero noise scale); negative levels
    are rejected.
    """
    if not isinstance(noise_obj, dict):
        raise ConfigError("noise: expected a JSON object")
    kind = noise_obj.get("kind", "gaussian")
    if percent == 0.0:
        scale = np.zeros(m)
    else:
        try:
            scale = noise_scale_from_percent(U_star, percent, m)
        except ValueError as e:
            raise ConfigError(f"noise: {e}") from e
    if kind == "gaussian":
        return NoiseSpec.gaussian(np.diag(scale**2), seed)
    if kind == "uniform":
        # same per-channel variance as the gaussian kind at this level
        return NoiseSpec.uniform(np.sqrt(3.0) * scale, seed)
    if kind == "truncated_gaussian":
        try:
            lower, upper = noise_obj["lower"], noise_obj["upper"]
        except KeyError as e:
            raise ConfigError(
                "noise: truncated_gaussian requires 'lower' and 'upper'"
            ) from e
        return NoiseSpec.truncated_gaussian(np.diag(scale**2), lower, upper, seed)
    raise ConfigError(f"noise: unknown kind {kind!r}")


def _check_keys(cfg) -> None:
    """Raise ConfigError naming a key outside the config format, at the top or in its objects."""
    for where, known in (
        ("config", ("problem", "noise", "n_demos", "n_reps", "seed", "methods", "gibbs", "norm")),
        ("gibbs", ("n_iter", "n_keep")),
        ("norm", ("kind", "value", "index")),
    ):
        obj = cfg if where == "config" else cfg.get(where, {})
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        unknown = ", ".join(repr(k) for k in obj if k not in known)
        if unknown:
            raise ConfigError(f"{where}: unknown key(s) {unknown}; known: {', '.join(known)}")


def _parse_norm(cfg, fp: model.ForwardProblem) -> NormalizationRule:
    """The config's ``norm``; without one, the weight sum of ``theta_true`` (or ``q``)."""
    obj = cfg.get("norm")
    if obj is None:
        total = np.sum(fp.theta_true) if fp.theta_true is not None else fp.q
        return NormalizationRule(kind="sum", value=float(total))
    try:
        rule = NormalizationRule(
            kind=obj.get("kind", "sum"),
            value=float(obj.get("value", 1.0)),
            index=int(obj.get("index", 0)),
        )
        rule.beta_blocks(fp.q, fp.q)  # checks a component index against q
    except (TypeError, ValueError) as e:
        raise ConfigError(f"norm: {e}") from e
    return rule


def _master_seed(cfg) -> int:
    env = os.environ.get("IOC_EIV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as e:
            raise ConfigError(f"IOC_EIV_SEED must be an integer, got {env!r}") from e
    try:
        return int(cfg.get("seed", 0))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"seed must be an integer, got {cfg.get('seed')!r}") from e


def _write_output(obj, path: str | None):
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _problem_from_config(cfg) -> model.ForwardProblem:
    return parse_problem(cfg["problem"] if isinstance(cfg, dict) and "problem" in cfg else cfg)


# ---------------------------------------------------------------- commands


def cmd_forward(args) -> int:
    cfg = _load_json(args.config)
    fp = _problem_from_config(cfg)
    if args.theta is not None:
        theta = np.asarray([float(v) for v in args.theta.split(",")], dtype=float)
    elif fp.theta_true is not None:
        theta = fp.theta_true
    else:
        raise ConfigError("no weights: give --theta or put theta_true in the problem")
    sol = forward.solve(fp, theta)
    res = model.kkt_residual(fp, theta, sol.lam, sol.U)
    _write_output(
        {
            "U": [float(v) for v in sol.U],
            "lam": [float(v) for v in sol.lam],
            "active_set": [int(i) for i in sol.active_set],
            "objective": sol.objective,
            "max_kkt_residual": res.max_abs(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_demos(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg)
    fp = _problem_from_config(cfg)
    if fp.theta_true is None:
        raise ConfigError("demo generation requires theta_true in the problem")
    noise_obj = cfg.get("noise")
    if noise_obj is None:
        raise ConfigError("config needs a 'noise' object")
    percent = args.level if args.level is not None else noise_obj.get("percent")
    if percent is None:
        levels = noise_obj.get("percent_levels")
        if levels:
            percent = levels[0]
    if percent is None:
        raise ConfigError("give --level or put noise.percent in the config")
    D = int(cfg.get("n_demos", 10))
    seed = args.seed if args.seed is not None else _master_seed(cfg)
    U_star = forward.solve(fp, fp.theta_true).U
    spec = _noise_spec(noise_obj, U_star, fp.system.m, float(percent), seed)
    ds = generate(U_star, spec, D, fp)
    _write_output(
        {
            "problem": problem_to_json(fp),
            "U_star": [float(v) for v in U_star],
            "noise": {"kind": spec.kind, "percent": float(percent), "seed": seed},
            "demos": [[float(v) for v in U_d] for U_d in ds.U_list],
        },
        args.out,
    )
    return EXIT_OK


def _demoset_from_json(obj) -> tuple[DemoSet, model.ForwardProblem]:
    try:
        fp = parse_problem(obj["problem"])
        U_list = tuple(np.asarray(d, dtype=float).ravel() for d in obj["demos"])
    except KeyError as e:
        raise ConfigError(f"demo file: missing field {e.args[0]!r}") from e
    if not U_list:
        raise ConfigError("demo file contains no demonstrations")
    U_star = obj.get("U_star")
    ds = DemoSet(
        U_list=U_list,
        fp_ref=fp,
        U_star=np.asarray(U_star, dtype=float) if U_star is not None else None,
    )
    return ds, fp


# ------------------------------------------------------------ method table
# (ds, fp, norm, cfg, rng) -> (theta_hat, U_hat, extra estimate-JSON fields),
# None for what a method does not estimate.  Estimators are looked up at call
# time, so a rebinding of ``kkt_ls`` or a module's ``estimate`` reaches both.


def _fit_kkt(ds, fp, norm, cfg, rng):
    fit = kkt_ls(ds, fp, norm)
    return fit.theta, None, {"residual": fit.residual}


def _fit_mean(ds, fp, norm, cfg, rng):
    return None, sample_mean(ds), {}


def _fit_map(ds, fp, norm, cfg, rng):
    gibbs = GibbsConfig(**{k: int(v) for k, v in cfg.get("gibbs", {}).items()})
    res = map_estimator.estimate(ds, fp, MapConfig(norm=norm, gibbs=gibbs), rng=rng)
    return res.theta, res.U_hat, {
        "Sigma_U": matrix_to_json(res.Sigma_U_hat),
        "cost_trace": [float(v) for v in res.cost_trace],
    }


def _fit_tls(ds, fp, norm, cfg, rng):
    res = tls_estimator.estimate(ds, fp, norm)
    return res.theta, res.U_hat, {
        "Sigma_U": matrix_to_json(res.Sigma_U_hat),
        "outer_trace": [
            [float(c) if np.isfinite(c) else None, float(d) if np.isfinite(d) else None]
            for c, d in res.outer_trace
        ],
        "path": res.path,
    }


_METHODS = {"kkt": _fit_kkt, "mean": _fit_mean, "map": _fit_map, "tls": _fit_tls}
# the bench draws repetition r's MAP chain from SeedSequence([master + r, _MAP_STREAM])
# and ``estimate --seed S`` from SeedSequence([S, _MAP_STREAM]), so a rows.csv
# seed reproduces its MAP row
_MAP_STREAM = 1


def _errors(theta_hat, U_hat, theta_star, U_star) -> tuple:
    """``(rmse_theta, rmse_U)``, None where either side is missing; theta at the truth's l1."""
    rmse_theta = rmse_U = None
    if theta_hat is not None and theta_star is not None:
        scaled = rescale_to_l1(theta_hat, float(np.sum(np.abs(theta_star))))
        rmse_theta = rmse(scaled, theta_star)
    if U_hat is not None and U_star is not None:
        rmse_U = rmse(U_hat, U_star)
    return rmse_theta, rmse_U


def cmd_estimate(args) -> int:
    obj = _load_json(args.demos)
    ds, fp = _demoset_from_json(obj)
    cfg = _load_json(args.config) if args.config else {}
    _check_keys(cfg)
    norm = _parse_norm(cfg, fp)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, _MAP_STREAM]))
    theta_hat, U_hat, extra = _METHODS[args.method](ds, fp, norm, cfg, rng)
    out: dict = {"method": args.method, **extra}
    if theta_hat is not None:
        out["theta"] = [float(v) for v in theta_hat]
    if U_hat is not None:
        out["U_hat"] = [float(v) for v in U_hat]
    if ds.U_star is not None:
        rmse_theta, rmse_U = _errors(theta_hat, U_hat, fp.theta_true, ds.U_star)
        if rmse_theta is not None:
            out["rmse_theta"] = rmse_theta
        if rmse_U is not None:
            out["rmse_U"] = rmse_U
    _write_output(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- benchmark


def _run_task(payload: dict) -> dict:
    """One benchmark cell entry: generate demos, run one method, score it.

    Module-level and dict-in/dict-out so it can cross a process boundary.
    """
    fp = parse_problem(payload["problem"])
    theta_star = fp.theta_true
    method = payload["method"]
    level = float(payload["level"])
    seed_rep = int(payload["seed_rep"])

    U_star = forward.solve(fp, theta_star).U
    spec = _noise_spec(payload["noise"], U_star, fp.system.m, level, seed_rep)
    ds = generate(U_star, spec, int(payload["n_demos"]), fp)
    norm = _parse_norm(payload, fp)
    rng = np.random.default_rng(np.random.SeedSequence([seed_rep, _MAP_STREAM]))

    rmse_theta = rmse_U = None
    status = "ok"
    t0 = perf_counter()
    try:
        theta_hat, U_hat, _ = _METHODS[method](ds, fp, norm, payload, rng)
        rmse_theta, rmse_U = _errors(theta_hat, U_hat, theta_star, U_star)
    except (Infeasible, IterationLimit, NotPositiveDefinite, ValueError) as e:
        status = f"failed:{type(e).__name__}"
    wall = perf_counter() - t0
    return {
        "method": method,
        "noise_percent": level,
        "rep": int(payload["rep"]),
        "seed": seed_rep,
        "rmse_theta": rmse_theta,
        "rmse_U": rmse_U,
        "status": status,
        "wall_time_s": wall,
    }


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _stats(values: list) -> dict | None:
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "std": float(np.std(arr, ddof=1)) if arr.size > 1 else None,
        "median": float(np.median(arr)),
        "n": int(arr.size),
    }


def cmd_bench(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg)
    if "problem" not in cfg:
        raise ConfigError("bench config needs a 'problem' object")
    fp = parse_problem(cfg["problem"])  # validate up front
    if fp.theta_true is None:
        raise ConfigError("bench requires theta_true in the problem")
    _parse_norm(cfg, fp)  # a bad rule fails here, not in every row
    noise_obj = cfg.get("noise")
    if not isinstance(noise_obj, dict):
        raise ConfigError("bench config needs a 'noise' object")
    levels = noise_obj.get("percent_levels")
    if not levels:
        raise ConfigError("noise needs a nonempty 'percent_levels' list")
    levels = [float(v) for v in levels]
    if any(v < 0 for v in levels):
        raise ConfigError("noise percent levels must be nonnegative")
    methods = cfg.get("methods", list(_METHODS))
    bad = [m for m in methods if m not in _METHODS]
    if bad or not methods:
        raise ConfigError(
            f"methods must be a nonempty subset of {list(_METHODS)}, got {methods}"
        )
    n_demos = int(cfg.get("n_demos", 10))
    n_reps = int(cfg.get("n_reps", 10))
    if n_demos < 1 or n_reps < 1:
        raise ConfigError("n_demos and n_reps must be >= 1")
    master = _master_seed(cfg)

    problem_obj = problem_to_json(fp)
    payloads = [
        {
            "problem": problem_obj,
            "noise": noise_obj,
            "n_demos": n_demos,
            "method": method,
            "level": level,
            "rep": rep,
            "seed_rep": master + rep,
            "gibbs": cfg.get("gibbs", {}),
            "norm": cfg.get("norm"),
        }
        for method in methods
        for level in levels
        for rep in range(n_reps)
    ]

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            rows = list(ex.map(_run_task, payloads))
    else:
        rows = [_run_task(p) for p in payloads]

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "rows.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "noise_percent", "rep", "seed", "rmse_theta", "rmse_U", "status"])
        for r in rows:
            w.writerow(
                [
                    r["method"],
                    repr(r["noise_percent"]),
                    r["rep"],
                    r["seed"],
                    _fmt(r["rmse_theta"]),
                    _fmt(r["rmse_U"]),
                    r["status"],
                ]
            )
    with open(os.path.join(args.out_dir, "timings.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "noise_percent", "rep", "wall_time_s"])
        for r in rows:
            w.writerow([r["method"], repr(r["noise_percent"]), r["rep"], repr(r["wall_time_s"])])

    cells = []
    all_ok = True
    for method in methods:
        for level in levels:
            cell = [r for r in rows if r["method"] == method and r["noise_percent"] == level]
            ok = [r for r in cell if r["status"] == "ok"]
            if not ok:
                all_ok = False
            cells.append(
                {
                    "method": method,
                    "noise_percent": level,
                    "n_ok": len(ok),
                    "n_total": len(cell),
                    "rmse_theta": _stats([r["rmse_theta"] for r in ok if r["rmse_theta"] is not None]),
                    "rmse_U": _stats([r["rmse_U"] for r in ok if r["rmse_U"] is not None]),
                }
            )
    with open(os.path.join(args.out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "method", "level",
                "rmse_theta_mean", "rmse_theta_std",
                "rmse_U_mean", "rmse_U_std", "n_ok",
            ]
        )
        for cell in cells:
            st, su = cell["rmse_theta"], cell["rmse_U"]
            w.writerow(
                [
                    cell["method"],
                    repr(cell["noise_percent"]),
                    _fmt(st and st["mean"]),
                    _fmt(st and st["std"]),
                    _fmt(su and su["mean"]),
                    _fmt(su and su["std"]),
                    cell["n_ok"],
                ]
            )
    summary = {
        "master_seed": master,
        "n_demos": n_demos,
        "n_reps": n_reps,
        "methods": list(methods),
        "noise_percent_levels": levels,
        "cells": cells,
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")

    n_ok_rows = sum(1 for r in rows if r["status"] == "ok")
    print(f"bench: {n_ok_rows}/{len(rows)} runs ok -> {args.out_dir}")
    if not all_ok:
        print("bench: at least one (method, level) cell has no successful run", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ioc-eiv",
        description="Inverse optimal control benchmark driver (JSON in, JSON/CSV out).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("forward", help="solve a forward problem")
    pf.add_argument("--config", required=True, help="problem JSON (bare or under 'problem')")
    pf.add_argument("--theta", default=None, help="comma-separated weights (default: theta_true)")
    pf.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    pf.set_defaults(func=cmd_forward)

    pd = sub.add_parser("demos", help="generate noisy demonstrations")
    pd.add_argument("--config", required=True, help="config with problem, noise, n_demos")
    pd.add_argument("--level", type=float, default=None,
                    help="noise percent level (default: noise.percent from the config)")
    pd.add_argument("--seed", type=int, default=None,
                    help="noise seed (default: master seed from config or IOC_EIV_SEED)")
    pd.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    pd.set_defaults(func=cmd_demos)

    pe = sub.add_parser("estimate", help="run one estimator on a demo file")
    pe.add_argument("--demos", required=True, help="demo JSON from the demos command")
    pe.add_argument("--method", required=True, choices=list(_METHODS))
    pe.add_argument("--config", default=None, help="optional estimator parameter JSON")
    pe.add_argument("--seed", type=int, default=0,
                    help="estimator RNG seed (map); a rows.csv seed reproduces that row")
    pe.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    pe.set_defaults(func=cmd_estimate)

    pb = sub.add_parser("bench", help="full benchmark grid")
    pb.add_argument("--config", required=True, help="bench config JSON")
    pb.add_argument("--out-dir", required=True, help="directory for rows/timings/summary files")
    pb.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; keep both
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (Infeasible, IterationLimit, NotPositiveDefinite) as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
