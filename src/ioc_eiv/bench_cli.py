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
Each command parses every setting it reads once, before any fit, so a bad
value exits 1 with one ``error:`` line.

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
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
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


def _finite(number: str, kind=float):
    """``kind(number)`` for a JSON number or constant that is a finite double.

    Python's decoder takes ``NaN``, ``Infinity`` and ``-Infinity``, and reads
    a number beyond the double range, such as ``1e400``, as an infinity.
    """
    if not math.isfinite(float(number)):
        raise ConfigError(f"{number} is not a finite number")
    return kind(number)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite,
                          parse_int=lambda number: _finite(number, int))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _reject_unknown(obj, where: str, known) -> None:
    """Raise ConfigError unless ``obj`` is a JSON object with keys only from ``known``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = ", ".join(repr(k) for k in obj if k not in known)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; known: {', '.join(known)}")


def _matrix(obj, name: str) -> np.ndarray:
    _reject_unknown(obj, name, ("rows", "cols", "data"))
    try:
        r, c = _parse(int, obj["rows"], f"{name}.rows"), _parse(int, obj["cols"], f"{name}.cols")
        data = obj["data"]
    except KeyError as e:
        raise ConfigError(f"{name}: expected integer rows/cols and a data list") from e
    arr = _numbers(data, f"{name}.data")
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
    """Build a ForwardProblem from its JSON object form; a key outside it is an error."""
    _reject_unknown(
        obj, "problem", ("system", "features", "constraints", "horizon", "x0", "theta_true")
    )
    try:
        _reject_unknown(obj["system"], "problem.system", ("A", "B"))
        system = model.LinearSystem(
            A=_matrix(obj["system"]["A"], "problem.system.A"),
            B=_matrix(obj["system"]["B"], "problem.system.B"),
        )
        features = []
        for i, f in enumerate(obj["features"]):
            _reject_unknown(f, f"problem.features[{i}]", ("kind", "index", "target"))
            features.append(model.QuadraticFeature(
                kind=f["kind"], index=_parse(int, f["index"], f"problem.features[{i}].index"),
                target=_parse(float, f.get("target", 0.0), f"problem.features[{i}].target"),
            ))
        con = obj.get("constraints")
        if con:
            _reject_unknown(con, "problem.constraints", ("Hx", "Hu", "h"))
            constraints = model.PolytopicConstraints(
                Hx=_matrix(con["Hx"], "problem.constraints.Hx"),
                Hu=_matrix(con["Hu"], "problem.constraints.Hu"),
                h=_numbers(con["h"], "problem.constraints.h"),
            )
        else:
            constraints = model.PolytopicConstraints.empty(system.n, system.m)
        theta_true = obj.get("theta_true")
        return model.ForwardProblem(
            system=system,
            features=tuple(features),
            constraints=constraints,
            horizon=_parse(int, obj["horizon"], "problem.horizon"),
            x0=_numbers(obj["x0"], "problem.x0"),
            theta_true=None if theta_true is None else _numbers(theta_true, "problem.theta_true"),
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
    are rejected.  ``lower`` and ``upper`` belong to ``truncated_gaussian``
    only, which requires both; each is a number or a list of one per
    channel.
    """
    kind = noise_obj.get("kind", "gaussian")
    if kind in ("gaussian", "uniform") and ("lower" in noise_obj or "upper" in noise_obj):
        raise ConfigError(f"noise: kind {kind!r} takes no box; 'lower' and 'upper' "
                          "belong to truncated_gaussian only")
    try:
        scale = np.zeros(m) if percent == 0.0 else noise_scale_from_percent(U_star, percent, m)
        if kind == "gaussian":
            return NoiseSpec.gaussian(np.diag(scale**2), seed)
        if kind == "uniform":
            # same per-channel variance as the gaussian kind at this level
            return NoiseSpec.uniform(np.sqrt(3.0) * scale, seed)
        if kind == "truncated_gaussian":
            if "lower" not in noise_obj or "upper" not in noise_obj:
                raise ConfigError("noise: truncated_gaussian requires 'lower' and 'upper'")
            lower, upper = (
                _numbers(v if isinstance(v, list) else [v], f"noise.{k}")
                for k, v in (("lower", noise_obj["lower"]), ("upper", noise_obj["upper"]))
            )
            return NoiseSpec.truncated_gaussian(np.diag(scale**2), lower, upper, seed)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"noise: {e}") from e
    raise ConfigError(f"noise: unknown kind {kind!r}")


def _check_keys(cfg) -> None:
    """Raise ConfigError naming a key outside the config format, at the top or in its objects.

    :func:`parse_problem` checks the keys of ``problem``.
    """
    _reject_unknown(
        cfg, "config",
        ("problem", "noise", "n_demos", "n_reps", "seed", "methods", "gibbs", "norm"),
    )
    for where, known in (
        ("noise", ("kind", "percent_levels", "lower", "upper")),
        ("gibbs", ("n_iter", "n_keep")),
        ("norm", ("kind", "value", "index")),
    ):
        _reject_unknown(cfg.get(where, {}), where, known)


def _parse(kind, value, name: str):
    """``kind(value)`` for the JSON setting ``name``; ConfigError unless it is a
    JSON number of that ``kind``.

    A string or a bool is refused instead of converted, and so is a number
    with a fractional part for an ``int`` setting instead of truncated.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _numbers(value, name: str) -> np.ndarray:
    """The JSON list of numbers ``name`` as a float array; ConfigError otherwise."""
    if not isinstance(value, list):
        raise ConfigError(f"{name}: expected a list of numbers")
    return np.array([_parse(float, v, name) for v in value], dtype=float)


def _parse_text(kind, text: str, name: str):
    """``kind(text)`` for the command-line or environment text ``name``."""
    try:
        return kind(text)
    except ValueError as e:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {text!r}") from e


def _count(cfg, key: str) -> int:
    """``n_demos`` or ``n_reps``: a positive integer, 10 when the config has none."""
    n = _parse(int, cfg.get(key, 10), key)
    if n < 1:
        raise ConfigError(f"{key} must be >= 1, got {n}")
    return n


def _parse_gibbs(cfg) -> GibbsConfig:
    """The config's MAP chain budget; a key it leaves out keeps the ``GibbsConfig`` default.

    ``GibbsConfig`` checks the range, as :func:`ioc_eiv.mcmc.gibbs_run`
    does for a library caller, so a budget out of range (``n_iter`` below
    2, ``n_keep`` outside ``[1, n_iter]``) is one error before any fit.
    """
    budget = {k: _parse(int, v, f"gibbs.{k}") for k, v in cfg.get("gibbs", {}).items()}
    try:
        return GibbsConfig(**budget)
    except ValueError as e:
        raise ConfigError(f"gibbs: {e}") from e


def _parse_norm(cfg, fp: model.ForwardProblem) -> NormalizationRule:
    """The config's ``norm``; without one, the weight sum of ``theta_true`` (or ``q``)."""
    obj = cfg.get("norm")
    if obj is None:
        total = np.sum(fp.theta_true) if fp.theta_true is not None else fp.q
        return NormalizationRule(kind="sum", value=float(total))
    try:
        rule = NormalizationRule(
            kind=obj.get("kind", "sum"),
            value=_parse(float, obj.get("value", 1.0), "norm.value"),
            index=_parse(int, obj.get("index", 0), "norm.index"),
        )
        rule.beta_rows(fp.q, fp.q)  # checks a component index against q
    except (TypeError, ValueError) as e:
        raise ConfigError(f"norm: {e}") from e
    return rule


def _seed(value, name: str) -> int:
    """A seed setting: numpy's seed sequences take only nonnegative integers."""
    seed = _parse(int, value, name)
    if seed < 0:
        raise ConfigError(f"{name}: expected a nonnegative integer, got {seed}")
    return seed


def _master_seed(cfg) -> int:
    env = os.environ.get("IOC_EIV_SEED")
    if env is not None:
        return _seed(_parse_text(int, env, "IOC_EIV_SEED"), "IOC_EIV_SEED")
    return _seed(cfg.get("seed", 0), "seed")


def _write_output(obj, path: str | None):
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(path: str, header: list, rows) -> None:
    """The CSV file ``path``: ``header``, then ``rows``, each line ending in a bare newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _grid(cfg) -> tuple[model.ForwardProblem, dict, list[float]]:
    """The problem, the noise object and its percent levels of a ``demos`` or
    ``bench`` config, after :func:`_check_keys`.

    The problem must carry ``theta_true``, and ``percent_levels`` must be a
    nonempty list of distinct nonnegative numbers.
    """
    _check_keys(cfg)
    if "problem" not in cfg:
        raise ConfigError("config needs a 'problem' object")
    fp = parse_problem(cfg["problem"])
    if fp.theta_true is None:
        raise ConfigError("problem: theta_true is required to draw demonstrations")
    noise_obj = cfg.get("noise")
    if noise_obj is None:
        raise ConfigError("config needs a 'noise' object")
    levels = noise_obj.get("percent_levels")
    if not isinstance(levels, list) or not levels:
        raise ConfigError("noise.percent_levels: expected a nonempty list")
    levels = [_parse(float, v, "noise.percent_levels") for v in levels]
    if any(v < 0 for v in levels):
        raise ConfigError("noise percent levels must be nonnegative")
    if len(set(levels)) < len(levels):
        raise ConfigError(f"noise.percent_levels: expected distinct levels, got {levels!r}")
    return fp, noise_obj, levels


# ---------------------------------------------------------------- commands


def cmd_forward(args) -> int:
    cfg = _load_json(args.config)
    fp = parse_problem(cfg["problem"] if isinstance(cfg, dict) and "problem" in cfg else cfg)
    if args.theta is not None:
        theta = np.array([_parse_text(float, v, "--theta") for v in args.theta.split(",")])
        if theta.size != fp.q or not np.all((theta > 0) & np.isfinite(theta)):
            raise ConfigError(f"--theta: expected {fp.q} positive weights, got {args.theta!r}")
    elif fp.theta_true is not None:
        theta = fp.theta_true
    else:
        raise ConfigError("no weights: give --theta or put theta_true in the problem")
    sol = forward.solve(fp, theta)
    res = model.kkt_residual(fp, theta, sol.lam, sol.U)
    bs = model.build_stationarity(fp)
    active = np.flatnonzero(bs.active_rows(sol.U, model.ITERATE_ACTIVE_TOL))
    _write_output(
        {
            "U": [float(v) for v in sol.U],
            "lam": [float(v) for v in sol.lam],
            "active_set": [int(i) for i in active],
            "objective": model.objective(fp, theta, sol.U),
            "max_kkt_residual": res.max_abs(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_demos(args) -> int:
    cfg = _load_json(args.config)
    fp, noise_obj, levels = _grid(cfg)
    percent = args.level if args.level is not None else levels[0]
    D = _count(cfg, "n_demos")
    seed = _seed(args.seed, "--seed") if args.seed is not None else _master_seed(cfg)
    U_star = forward.solve(fp, fp.theta_true).U
    spec = _noise_spec(noise_obj, U_star, fp.system.m, percent, seed)
    ds = generate(U_star, spec, D, fp)
    _write_output(
        {
            "problem": problem_to_json(fp),
            "U_star": [float(v) for v in U_star],
            "noise": {"kind": spec.kind, "percent": percent, "seed": seed},
            "demos": [[float(v) for v in U_d] for U_d in ds.U_list],
        },
        args.out,
    )
    return EXIT_OK


def _inputs(value, name: str, n: int) -> np.ndarray:
    """The demo file's ``name`` as a flat input of ``n`` entries; ConfigError otherwise."""
    U = _numbers(value, f"demo file: {name}")
    if U.size != n:
        raise ConfigError(f"demo file: {name} has {U.size} entries, expected m*N = {n}")
    return U


def _demoset_from_json(obj) -> tuple[DemoSet, model.ForwardProblem]:
    _reject_unknown(obj, "demo file", ("problem", "U_star", "noise", "demos"))
    try:
        fp = parse_problem(obj["problem"])
        demos = obj["demos"]
    except KeyError as e:
        raise ConfigError(f"demo file: missing field {e.args[0]!r}") from e
    if not isinstance(demos, list) or not demos:
        raise ConfigError("demo file: 'demos' must be a nonempty list")
    n = fp.n_inputs
    U_star = obj.get("U_star")
    ds = DemoSet(
        U_list=tuple(_inputs(d, f"demos[{i}]", n) for i, d in enumerate(demos)),
        fp_ref=fp,
        U_star=_inputs(U_star, "U_star", n) if U_star is not None else None,
    )
    return ds, fp


# ------------------------------------------------------------ method table
# (ds, fp, norm, gibbs, seed) -> (theta_hat, U_hat, extra estimate-JSON fields),
# None for what a method does not estimate.  Estimators are looked up at call
# time, so a rebinding of ``kkt_ls`` or a module's ``estimate`` reaches both.


def _fit_kkt(ds, fp, norm, gibbs, seed):
    fit = kkt_ls(ds, fp, norm)
    return fit.theta, None, {"residual": fit.residual}


def _fit_mean(ds, fp, norm, gibbs, seed):
    return None, sample_mean(ds), {}


def _fit_map(ds, fp, norm, gibbs, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_MAP_STREAM,)))
    res = map_estimator.estimate(ds, fp, MapConfig(norm=norm, gibbs=gibbs), rng=rng)
    return res.theta, res.U_hat, {
        "Sigma_U": matrix_to_json(res.Sigma_U_hat),
        "cost_trace": [float(v) for v in res.cost_trace],
    }


def _fit_tls(ds, fp, norm, gibbs, seed):
    res = tls_estimator.estimate(ds, fp, norm)
    return res.theta, res.U_hat, {
        "Sigma_u": matrix_to_json(res.Sigma_u),
        "path": res.path,
    }


_METHODS = {"kkt": _fit_kkt, "mean": _fit_mean, "map": _fit_map, "tls": _fit_tls}
# the bench passes repetition r's seed master + r and ``estimate --seed S`` passes
# S, so a rows.csv seed reproduces its MAP row.  Demo d draws from SeedSequence([seed, d]);
# a spawn key is hashed after the seed padded to four words, so the chain's stream,
# [seed, 0, 0, 0, 1], is no demo's ([seed, 1, 0] hashes like [seed, 1], demo 1's)
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
    norm, gibbs = _parse_norm(cfg, fp), _parse_gibbs(cfg)
    seed = _seed(args.seed, "--seed")
    theta_hat, U_hat, extra = _METHODS[args.method](ds, fp, norm, gibbs, seed)
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
    It parses nothing: :func:`cmd_bench` builds the grid's problem ``fp``,
    its read-only true inputs ``U_star``, the rule ``norm`` and the MAP
    budget ``gibbs`` once per call, and the level's noise ``spec`` once per
    level; the task asks for its demos from that spec at its own seed, and
    :func:`~ioc_eiv.demos.generate` draws each set once for all the methods.
    """
    fp, U_star = payload["fp"], payload["U_star"]
    method, seed_rep = payload["method"], payload["seed_rep"]
    ds = generate(U_star, payload["spec"].with_seed(seed_rep), payload["n_demos"], fp)

    rmse_theta = rmse_U = None
    status = "ok"
    t0 = perf_counter()
    try:
        theta_hat, U_hat, _ = _METHODS[method](ds, fp, payload["norm"], payload["gibbs"], seed_rep)
        rmse_theta, rmse_U = _errors(theta_hat, U_hat, fp.theta_true, U_star)
    except (Infeasible, IterationLimit, NotPositiveDefinite, ValueError) as e:
        status = f"failed:{type(e).__name__}"
    wall = perf_counter() - t0
    return {
        "method": method,
        "noise_percent": payload["level"],
        "rep": payload["rep"],
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
    fp, noise_obj, levels = _grid(cfg)
    norm, gibbs = _parse_norm(cfg, fp), _parse_gibbs(cfg)
    methods = cfg.get("methods", list(_METHODS))
    if (not isinstance(methods, list) or not methods
            or not all(isinstance(m, str) and m in _METHODS for m in methods)
            or len(set(methods)) < len(methods)):
        raise ConfigError(
            f"methods must be a nonempty list of distinct names from {list(_METHODS)}, "
            f"got {methods!r}"
        )
    n_demos, n_reps = _count(cfg, "n_demos"), _count(cfg, "n_reps")
    master = _master_seed(cfg)

    # Lifetimes.  The parser and the problem's decomposition last the
    # process: ``fp`` equals every earlier parse of the same problem, so
    # ``build_stationarity`` and the forward rows built on it miss once per
    # distinct problem.  The truth ``U_star`` lasts one call, and each noise
    # spec one level of it (checked and factored once, reseeded per
    # repetition).  The demo sets last the process, up to the last
    # ``demos._CACHE_SIZE`` drawn: each method's task at one level and
    # repetition asks ``generate`` for an equal set and gets the one drawn
    # first, which is read-only.  ``U_star`` is not memoized
    # across calls: it is one forward solve, and on perfbench's
    # map-spring-n10 workload it is the only ``forward.solve`` call, so a
    # process-level memo would leave that required traced layer without calls.
    U_star = forward.solve(fp, fp.theta_true).U
    U_star.flags.writeable = False
    specs = {level: _noise_spec(noise_obj, U_star, fp.system.m, level, master)
             for level in levels}
    payloads = [
        {
            "fp": fp,
            "U_star": U_star,
            "spec": specs[level],
            "n_demos": n_demos,
            "method": method,
            "level": level,
            "rep": rep,
            "seed_rep": master + rep,
            "norm": norm,
            "gibbs": gibbs,
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
    _write_csv(os.path.join(args.out_dir, "rows.csv"),
               ["method", "noise_percent", "rep", "seed", "rmse_theta", "rmse_U", "status"],
               ([r["method"], repr(r["noise_percent"]), r["rep"], r["seed"],
                 _fmt(r["rmse_theta"]), _fmt(r["rmse_U"]), r["status"]] for r in rows))
    _write_csv(os.path.join(args.out_dir, "timings.csv"),
               ["method", "noise_percent", "rep", "wall_time_s"],
               ([r["method"], repr(r["noise_percent"]), r["rep"], repr(r["wall_time_s"])]
                for r in rows))

    groups = {(method, level): [] for method in methods for level in levels}
    for r in rows:
        groups[r["method"], r["noise_percent"]].append(r)
    cells = []
    for (method, level), cell in groups.items():
        ok = [r for r in cell if r["status"] == "ok"]
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
    _write_csv(os.path.join(args.out_dir, "summary.csv"),
               ["method", "level", "rmse_theta_mean", "rmse_theta_std",
                "rmse_U_mean", "rmse_U_std", "n_ok"],
               ([cell["method"], repr(cell["noise_percent"]),
                 *(_fmt(st and st[key]) for st in (cell["rmse_theta"], cell["rmse_U"])
                   for key in ("mean", "std")),
                 cell["n_ok"]] for cell in cells))
    _write_output(
        {
            "master_seed": master,
            "n_demos": n_demos,
            "n_reps": n_reps,
            "methods": list(methods),
            "noise_percent_levels": levels,
            "cells": cells,
        },
        os.path.join(args.out_dir, "summary.json"),
    )

    n_ok_rows = sum(1 for r in rows if r["status"] == "ok")
    print(f"bench: {n_ok_rows}/{len(rows)} runs ok -> {args.out_dir}")
    if not all(cell["n_ok"] for cell in cells):
        print("bench: at least one (method, level) cell has no successful run", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every later one."""
    p = argparse.ArgumentParser(
        prog="ioc-eiv",
        description="Inverse optimal control benchmark driver (JSON in, JSON/CSV out).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("forward", help="solve a forward problem")
    pf.add_argument("--config", required=True, help="problem JSON (bare or under 'problem')")
    pf.add_argument("--theta", default=None, help="comma-separated weights (default: theta_true)")
    pf.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    pd = sub.add_parser("demos", help="generate noisy demonstrations")
    pd.add_argument("--config", required=True, help="config with problem, noise, n_demos")
    pd.add_argument("--level", type=float, default=None,
                    help="noise percent level (default: the first of noise.percent_levels)")
    pd.add_argument("--seed", type=int, default=None,
                    help="noise seed (default: master seed from config or IOC_EIV_SEED)")
    pd.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    pe = sub.add_parser("estimate", help="run one estimator on a demo file")
    pe.add_argument("--demos", required=True, help="demo JSON from the demos command")
    pe.add_argument("--method", required=True, choices=list(_METHODS))
    pe.add_argument("--config", default=None, help="optional estimator parameter JSON")
    pe.add_argument("--seed", type=int, default=0,
                    help="estimator RNG seed (map); a rows.csv seed reproduces that row")
    pe.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    pb = sub.add_parser("bench", help="full benchmark grid")
    pb.add_argument("--config", required=True, help="bench config JSON")
    pb.add_argument("--out-dir", required=True, help="directory for rows/timings/summary files")
    pb.add_argument("--jobs", type=_positive_int, default=1,
                    help="parallel worker processes (at least 1)")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; keep both
        return int(e.code) if e.code else EXIT_OK
    try:
        # looked up at call time, so a rebinding of ``cmd_*`` reaches the shared parser
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (Infeasible, IterationLimit, NotPositiveDefinite) as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
