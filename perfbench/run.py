"""Benchmark runner for ioc-eiv: the paper's error-table grid, timed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload map-spring-n10 --seed 1 --seconds 25 --trace 0

Each run drives the public ``ioc_eiv.bench_cli.main(["bench", ...,
"--jobs", "1"])`` entry point on configs generated from the workload and
the seed, in this process, one grid call after another (a closed loop
with one client) until ``--seconds`` have passed.  ``--trace 1`` instead
runs a fixed list of grid calls twice, untraced and then traced, plus a
horizon sweep, and reports per-layer metrics.  The human-readable report
(environment, every metric, every check) is printed first; the last line
of standard output is the one-line JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

# one BLAS thread: the estimators work on matrices of at most a few hundred
# rows, and a second thread only adds contention on a shared machine
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Speed calibration.  On a shared machine the CPU speed drifts by up to 2x
# over minutes, far beyond any bound, and longer runs do not average it
# out.  A fixed kernel (small LAPACK factor and solve plus a Python loop,
# like the estimators' inner loops, but no ioc_eiv code) is timed before
# and after every grid call; the times measured between two kernel
# timings are multiplied by CAL_REF_S / (their mean).  Gated estimator
# times are thus seconds at the speed where the kernel takes CAL_REF_S;
# the report also keeps every time as measured.
CAL_ITERS = 400
CAL_REPEATS = 5
CAL_REF_S = 0.010

SETUP_PROBES = 5
SETUP_CODE = (
    "import json, sys\n"
    "from ioc_eiv import bench_cli, model\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    cfg = json.load(fh)\n"
    "model.build_stationarity(bench_cli.parse_problem(cfg['problem']))\n"
)

# horizon sweep: a short, fixed Gibbs chain so N = 100 stays affordable;
# the report labels this budget as scaled
SWEEP_HORIZONS = (10, 25, 50, 100)
SWEEP_GIBBS = {"n_iter": 100, "n_keep": 50}
SWEEP_FORWARD_SOLVES = 3
SWEEP_LEVEL = 10.0


@dataclass(frozen=True)
class Workload:
    config: str            # shipped config the workload starts from
    methods: tuple
    lead: str              # method behind estimate_s_p50 and rmse_theta_p50
    chunk_reps: int        # repetitions per timed grid call
    nominal_round_s: float  # one level, every method; sizes a traced run
    ref_reps: int          # reference grid: shipped master seed, these reps
    ref_levels: tuple | None = None  # reference noise levels (None: as shipped)
    horizon: int | None = None


WORKLOADS = {
    "map-spring-n10": Workload(
        config="configs/spring_damper.json", methods=("map",), lead="map",
        chunk_reps=1, nominal_round_s=2.0, ref_reps=1,
    ),
    "tls-positivity-n8": Workload(
        config="configs/tls_positivity.json", methods=("tls", "kkt", "mean"), lead="tls",
        chunk_reps=6, nominal_round_s=0.9, ref_reps=10,
    ),
    "horizon-n50": Workload(
        config="configs/spring_damper.json", methods=("map", "tls", "kkt"), lead="map",
        chunk_reps=1, nominal_round_s=9.5, ref_reps=1, ref_levels=(10.0,), horizon=50,
    ),
}

# layers each workload must reach (traced calls > 0), from the layer table
REQUIRED_SPANS = {
    "map-spring-n10": (
        "bench_cli.main", "numerics.cholesky", "numerics.solve_qp",
        "model.build_stationarity", "forward.solve", "demos.generate",
        "mcmc.gibbs_run", "mcmc.default_priors", "mcmc.full_conditional_beta",
        "mcmc.full_conditional_U", "mcmc.full_conditional_SigmaU", "mcmc.sample_mvn",
        "mcmc.sample_inverse_wishart", "map_estimator.estimate",
        "map_estimator.map_cost", "map_estimator._beta_step",
    ),
    "tls-positivity-n8": (
        "bench_cli.main", "numerics.solve_qp", "model.build_stationarity",
        "forward.solve", "demos.generate", "kkt_baseline.kkt_ls",
        "tls_estimator.estimate", "tls_estimator.tls_inner",
    ),
    "horizon-n50": (
        "bench_cli.main", "numerics.cholesky", "numerics.solve_qp",
        "mcmc.gibbs_run", "mcmc.sample_inverse_wishart", "map_estimator.estimate",
        "tls_estimator.tls_inner", "kkt_baseline.kkt_ls",
    ),
}

# binding sites made by ``from .x import y``; each must hold a wrapper
REQUIRED_SITES = (
    "forward.solve_qp", "kkt_baseline.solve_qp", "map_estimator.solve_qp",
    "tls_estimator.solve_qp", "mcmc.cholesky", "tls_estimator.forward_solve",
    "map_estimator.gibbs_run", "map_estimator.default_priors",
    "bench_cli.generate", "bench_cli.kkt_ls",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import ioc_eiv from this checkout's src/, never from site-packages."""
    if not (SRC / "ioc_eiv" / "bench_cli.py").is_file():
        raise SetupError(f"no package source at {SRC / 'ioc_eiv'}")
    os.environ.update(BLAS_ENV)
    # the grid seeds come from --seed alone
    os.environ.pop("IOC_EIV_SEED", None)
    sys.path.insert(0, str(SRC))
    import ioc_eiv

    if Path(ioc_eiv.__file__).resolve().parent != (SRC / "ioc_eiv").resolve():
        raise SetupError(f"ioc_eiv imported from {ioc_eiv.__file__}, not {SRC}")


# ------------------------------------------------------------- calibration


def kernel_time() -> float:
    """Median seconds of the fixed calibration kernel, timed now."""
    import numpy as np
    from scipy.linalg import cho_solve, lapack

    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 10))
    M = A @ A.T + 10.0 * np.eye(10)
    rhs = rng.standard_normal(10)
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        for _ in range(CAL_ITERS):
            L, _ = lapack.dpotrf(M, lower=1)
            s = 0.0
            for v in cho_solve((L, True), rhs):
                s += v * v
        times.append(perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings into
    seconds at reference speed."""
    return CAL_REF_S / (0.5 * (before + after))


# ----------------------------------------------------------------- configs


def load_base_config(wl: Workload) -> dict:
    path = ROOT / wl.config
    if not path.is_file():
        raise SetupError(f"missing workload config {path}")
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if wl.horizon is not None:
        cfg["problem"]["horizon"] = wl.horizon
    cfg["methods"] = list(wl.methods)
    return cfg


def grid_config(base: dict, levels, n_reps: int, master: int) -> dict:
    cfg = json.loads(json.dumps(base))
    cfg["noise"]["percent_levels"] = [float(v) for v in levels]
    cfg["n_reps"] = int(n_reps)
    cfg["seed"] = int(master)
    return cfg


def timed_config(base: dict, wl: Workload, seed: int, k: int) -> dict:
    """Grid call ``k`` of a run: one method, one noise level, ``chunk_reps`` reps.

    Calls go in rounds: round ``r`` runs every method in turn on the same
    demo draws, as one bench grid would.  Masters never overlap between
    rounds or seeds, so every round sees fresh draws; the seed also picks
    the level the cycle starts at.  One method per call keeps the speed
    calibration around a MAP fit from straddling the other methods.
    """
    r, i = divmod(k, len(wl.methods))
    levels = base["noise"]["percent_levels"]
    cfg = grid_config(base, [levels[(seed + r) % len(levels)]], wl.chunk_reps,
                      1_000_000_000 + seed * 100_000 + r * wl.chunk_reps)
    cfg["methods"] = [wl.methods[i]]
    return cfg


def reference_config(base: dict, wl: Workload) -> dict:
    levels = wl.ref_levels or base["noise"]["percent_levels"]
    return grid_config(base, levels, wl.ref_reps, base["seed"])


# ------------------------------------------------------------- grid calls


@dataclass
class Call:
    rc: int
    wall_s: float
    rows_sha: str
    rows: list      # dicts from rows.csv
    timings: list   # (method, wall_time_s) from timings.csv
    scale: float = 1.0  # see speed_scale


def bench_call(bench_cli, cfg: dict, work: Path) -> Call:
    cfg_path = work / "config.json"
    grid_dir = work / "grid"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        rc = bench_cli.main(
            ["bench", "--config", str(cfg_path), "--out-dir", str(grid_dir), "--jobs", "1"]
        )
        wall = perf_counter() - t0
    raw = (grid_dir / "rows.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    with open(grid_dir / "timings.csv", encoding="utf-8", newline="") as fh:
        timings = [(r["method"], float(r["wall_time_s"])) for r in csv.DictReader(fh)]
    return Call(rc, wall, hashlib.sha256(raw).hexdigest(), rows, timings)


def run_calls(bench_cli, configs, work: Path, seconds: float | None = None,
              round_size: int = 1):
    """Grid calls, each between two kernel timings.

    With ``seconds``, no round of ``round_size`` calls starts once that
    much time has passed; at least one round always runs.
    """
    calls = []
    before = kernel_time()
    t0 = perf_counter()
    for cfg in configs:
        if (seconds is not None and calls and len(calls) % round_size == 0
                and perf_counter() - t0 >= seconds):
            break
        call = bench_call(bench_cli, cfg, work)
        after = kernel_time()
        call.scale = speed_scale(before, after)
        before = after
        calls.append(call)
    return calls


def combined_sha(calls) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(c.rows_sha.encode())
    return h.hexdigest()


def all_rows(calls):
    return [r for c in calls for r in c.rows]


# ----------------------------------------------------------------- metrics


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; both are None with fewer than eleven
    samples.
    """
    n = len(values)
    if n < 11:
        return None, None
    r = n - 10  # 1-based rank with exactly ten samples above it
    return sorted(values)[r - 1], (100 * r) // n


def latency_metrics(calls, method, scaled: bool):
    lat = [t * (c.scale if scaled else 1.0) for c in calls for m, t in c.timings if m == method]
    value, pct = tail(lat)
    return statistics.median(lat), value, pct, len(lat)


def timed(scaled_value, measured_value, unit, **extra):
    return dict({"value": scaled_value, "measured": measured_value, "unit": unit}, **extra)


def end_to_end(wl, calls, ref, setup_s):
    """Every end-to-end metric that applies to this workload, by name.

    Estimator times carry ``value`` at reference speed and ``measured`` as
    measured; ``setup_s`` is as measured.
    """
    n_tasks = sum(len(c.timings) for c in calls)
    wall = sum(c.wall_s for c in calls)
    wall_ref = sum(c.wall_s * c.scale for c in calls)
    rows = all_rows(calls) + ref.rows
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "probes": SETUP_PROBES},
        "estimates_per_s": timed(n_tasks / wall_ref, n_tasks / wall, "1/s", tasks=n_tasks),
    }
    for method in ("map", "tls", "kkt"):
        if method not in wl.methods:
            continue
        p50, tail_v, pct, n = latency_metrics(calls, method, scaled=True)
        p50_m, tail_m, _, _ = latency_metrics(calls, method, scaled=False)
        metrics[f"{method}_estimate_s_p50"] = timed(p50, p50_m, "s", n=n)
        if method != "kkt":
            metrics[f"{method}_estimate_s_tail"] = timed(
                tail_v, tail_m, "s", percentile=pct, n=n)
        acc = [float(r["rmse_theta"]) for r in ref.rows
               if r["method"] == method and r["status"] == "ok" and r["rmse_theta"]]
        metrics[f"{method}_rmse_theta_p50"] = {
            "value": statistics.median(acc) if acc else None, "unit": "1",
            "n": len(acc), "from": "reference grid"}
    failed = sum(r["status"] != "ok" for r in rows)
    metrics["failed_share"] = {"value": failed / len(rows), "unit": "ratio",
                               "failed": failed, "attempted": len(rows)}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    # gated names shared by every workload: the workload's lead method
    metrics["estimate_s_p50"] = dict(metrics[f"{wl.lead}_estimate_s_p50"], method=wl.lead)
    metrics["rmse_theta_p50"] = dict(metrics[f"{wl.lead}_rmse_theta_p50"], method=wl.lead)
    return metrics


def measure_setup(cfg_path: Path) -> float:
    """Median wall time of fresh interpreters that import, parse and build.

    Not speed-corrected: start-up is loading and linking, which the
    compute kernel does not track.
    """
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                       env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


# ------------------------------------------------------------------ checks


def check_forward_kkt(base) -> float:
    from ioc_eiv import bench_cli, forward, model

    fp = bench_cli.parse_problem(base["problem"])
    sol = forward.solve(fp, fp.theta_true)
    return float(model.kkt_residual(fp, fp.theta_true, sol.lam, sol.U).max_abs())


def check_rows(calls) -> list:
    """Structural problems in the grid outputs; empty when all is well."""
    problems = []
    for c in calls:
        if c.rc not in (0, 1):
            problems.append(f"bench exit code {c.rc}")
        if len(c.rows) != len(c.timings) or not c.rows:
            problems.append("rows.csv and timings.csv disagree")
        for r in c.rows:
            if r["status"] != "ok":
                continue
            v = r["rmse_U"] if r["method"] == "mean" else r["rmse_theta"]
            if not v or not abs(float(v)) < float("inf"):
                problems.append(f"non-finite error in an ok row: {r}")
    return problems


def pinned_sha(workload):
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


# ------------------------------------------------------------- environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by file name."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(wl, base, ref_cfg, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    gibbs = base.get("gibbs", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": BLAS_ENV,
        "git_sha": _git_sha(),
        "calibration": {"kernel_iters": CAL_ITERS, "repeats": CAL_REPEATS,
                        "reference_kernel_s": CAL_REF_S},
        "workload": {
            "config": wl.config,
            "horizon": base["problem"]["horizon"],
            "methods": list(wl.methods),
            "levels": base["noise"]["percent_levels"],
            "reps_per_call": wl.chunk_reps,
            "gibbs": {"n_iter": gibbs.get("n_iter", 2000), "n_keep": gibbs.get("n_keep", 300),
                      "scaled": False},
            "seed": seed,
            "reference": {"master_seed": ref_cfg["seed"], "n_reps": ref_cfg["n_reps"],
                          "levels": ref_cfg["noise"]["percent_levels"]},
        },
    }


# ------------------------------------------------------------------ traced


def traced_pass(run_pass):
    """Run ``run_pass()`` with every layer wrapped; return (tracer, result, bound)."""
    import tracer as tr

    t = tr.Tracer()
    patches, bound = tr.install(t, tr.package_modules())
    try:
        result = run_pass()
    finally:
        tr.uninstall(patches)
    return t, result, bound


def layer_metrics(t, cache_misses, scale):
    """Per-layer metrics of one traced pass; times are multiplied by ``scale``."""
    qp = "numerics.solve_qp"
    qp_calls = t.calls(qp)
    iters = t.extra(qp, "iters")
    gibbs_iters = t.calls("mcmc.full_conditional_SigmaU", under="mcmc.gibbs_run")
    inner = t.calls("tls_estimator.tls_inner")
    est = "map_estimator.estimate"

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(name):
        return t.self_s(name) * scale

    return {
        "numerics.cholesky.calls": t.calls("numerics.cholesky"),
        "numerics.cholesky.self_s": self_s("numerics.cholesky"),
        "numerics.solve_qp.calls": qp_calls,
        "numerics.solve_qp.self_s": self_s(qp),
        "numerics.solve_qp.iters": iters,
        "numerics.solve_qp.iters_per_call": ratio(iters, qp_calls),
        "numerics.solve_qp.infeasible": t.errors(qp, "Infeasible"),
        "model.build_stationarity.calls": t.calls("model.build_stationarity"),
        "model.build_stationarity.misses": cache_misses,
        "model.build_stationarity.self_s": self_s("model.build_stationarity"),
        "forward.solve.calls": t.calls("forward.solve"),
        "forward.solve.self_s": self_s("forward.solve"),
        "demos.generate.self_s": self_s("demos.generate"),
        "kkt_baseline.kkt_ls.calls": t.calls("kkt_baseline.kkt_ls"),
        "kkt_baseline.kkt_ls.self_s": self_s("kkt_baseline.kkt_ls"),
        "mcmc.gibbs_iter_s": ratio(t.incl_s("mcmc.gibbs_run") * scale, gibbs_iters),
        "mcmc.cholesky_per_iter": ratio(
            t.calls("numerics.cholesky", under="mcmc.gibbs_run"), gibbs_iters),
        "mcmc.full_conditional_beta.self_s": self_s("mcmc.full_conditional_beta"),
        "mcmc.full_conditional_U.self_s": self_s("mcmc.full_conditional_U"),
        "mcmc.full_conditional_SigmaU.self_s": self_s("mcmc.full_conditional_SigmaU"),
        "mcmc.sample_mvn.self_s": self_s("mcmc.sample_mvn"),
        "mcmc.sample_inverse_wishart.self_s": self_s("mcmc.sample_inverse_wishart"),
        "map_estimator.alternation_s": scale * (
            t.incl_s(est) - t.incl_s("mcmc.gibbs_run", under=est)
            - t.incl_s("mcmc.default_priors", under=est)),
        "map_estimator.qp_calls": t.site_calls.get(("map_estimator", qp), 0),
        "map_estimator.outer_iters": t.calls("map_estimator._beta_step"),
        "map_estimator.map_cost.calls": t.calls("map_estimator.map_cost"),
        "tls_estimator.tls_inner.calls": inner,
        "tls_estimator.tls_inner.self_s": self_s("tls_estimator.tls_inner"),
        "tls_estimator.qp_calls": t.site_calls.get(("tls_estimator", qp), 0),
        "tls_estimator.penalty_inner_share": ratio(
            t.extra("tls_estimator.tls_inner", "penalty"), inner),
        "tls_estimator.forward_fallbacks": t.site_calls.get(("tls_estimator", "forward.solve"), 0),
        "tls_estimator.corner_share": ratio(
            t.extra("tls_estimator.estimate", "corner"), t.calls("tls_estimator.estimate")),
    }


def horizon_sweep(seed):
    """Per-N layer costs on spring_damper, each N under its own tracer."""
    import numpy as np
    from ioc_eiv import bench_cli, demos, forward, map_estimator
    from ioc_eiv.kkt_baseline import NormalizationRule
    from ioc_eiv.map_estimator import GibbsConfig, MapConfig

    with open(ROOT / "configs" / "spring_damper.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    out = {}
    for N in SWEEP_HORIZONS:
        cfg["problem"]["horizon"] = N

        def step():
            fp = bench_cli.parse_problem(cfg["problem"])
            for _ in range(SWEEP_FORWARD_SOLVES):
                U_star = forward.solve(fp, fp.theta_true).U
            noise = demos.noise_scale_from_percent(U_star, SWEEP_LEVEL, fp.system.m)
            spec = demos.NoiseSpec.gaussian(np.diag(noise**2), seed)
            ds = demos.generate(U_star, spec, int(cfg["n_demos"]), fp)
            mcfg = MapConfig(
                norm=NormalizationRule(kind="sum", value=float(np.sum(fp.theta_true))),
                gibbs=GibbsConfig(**SWEEP_GIBBS),
            )
            map_estimator.estimate(ds, fp, mcfg, rng=np.random.default_rng(seed))

        before = kernel_time()
        t, _, _ = traced_pass(step)
        scale = speed_scale(before, kernel_time())
        qp_calls = t.calls("numerics.solve_qp")
        out[f"mcmc.gibbs_iter_s.n{N}"] = (
            scale * t.incl_s("mcmc.gibbs_run") / (SWEEP_GIBBS["n_iter"] - 1))
        out[f"forward.solve.self_s.n{N}"] = (
            scale * t.self_s("forward.solve") / t.calls("forward.solve"))
        out[f"numerics.solve_qp.iters_per_call.n{N}"] = (
            t.extra("numerics.solve_qp", "iters") / qp_calls if qp_calls else 0.0)
    return out


def run_traced(wl, name, base, seed, seconds, work):
    from ioc_eiv import bench_cli, model

    # both passes together take about ``seconds``
    n_calls = max(1, round(seconds / (2 * wl.nominal_round_s))) * len(wl.methods)
    cfgs = [timed_config(base, wl, seed, k) for k in range(n_calls)]
    plain = run_calls(bench_cli, cfgs, work)

    cache = model.build_stationarity.cache_info
    misses0 = cache().misses
    t, traced, bound = traced_pass(lambda: run_calls(bench_cli, cfgs, work))
    misses = cache().misses - misses0

    def wall_ref(calls):
        return sum(c.wall_s * c.scale for c in calls)

    layers = layer_metrics(t, misses, wall_ref(traced) / sum(c.wall_s for c in traced))
    layers["bench_cli.overhead_s"] = wall_ref(plain) - sum(
        tm * c.scale for c in plain for _, tm in c.timings)
    layers["trace.overhead_s"] = wall_ref(traced) - wall_ref(plain)
    layers.update(horizon_sweep(seed))

    missing_sites = sorted(set(REQUIRED_SITES) - bound)
    silent = [s for s in REQUIRED_SPANS[name] if t.calls(s) == 0]
    checks = {
        "grid_calls": n_calls,
        "untraced_rows_sha256": combined_sha(plain),
        "traced_rows_sha256": combined_sha(traced),
        "unwrapped_binding_sites": missing_sites,
        "layers_without_calls": silent,
        "sweep_gibbs_budget": dict(SWEEP_GIBBS, scaled=True),
    }
    ok = (checks["untraced_rows_sha256"] == checks["traced_rows_sha256"]
          and not missing_sites and not silent)
    return plain + traced, layers, checks, ok, t.profile()


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        import_package()
        from ioc_eiv import bench_cli

        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        base = load_base_config(wl)
    except (SetupError, ImportError, OSError, ValueError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    ref_cfg = reference_config(base, wl)
    kkt_res = check_forward_kkt(base)
    # the reference grid also warms up imports, caches and BLAS before timing
    ref = bench_call(bench_cli, ref_cfg, work)
    pin = pinned_sha(args.workload)
    problems = check_rows([ref])
    if kkt_res > 1e-6:
        problems.append(f"forward KKT residual {kkt_res:.3e} > 1e-6")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(wl, base, ref_cfg, args.seed),
        "checks": {
            "forward_kkt_residual": kkt_res,
            "reference_rows_sha256": ref.rows_sha,
            "pinned_rows_sha256": pin,
            "behaviour_change": pin is not None and ref.rows_sha != pin,
            "problems": problems,
        },
    }
    if args.trace:
        calls, layers, tchecks, ok, profile = run_traced(
            wl, args.workload, base, args.seed, args.seconds, work)
        report["checks"].update(tchecks)
        report["per_layer"] = layers
        report["profile"] = profile
        if not ok:
            problems.append("trace self-check failed")
        wanted = spec["per_layer"]
        values = layers
    else:
        cfg_path = work / "setup_config.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(base, fh)
        setup_s = measure_setup(cfg_path)
        configs = (timed_config(base, wl, args.seed, k) for k in itertools.count())
        calls = run_calls(bench_cli, configs, work, seconds=args.seconds,
                          round_size=len(wl.methods))
        e2e = end_to_end(wl, calls, ref, setup_s)
        report["end_to_end"] = e2e
        wanted = spec["end_to_end"]
        values = {k: v["value"] for k, v in e2e.items()}
    problems += check_rows(calls)

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    rows = all_rows(calls) + ref.rows
    result = {"correct": not problems, "attempted": len(rows),
              "failed": sum(r["status"] != "ok" for r in rows), "metrics": metrics}

    text = json.dumps(report, indent=1)
    (work / "report.json").write_text(text + "\n", encoding="utf-8")
    if report["checks"]["behaviour_change"]:
        print(f"perfbench: behaviour change: reference rows.csv sha256 {ref.rows_sha} "
              f"differs from the pinned {pin}", file=sys.stderr)
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
