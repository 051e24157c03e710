"""The benchmark's layer contract, checked on tiny grids.

``perfbench/run.py`` fails its traced self-check when a layer it requires
records no calls or a binding site it names holds no wrapper.  These tests
run one tiny ``bench`` call per gated workload kind under the same
``traced_pass`` and read both lists from ``run.py``, so such a break shows
in seconds instead of in a full benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ioc_eiv import bench_cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_run(monkeypatch):
    """``perfbench/run.py`` as a module; its ``traced_pass`` imports ``tracer`` from there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload, config, methods, levels, gibbs", [
    ("map-spring-n10", "spring_damper", ["map"], [10], {"n_iter": 20, "n_keep": 10}),
    ("tls-positivity-n8", "tls_positivity", ["tls", "kkt", "mean"], None, None),
])
def test_tiny_traced_grid_reaches_every_required_layer(tmp_path, capsys, monkeypatch,
                                                       workload, config, methods, levels, gibbs):
    run = _load_run(monkeypatch)
    cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text(encoding="utf-8"))
    cfg.update(methods=methods, n_reps=1)
    if levels is not None:
        cfg["noise"]["percent_levels"] = levels
    if gibbs is not None:
        cfg["gibbs"] = gibbs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")

    t, rc, bound = run.traced_pass(lambda: bench_cli.main(
        ["bench", "--config", str(path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]))
    capsys.readouterr()

    assert rc == 0
    assert [s for s in run.REQUIRED_SPANS[workload] if t.calls(s) == 0] == []
    assert sorted(set(run.REQUIRED_SITES) - bound) == []
