"""The README's examples run as written against the current API."""

import re
from pathlib import Path

from ioc_eiv.bench_cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block(heading: str, lang: str) -> str:
    """The first ``lang`` fenced block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet_runs(capsys):
    exec(compile(_first_block("## Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_config_format_example_loads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_first_block("### Config format", "json"), encoding="utf-8")
    demos = tmp_path / "demos.json"
    assert main(["demos", "--config", str(cfg), "--level", "10", "--out", str(demos)]) == 0
    assert main(["estimate", "--demos", str(demos), "--method", "kkt",
                 "--config", str(cfg), "--out", str(tmp_path / "kkt.json")]) == 0
