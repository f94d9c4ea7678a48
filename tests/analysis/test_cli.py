"""End-to-end CLI tests: ``python -m repro.lint`` as CI runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_lint(args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_own_tree_is_clean():
    """The shipped tree must lint clean — the CI gate."""
    result = _run_lint([str(REPO_ROOT / "src" / "repro")])
    assert result.returncode == 0, result.stdout + result.stderr


def test_violating_tree_exits_nonzero(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import random\n\ndef f(x):\n    return random.choice(x)\n"
    )
    result = _run_lint([str(tmp_path / "src")])
    assert result.returncode == 1
    assert "unseeded-random" in result.stdout


def test_json_format(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import random\n\ndef f(x):\n    return random.choice(x)\n"
    )
    result = _run_lint(["--format", "json", str(tmp_path / "src")])
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload and payload[0]["rule"] == "unseeded-random"
    assert set(payload[0]) == {"rule", "path", "line", "message"}


def test_list_checkers_names_all_five():
    result = _run_lint(["--list-checkers"])
    assert result.returncode == 0
    for name in (
        "determinism",
        "cache-key",
        "frozen-mutation",
        "layer",
        "ast-exhaustive",
    ):
        assert name in result.stdout


def test_missing_target_exits_two(tmp_path):
    result = _run_lint([str(tmp_path / "no-such-dir")])
    assert result.returncode == 2


_STAGE_BAD_TREE = """\
from typing import Protocol


class TuningBackend(Protocol):
    def create_index(self, definition) -> None: ...
    def whatif_cost(self, sql) -> float: ...


class Ctx:
    def __init__(self, backend: TuningBackend):
        self.backend = backend


class ObserveStage:
    # effect: allows[]
    def run(self, ctx: Ctx) -> None:
        ctx.backend.create_index("i")
"""


def _stage_project(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "pipeline.py").write_text(_STAGE_BAD_TREE)
    return tmp_path


def test_scope_splits_file_and_project_passes(tmp_path):
    root = _stage_project(tmp_path)
    fast = _run_lint(["--scope", "file", str(root / "src")], cwd=root)
    assert fast.returncode == 0, fast.stdout + fast.stderr
    deep = _run_lint(["--scope", "project", str(root / "src")], cwd=root)
    assert deep.returncode == 1
    assert "stage-effects" in deep.stdout


def test_explain_prints_rationale_and_example():
    result = _run_lint(["--explain", "stage-effects"])
    assert result.returncode == 0
    assert "rationale:" in result.stdout
    assert "example finding:" in result.stdout
    assert "only Apply" in result.stdout


def test_explain_unknown_rule_exits_2():
    result = _run_lint(["--explain", "no-such-rule"])
    assert result.returncode == 2
    assert "known:" in result.stderr
