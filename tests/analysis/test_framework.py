"""Framework behavior: suppressions, the single-load runner, and
checker selection."""

import textwrap

import pytest

from repro.analysis import analyze_paths, analyze_snippet, load_module, runner
from repro.analysis.runner import SCOPES

_BAD = """
import random

def pick(items):
    return random.choice(items)
"""


def _snippet(source, path="src/repro/core/mod.py"):
    return analyze_snippet(textwrap.dedent(source), path)


def test_inline_suppression_with_reason():
    suppressed = """
    import random

    def pick(items):
        # lint: ignore[unseeded-random] -- test fixture needs raw draws
        return random.choice(items)
    """
    assert not [
        v for v in _snippet(suppressed) if v.rule == "unseeded-random"
    ]


def test_suppression_without_reason_is_itself_a_violation():
    reasonless = """
    import random

    def pick(items):
        # lint: ignore[unseeded-random]
        return random.choice(items)
    """
    found = _snippet(reasonless)
    assert [v for v in found if v.rule == "suppression"]


def test_suppression_only_covers_adjacent_line():
    far_away = """
    # lint: ignore[unseeded-random] -- too far from the call to apply
    import random


    def pick(items):
        return random.choice(items)
    """
    assert [v for v in _snippet(far_away) if v.rule == "unseeded-random"]


def test_unknown_checker_name_rejected(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    with pytest.raises(KeyError):
        analyze_paths([target], select=["no-such-checker"])


def test_syntax_error_reported_not_raised(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    for scope in SCOPES:
        found = analyze_paths([target], project_root=tmp_path, scope=scope)
        assert [v.rule for v in found] == ["parse"], scope


def test_each_file_is_loaded_once_for_both_passes(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    for i in range(3):
        (pkg / f"mod_{i}.py").write_text(textwrap.dedent(_BAD))
    (pkg / "broken.py").write_text("def f(:\n")
    loaded = []

    def counting_load(path, project_root=None):
        loaded.append(path.name)
        return load_module(path, project_root=project_root)

    monkeypatch.setattr(runner, "load_module", counting_load)
    found = analyze_paths([pkg], project_root=tmp_path)
    assert sorted(loaded) == ["broken.py", "mod_0.py", "mod_1.py", "mod_2.py"]
    assert [v.rule for v in found] == ["parse"] + ["unseeded-random"] * 3
