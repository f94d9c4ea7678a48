"""Mutation tests: each interprocedural rule must catch its bug class
when seeded into the *real* tree.

Fixture packages prove the rules work in a lab; these prove they
guard this codebase. Each test copies ``src/repro`` wholesale,
re-introduces one representative regression textually, and asserts
the lint run turns red — so a refactor that silently de-fangs a rule
(renames the entry point, breaks type resolution on the real code)
fails CI even though every fixture still passes.
"""

import re
import shutil
from pathlib import Path

import pytest

from repro.analysis.runner import analyze_paths

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    shutil.copytree(REPO_SRC, tmp_path / "src" / "repro")
    return tmp_path


def _mutate(root, rel_path, old, new):
    path = root / "src" / "repro" / rel_path
    source = path.read_text(encoding="utf-8")
    assert old in source, f"mutation anchor missing from {rel_path}"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")


def _project_lint(root, rule):
    found = analyze_paths(
        [root / "src"],
        project_root=root,
        scope="project",
        select=[rule],
    )
    return [v for v in found if v.rule == rule]


def test_unmutated_tree_is_clean(tree):
    for rule in ("stage-effects", "cache-invalidation"):
        assert not _project_lint(tree, rule)


def test_deleting_touch_from_insert_fires_cache_invalidation(tree):
    _mutate(
        tree,
        "core/templates.py",
        "        self._size += 1\n        self._touch(shard_key)",
        "        self._size += 1",
    )
    found = _project_lint(tree, "cache-invalidation")
    assert found, "removing _insert's _touch went undetected"
    assert any(
        "_insert" in v.message and "_shards" in v.message for v in found
    )


def test_ddl_in_shadow_stage_fires_stage_effects(tree):
    # The shadow-evaluation stage's whole contract is that it judges
    # a candidate configuration *without* touching the catalog
    # (allows[]); DDL sneaking in must turn the lint red.
    anchor = (
        '        assert result is not None, '
        '"SearchStage must run before ShadowStage"'
    )
    _mutate(
        tree,
        "core/pipeline.py",
        anchor,
        anchor + "\n        ctx.backend.create_index(None)",
    )
    found = _project_lint(tree, "stage-effects")
    assert found, "DDL-create inside ShadowStage went undetected"
    assert any(
        "ShadowStage" in v.message and "ddl-create" in v.message
        for v in found
    )


_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([^\]]*)\]")


def test_every_inline_suppression_is_load_bearing(tree):
    """Blank every ``# lint: ignore[...]`` outside ``analysis/`` (the
    lines stay, so nothing shifts) and lint once: the findings must be
    exactly the suppressed ones, each on its suppression's line or the
    line below. A stale suppression, or a finding no suppression
    names, fails here."""
    pkg = tree / "src" / "repro"
    suppressions = set()
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg)
        if rel.parts[0] == "analysis":
            continue
        lines = path.read_text(encoding="utf-8").split("\n")
        for lineno, text in enumerate(lines, start=1):
            match = _IGNORE_RE.search(text)
            if match is None:
                continue
            for rule in match.group(1).split(","):
                suppressions.add(
                    (rule.strip(), f"src/repro/{rel.as_posix()}", lineno)
                )
            lines[lineno - 1] = text[: match.start()].rstrip()
        path.write_text("\n".join(lines), encoding="utf-8")
    assert suppressions

    covered = set()
    for v in analyze_paths([tree / "src"], project_root=tree):
        keys = [
            (v.rule, v.path, line)
            for line in (v.line, v.line - 1)
            if (v.rule, v.path, line) in suppressions
        ]
        assert keys, f"no suppression names this finding: {v.render()}"
        covered.add(keys[0])
    assert covered == suppressions
