"""Bad/good fixture pairs for the two interprocedural rules.

Every rule gets a seeded violation that must be caught and a
corrected twin that must pass clean — the same convention the
per-file checkers use, but over a miniature on-disk project because
these rules need the linked cross-module graph.
"""

import textwrap

from repro.analysis.runner import analyze_paths

_BACKEND_PROTOCOL = """
from typing import Protocol

class TuningBackend(Protocol):
    def create_index(self, definition) -> None: ...
    def drop_index(self, definition) -> None: ...
    def whatif_cost(self, sql) -> float: ...
    def reset_index_usage(self) -> None: ...
"""


def _cat(*parts):
    """Join module-level fixture chunks, dedenting each separately."""
    return "\n".join(textwrap.dedent(part) for part in parts)


def _lint(tmp_path, files, rule=None, scope="project"):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    found = analyze_paths(
        [tmp_path / "src"],
        project_root=tmp_path,
        scope=scope,
    )
    if rule is not None:
        found = [v for v in found if v.rule == rule]
    return found


# ---------------------------------------------------------------------------
# stage-effects
# ---------------------------------------------------------------------------

_STAGE_COMMON = """
from repro.ports.backend import TuningBackend

class Ctx:
    def __init__(self, backend: TuningBackend):
        self.backend = backend
"""

_STAGE_BAD = _cat(
    _STAGE_COMMON,
    """
    class ObserveStage:
        # effect: allows[ddl-drop]
        def run(self, ctx: Ctx) -> None:
            ctx.backend.drop_index("i")
            self._refresh(ctx)

        def _refresh(self, ctx: Ctx) -> None:
            ctx.backend.create_index("i")
    """,
)


def test_stage_effects_bad_ddl_outside_contract(tmp_path):
    found = _lint(
        tmp_path,
        {
            "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
            "src/repro/core/pipeline.py": _STAGE_BAD,
        },
        rule="stage-effects",
    )
    assert len(found) == 1
    assert "create_index" in found[0].message
    assert "ddl-create" in found[0].message
    # Flagged at the offending helper call site, with the chain.
    assert "_refresh" in found[0].message


def test_stage_effects_honors_inline_suppression(tmp_path):
    # Two out-of-contract effects; only the suppressed one goes quiet.
    source = _cat(
        _STAGE_COMMON,
        """
        class ObserveStage:
            # effect: allows[]
            def run(self, ctx: Ctx) -> None:
                ctx.backend.reset_index_usage()
                ctx.backend.create_index("i")
        """,
    )
    files = {
        "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
        "src/repro/core/pipeline.py": source,
    }
    found = _lint(tmp_path, dict(files), rule="stage-effects")
    assert sorted("ddl-create" in v.message for v in found) == [
        False,
        True,
    ]
    files["src/repro/core/pipeline.py"] = source.replace(
        'ctx.backend.create_index("i")',
        'ctx.backend.create_index("i")  '
        "# lint: ignore[stage-effects] -- fixture: documented exception",
    )
    found = _lint(tmp_path, files, rule="stage-effects")
    assert len(found) == 1
    assert "usage-reset" in found[0].message


def test_stage_effects_good_within_contract(tmp_path):
    good = _cat(
        _STAGE_COMMON,
        """
        class ObserveStage:
            # effect: allows[ddl-drop]
            def run(self, ctx: Ctx) -> None:
                ctx.backend.drop_index("i")
        """,
    )
    assert not _lint(
        tmp_path,
        {
            "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
            "src/repro/core/pipeline.py": good,
        },
        rule="stage-effects",
    )


def test_stage_effects_missing_contract_flagged(tmp_path):
    bare = _cat(
        _STAGE_COMMON,
        """
        class DriftStage:
            def run(self, ctx: Ctx) -> None:
                return None
        """,
    )
    found = _lint(
        tmp_path,
        {
            "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
            "src/repro/core/pipeline.py": bare,
        },
        rule="stage-effects",
    )
    assert len(found) == 1
    assert "no effect contract" in found[0].message


def test_stage_effects_unknown_token_flagged(tmp_path):
    typo = _cat(
        _STAGE_COMMON,
        """
        class DriftStage:
            # effect: allows[ddl-dorp]
            def run(self, ctx: Ctx) -> None:
                return None
        """,
    )
    found = _lint(
        tmp_path,
        {
            "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
            "src/repro/core/pipeline.py": typo,
        },
        rule="stage-effects",
    )
    assert len(found) == 1
    assert "ddl-dorp" in found[0].message


def test_stage_effects_store_write_needs_permission(tmp_path):
    store = """
    class TemplateStore:
        def __init__(self):
            self._version = 0

        def begin_window(self) -> None:
            self._version = self._version + 1
    """
    stage = """
    from repro.core.templates import TemplateStore

    class Ctx:
        def __init__(self, store: TemplateStore):
            self.store = store

    class ApplyStage:
        # effect: allows[]
        def run(self, ctx: Ctx) -> None:
            ctx.store.begin_window()
    """
    files = {
        "src/repro/core/templates.py": store,
        "src/repro/core/pipeline.py": stage,
    }
    found = _lint(tmp_path, dict(files), rule="stage-effects")
    assert len(found) == 1
    assert "store-write" in found[0].message
    files["src/repro/core/pipeline.py"] = stage.replace(
        "allows[]", "allows[store-write]"
    )
    assert not _lint(tmp_path, files, rule="stage-effects")


# ---------------------------------------------------------------------------
# cache-invalidation
# ---------------------------------------------------------------------------

_STORE_HEADER = """
class Store:
    # cache-keys: fields[_shards] invalidator[_touch]
    def __init__(self):
        self._shards = {}
        self._version = 0

    def _touch(self):
        self._version += 1
"""


def test_cache_invalidation_branch_without_touch(tmp_path):
    bad = _STORE_HEADER + """
    def remove(self, key):
        if key in self._shards:
            del self._shards[key]
    """
    found = _lint(
        tmp_path,
        {"src/repro/core/store.py": bad},
        rule="cache-invalidation",
    )
    assert len(found) == 1
    assert "_shards" in found[0].message
    assert "_touch" in found[0].message


def test_cache_invalidation_touch_after_branch_is_clean(tmp_path):
    good = _STORE_HEADER + """
    def remove(self, key):
        if key in self._shards:
            del self._shards[key]
        self._touch()
    """
    assert not _lint(
        tmp_path,
        {"src/repro/core/store.py": good},
        rule="cache-invalidation",
    )


def test_cache_invalidation_early_return_path_flagged(tmp_path):
    bad = _STORE_HEADER + """
    def put(self, key, value, dry_run):
        self._shards[key] = value
        if dry_run:
            return None
        self._touch()
    """
    found = _lint(
        tmp_path,
        {"src/repro/core/store.py": bad},
        rule="cache-invalidation",
    )
    assert len(found) == 1


def test_cache_invalidation_clean_helper_counts(tmp_path):
    good = _STORE_HEADER + """
    def evict(self, key):
        del self._shards[key]
        self._finish()

    def _finish(self):
        self._touch()
    """
    assert not _lint(
        tmp_path,
        {"src/repro/core/store.py": good},
        rule="cache-invalidation",
    )


def test_cache_invalidation_dirty_helper_flagged_once_at_source(tmp_path):
    bad = _STORE_HEADER + """
    def evict(self, key):
        self._drop(key)

    def _drop(self, key):
        self._shards.pop(key, None)
    """
    found = _lint(
        tmp_path,
        {"src/repro/core/store.py": bad},
        rule="cache-invalidation",
    )
    # The helper that forgot to invalidate owns the violation; the
    # caller is not separately blamed.
    assert len(found) == 1
    assert "_drop" in found[0].message


def test_cache_invalidation_missing_invalidator_method(tmp_path):
    bad = """
    class Store:
        # cache-keys: fields[_shards] invalidator[_bump]
        def __init__(self):
            self._shards = {}
    """
    found = _lint(
        tmp_path,
        {"src/repro/core/store.py": bad},
        rule="cache-invalidation",
    )
    assert len(found) == 1
    assert "_bump" in found[0].message


# ---------------------------------------------------------------------------
# scope plumbing
# ---------------------------------------------------------------------------


def test_file_scope_skips_project_rules(tmp_path):
    files = {
        "src/repro/ports/backend.py": _BACKEND_PROTOCOL,
        "src/repro/core/pipeline.py": _STAGE_BAD,
    }
    found = _lint(tmp_path, files, scope="file")
    assert not [v for v in found if v.rule == "stage-effects"]
    # The same tree does fail the project pass.
    assert _lint(tmp_path, files, rule="stage-effects")
