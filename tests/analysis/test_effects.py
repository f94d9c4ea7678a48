"""Effect extraction and the persistent summary cache.

Extraction is a pure function of file content, which is what makes
the ``.lint-cache/`` layer sound: these tests pin both halves — the
local summaries the checkers consume, and the invariant that a warm
cache run reports exactly what a cold run does.
"""

import ast
import json
import textwrap

from repro.analysis.effects import (
    ANALYZER_VERSION,
    EffectIndex,
    FileSummary,
    extract_file_summary,
)
from repro.analysis.graph import ProjectGraph
from repro.analysis.runner import analyze_paths

# ---------------------------------------------------------------------------
# Local summary extraction
# ---------------------------------------------------------------------------


def _summary(source, path="src/repro/core/mod.py"):
    return extract_file_summary(
        path, ast.parse(textwrap.dedent(source))
    )


def test_self_write_kinds():
    summary = _summary(
        """
        class Store:
            def touch(self):
                self.plain = 1
                self.counter += 1
                self.items["k"] = 2
                del self.gone
                self.bag.append(3)
        """
    )
    fn = summary.effects["repro.core.mod:Store.touch"]
    kinds = {(w.attr, w.kind) for w in fn.self_writes}
    assert kinds == {
        ("plain", "assign"),
        ("counter", "aug"),
        ("items", "subscript"),
        ("gone", "del"),
        ("bag", "call"),
    }


def test_init_writes_marked_and_cache_calls_are_boundary():
    summary = _summary(
        """
        class Estimator:
            def __init__(self):
                self.model = None

            def lookup(self, key):
                self._cost_cache.put(key, 1.0)
                return self._cost_cache.get(key)
        """
    )
    assert summary.effects["repro.core.mod:Estimator.__init__"].is_init
    lookup = summary.effects["repro.core.mod:Estimator.lookup"]
    # Cache maintenance is a boundary: recorded as 'cache' calls,
    # never as writes on the owning object.
    assert not lookup.self_writes
    assert {c.kind for c in lookup.calls} == {"cache"}


def test_rng_draws_and_invalidate_calls():
    summary = _summary(
        """
        import random

        class Picker:
            def __init__(self, seed: int):
                self.rng = random.Random(seed)

            def pick(self, items):
                self.estimator.clear_cache()
                return self.rng.choice(items)
        """
    )
    fn = summary.effects["repro.core.mod:Picker.pick"]
    assert len(fn.rng_draws) == 1
    assert [name for name, _line in fn.invalidate_calls] == [
        "clear_cache"
    ]


def test_summary_round_trips_through_json():
    summary = _summary(
        """
        class Store:
            def touch(self):
                self.plain = 1
                self.bag.append(3)

        def top(store: Store):
            store.touch()
        """
    )
    encoded = json.dumps(summary.to_dict(), sort_keys=True)
    clone = FileSummary.from_dict(json.loads(encoded))
    assert clone.to_dict() == summary.to_dict()


def test_walk_reaches_methods_through_typed_attr_chain():
    sources = {
        "src/repro/core/a.py": """
        class Inner:
            def poke(self):
                self.state = 1
        """,
        "src/repro/core/b.py": """
        from repro.core.a import Inner

        class Outer:
            def __init__(self):
                self.inner = Inner()

        def drive(outer: Outer):
            outer.inner.poke()
        """,
    }
    summaries = [
        extract_file_summary(path, ast.parse(textwrap.dedent(src)))
        for path, src in sources.items()
    ]
    graph = ProjectGraph([s.symbols for s in summaries])
    effects = EffectIndex(graph, summaries)
    reached, _protocol = effects.walk_from("repro.core.b:drive")
    assert "repro.core.a:Inner.poke" in {
        r.effects.qualname for r in reached
    }


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

_BAD_TREE = """
import random

class Store:
    # cache-keys: fields[_entries] invalidator[_touch]
    def __init__(self):
        self._entries = {}
        self._version = 0

    def _touch(self):
        self._version += 1

    def put(self, key, value):
        self._entries[key] = value
"""


def _project(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "store.py").write_text(textwrap.dedent(_BAD_TREE))
    return tmp_path


def _lint(tmp_path, use_cache):
    return analyze_paths(
        [tmp_path / "src"],
        project_root=tmp_path,
        scope="project",
        use_cache=use_cache,
    )


def test_cold_and_warm_cache_report_identically(tmp_path):
    root = _project(tmp_path)
    cold = _lint(root, use_cache=True)
    cache_file = root / ".lint-cache" / "effects.json"
    assert cache_file.exists()
    assert [v.rule for v in cold] == ["cache-invalidation"]
    warm = _lint(root, use_cache=True)
    assert warm == cold


def test_no_cache_mode_neither_reads_nor_writes(tmp_path):
    root = _project(tmp_path)
    findings = _lint(root, use_cache=False)
    assert [v.rule for v in findings] == ["cache-invalidation"]
    assert not (root / ".lint-cache").exists()


def test_stale_and_corrupt_cache_entries_are_ignored(tmp_path):
    root = _project(tmp_path)
    baseline = _lint(root, use_cache=True)
    cache_file = root / ".lint-cache" / "effects.json"

    # Corrupt JSON: the run recovers and rewrites the cache.
    cache_file.write_text("{ not json")
    assert _lint(root, use_cache=True) == baseline

    # Wrong analyzer version: discarded wholesale.
    payload = json.loads(cache_file.read_text())
    payload["version"] = ANALYZER_VERSION + 1
    cache_file.write_text(json.dumps(payload))
    assert _lint(root, use_cache=True) == baseline

    # Stale hash (file changed since the entry was written): the
    # entry is re-extracted, so edits are always visible.
    store = root / "src" / "repro" / "core" / "store.py"
    store.write_text(
        textwrap.dedent(_BAD_TREE).replace(
            "self._entries[key] = value",
            "self._entries[key] = value\n        self._touch()",
        )
    )
    assert _lint(root, use_cache=True) == []
