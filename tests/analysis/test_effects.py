"""Effect extraction: the local summaries the project checkers
consume, and the links the effect index walks between them."""

import ast
import textwrap

from repro.analysis.effects import EffectIndex, extract_file_summary
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
# The project pass keeps no state between runs
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


def test_no_cache_mode_neither_reads_nor_writes(tmp_path):
    """Summaries are re-extracted every run: nothing is written under
    the project root, so a run reports only what the source says."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "store.py").write_text(textwrap.dedent(_BAD_TREE))
    before = sorted(tmp_path.rglob("*"))
    findings = analyze_paths(
        [tmp_path / "src"], project_root=tmp_path, scope="project"
    )
    assert [v.rule for v in findings] == ["cache-invalidation"]
    assert sorted(tmp_path.rglob("*")) == before
