"""Project graph layer: symbol linking over a fixture mini-package.

The fixture package exercises the resolution paths the
interprocedural checkers depend on: structural protocol matching,
inherited-method lookup, annotations through aliased imports, and
the conservative degradation for dynamic calls nothing can resolve.
"""

import ast
import textwrap

from repro.analysis.effects import EffectIndex, extract_file_summary
from repro.analysis.graph import (
    ProjectGraph,
    extract_symbols,
    module_name_for,
)

FIXTURE = {
    "src/repro/ports/backend.py": """
    from typing import Protocol

    class TuningBackend(Protocol):
        name: str

        def create_index(self, definition) -> None: ...
        def drop_index(self, definition) -> None: ...
        def whatif_cost(self, sql) -> float: ...
        def catalog_version(self) -> int: ...
    """,
    "src/repro/engine/db.py": """
    class Database:
        def create_index(self, definition) -> None:
            self.version += 1

        def drop_index(self, definition) -> None:
            self.version += 1

        def whatif_cost(self, sql) -> float:
            return 1.0

        def catalog_version(self) -> int:
            return 0
    """,
    "src/repro/core/base.py": """
    class BaseSelector:
        def shared(self) -> float:
            return 0.0

        def overridden(self) -> float:
            return 0.0
    """,
    "src/repro/core/derived.py": """
    from repro.core.base import BaseSelector as Parent

    class ChildSelector(Parent):
        def overridden(self) -> float:
            return 1.0

        def uses_inherited(self) -> float:
            return self.shared()
    """,
    "src/repro/core/driver.py": """
    import repro.engine.db as dbmod
    from repro.ports.backend import TuningBackend

    def cost_round(backend: TuningBackend) -> float:
        return backend.whatif_cost("select 1")

    def make_db() -> "dbmod.Database":
        return dbmod.Database()

    def dynamic(obj, attr):
        handler = getattr(obj, attr)
        return handler()
    """,
}


def _symbols(path, source):
    return extract_symbols(path, ast.parse(textwrap.dedent(source)))


def _graph():
    return ProjectGraph(
        [_symbols(path, src) for path, src in FIXTURE.items()]
    )


def _effects():
    summaries = [
        extract_file_summary(path, ast.parse(textwrap.dedent(src)))
        for path, src in FIXTURE.items()
    ]
    graph = ProjectGraph([s.symbols for s in summaries])
    return graph, EffectIndex(graph, summaries)


def test_module_name_strips_src_prefix():
    assert (
        module_name_for("src/repro/core/driver.py")
        == "repro.core.driver"
    )
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"


def test_protocol_detected_and_matched_structurally():
    graph = _graph()
    protocol = "repro.ports.backend:TuningBackend"
    assert graph.is_protocol(protocol)
    # Database never names the protocol, but implements its surface.
    assert protocol in graph.protocols_of("repro.engine.db:Database")


def test_calls_on_protocol_and_implementation_classify_alike():
    graph = _graph()
    protocol = "repro.ports.backend:TuningBackend"
    assert graph.protocol_for_call(protocol) == protocol
    assert (
        graph.protocol_for_call("repro.engine.db:Database") == protocol
    )
    # An unrelated class classifies against nothing.
    assert graph.protocol_for_call("repro.core.base:BaseSelector") is None


def test_inherited_method_resolves_through_aliased_base():
    graph = _graph()
    child = "repro.core.derived:ChildSelector"
    # Inherited: defined only on the (import-aliased) base.
    shared = graph.resolve_method(child, "shared")
    assert shared is not None
    assert shared.qualname == "repro.core.base:BaseSelector.shared"
    # Overridden: the child's definition wins over the base's.
    overridden = graph.resolve_method(child, "overridden")
    assert (
        overridden.qualname
        == "repro.core.derived:ChildSelector.overridden"
    )
    assert graph.mro(child)[0] == child


def test_module_alias_annotation_resolves():
    graph = _graph()
    fn = graph.resolve_function("repro.core.driver", "make_db")
    assert fn is not None
    assert fn.returns == "repro.engine.db:Database"


def test_protocol_typed_call_crosses_boundary_not_traversed():
    _graph_, effects = _effects()
    reached, protocol_calls = effects.walk_from(
        "repro.core.driver:cost_round"
    )
    assert [r.effects.qualname for r in reached] == [
        "repro.core.driver:cost_round"
    ]
    assert len(protocol_calls) == 1
    call, chain = protocol_calls[0]
    assert call.protocol == "repro.ports.backend:TuningBackend"
    assert call.method == "whatif_cost"
    assert chain == ("repro.core.driver:cost_round",)


def test_dynamic_call_degrades_to_unknown_callee():
    _graph_, effects = _effects()
    fn = effects.functions["repro.core.driver:dynamic"]
    # The getattr result is uncallable statically: recorded as an
    # unknown callee, not guessed at and not a crash.
    assert any(c.kind == "unknown" for c in fn.calls)
    reached, protocol_calls = effects.walk_from(
        "repro.core.driver:dynamic"
    )
    assert [r.effects.qualname for r in reached] == [
        "repro.core.driver:dynamic"
    ]
    assert protocol_calls == []
