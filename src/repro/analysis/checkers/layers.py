"""Layer purity checker.

Enforces the package import DAG::

    sql  ->  engine  ->  ports  ->  core  ->  bench
                 \\_________ workloads _______/

* ``sql`` imports nothing from the package (the grammar layer);
* ``engine`` may import ``sql`` only — never ``ports`` or ``core``
  (the engine must not know about tuning or its own adapters);
* ``ports`` may import ``engine`` and ``sql`` (adapters wrap the
  engine; the protocol itself is import-light);
* ``core`` may import ``ports``, ``engine``, and ``sql`` — but the
  concrete engine facade (``repro.engine.database`` /
  ``repro.engine.executor``) is off limits: the tuner speaks the
  :class:`~repro.ports.backend.TuningBackend` protocol only (see
  ``FORBIDDEN_CONCRETE``);
* ``workloads`` may import ``sql``, ``engine``, and ``ports``
  (generators build schemas/statements against the protocol);
* ``bench`` may import everything, and **nothing imports bench**
  except ``__main__`` entry points and tests;
* ``serve`` (the streaming daemon) may import ``core``, ``ports``,
  ``engine``, ``workloads``, and ``sql`` — and, like bench,
  **nothing imports serve** except its own ``__main__`` entry points
  and tests: the daemon is a leaf consumer of the library, never a
  dependency of it;
* ``analysis`` is self-contained (stdlib + itself) so the linter can
  run without the engine's dependencies installed.

Only absolute ``repro.*`` imports are considered; stdlib and
third-party imports are out of scope.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set

from repro.analysis.core import KNOWN_LAYERS, Checker, ModuleInfo, Violation, register

#: importer layer -> package layers it may import.  ``""`` is the
#: package root (``repro/__init__.py``, ``repro/lint.py``): glue code
#: that may see everything except bench.
ALLOWED_IMPORTS: Dict[str, Set[str]] = {
    "sql": {"sql"},
    "engine": {"engine", "sql"},
    "ports": {"ports", "engine", "sql"},
    "core": {"core", "ports", "engine", "sql"},
    "workloads": {"workloads", "sql", "engine", "ports"},
    "bench": {
        "bench", "core", "ports", "engine", "sql", "workloads",
        "analysis", "",
    },
    "serve": {"serve", "core", "ports", "engine", "sql", "workloads"},
    "analysis": {"analysis"},
    "": {"sql", "engine", "ports", "core", "workloads", "analysis", ""},
}

#: importer layer -> fully-qualified modules it must not import even
#: though the owning layer is allowed.  The tuner (``core``) may use
#: ``engine`` value types (IndexDef, faults, metrics) but must reach
#: the database only through the :mod:`repro.ports` protocol — a
#: concrete import of the facade or the executor would silently
#: re-couple the tuner to one backend.
FORBIDDEN_CONCRETE: Dict[str, Set[str]] = {
    "core": {"repro.engine.database", "repro.engine.executor"},
}


@register
class LayerChecker(Checker):
    name = "layer"
    description = (
        "imports must follow the sql -> engine -> core -> bench DAG; "
        "nothing imports bench except __main__/tests"
    )
    rationale = (
        "The package is layered sql -> engine -> core -> bench so the\n"
        "parser never depends on the engine, the engine never on the\n"
        "advisor, and nothing product-side on the bench harness. An\n"
        "upward import couples a lower layer to its consumers and\n"
        "makes the ports/ seam (swappable backends) a fiction."
    )
    example = (
        "src/repro/engine/planner.py:12: [layer] engine imports "
        "repro.core.advisor; core may import engine, never the reverse"
    )

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        layer = module.layer
        if layer is None:
            return []
        return list(self._check_imports(module, layer))

    def _check_imports(
        self, module: ModuleInfo, layer: str
    ) -> Iterator[Violation]:
        allowed = ALLOWED_IMPORTS.get(layer)
        forbidden = FORBIDDEN_CONCRETE.get(layer, set())
        for node in module.nodes:
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [n.name for n in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative import: resolve against this module's
                    # position inside the package.
                    base = module.rel_path.split("repro/")[-1]
                    segments = base.split("/")[:-1]
                    if node.level - 1 <= len(segments):
                        prefix = segments[: len(segments) - (node.level - 1)]
                        tail = node.module or ""
                        dotted = ".".join(["repro", *prefix, tail]).rstrip(".")
                        targets = [dotted]
                elif node.module:
                    targets = [node.module]
            for target in targets:
                if target != "repro" and not target.startswith("repro."):
                    continue
                # The forbidden-module rule sees both spellings:
                # ``from repro.engine.database import Database`` and
                # ``from repro.engine import database``.
                spellings = {target}
                if isinstance(node, ast.ImportFrom):
                    spellings.update(
                        f"{target}.{alias.name}" for alias in node.names
                    )
                hit = sorted(spellings & forbidden)
                if hit:
                    yield Violation(
                        rule="layer",
                        path=module.rel_path,
                        line=node.lineno,
                        message=(
                            f"layer '{layer}' must not import the "
                            f"concrete module '{hit[0]}': reach the "
                            "database through the repro.ports "
                            "TuningBackend protocol"
                        ),
                    )
                    continue
                rest = target.split(".")[1:]
                target_layer = (
                    rest[0] if rest and rest[0] in KNOWN_LAYERS else ""
                )
                # bench and serve are leaf layers: programs, not
                # libraries.  Only their own modules, __main__ entry
                # points, and tests may import them.
                if target_layer in ("bench", "serve") and (
                    layer != target_layer
                ):
                    if not module.is_dunder_main:
                        yield Violation(
                            rule="layer",
                            path=module.rel_path,
                            line=node.lineno,
                            message=(
                                f"'{target}' imported from layer "
                                f"'{layer or 'root'}': only __main__ "
                                "entry points and tests may import "
                                f"{target_layer}"
                            ),
                        )
                    continue
                if allowed is not None and target_layer not in allowed:
                    yield Violation(
                        rule="layer",
                        path=module.rel_path,
                        line=node.lineno,
                        message=(
                            f"layer '{layer or 'root'}' must not import "
                            f"'{target}' (allowed: "
                            f"{', '.join(sorted(allowed - {layer}))}); "
                            "the DAG is sql -> engine -> core -> bench"
                        ),
                    )
