"""AST-visitor exhaustiveness checker.

``repro/sql/ast.py`` is the single source of truth for the SQL node
set.  Dispatchers elsewhere (``sql/predicates.py``,
``engine/planner.py``, ``core/candidates.py``) branch on node types
with ``isinstance`` ladders; when a new node class lands, every
ladder must either handle it or *explicitly* opt out.  This checker
compares the concrete node classes (``@dataclass``-decorated
subclasses of a base) against each dispatcher's handled set and flags
the difference.

A dispatcher is recognized two ways:

* **marker** — a comment on (or directly above) the ``def`` line::

      # lint: exhaustive[Expr] fallthrough=Literal,Placeholder,Star
      def _qualify(self, expr, scope): ...

  ``fallthrough=`` names classes intentionally handled by the final
  catch-all (or intentionally unsupported).
* **auto** — a function with >= 2 ``isinstance`` tests against node
  classes whose body ends in ``raise`` is a *closed* dispatcher:
  unhandled nodes would crash at runtime, so all concrete classes of
  the inferred base must appear.

Modules without an on-disk package root (in-memory snippets) are
skipped: the node universe cannot be read.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, register

_MARKER_RE = re.compile(
    r"#\s*lint:\s*exhaustive\[(\w+)\]\s*(?:fallthrough=([\w,\s]*))?"
)


class _NodeUniverse:
    """Class hierarchy parsed from a package's ``sql/ast.py``."""

    def __init__(self, tree: ast.Module) -> None:
        self.bases: Dict[str, List[str]] = {}
        self.concrete: Set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            self.bases[node.name] = [
                b.id for b in node.bases if isinstance(b, ast.Name)
            ]
            if any(_is_dataclass_decorator(d) for d in node.decorator_list):
                self.concrete.add(node.name)

    def concrete_descendants(self, base: str) -> Set[str]:
        out: Set[str] = set()
        for name in self.concrete:
            if self._descends_from(name, base):
                out.add(name)
        return out

    def _descends_from(self, name: str, base: str) -> bool:
        if name == base:
            return True
        for parent in self.bases.get(name, []):
            if self._descends_from(parent, base):
                return True
        return False

    def common_base(self, handled: Set[str]) -> Optional[str]:
        """Narrowest of Statement/Expr/Node covering *handled*."""
        for base in ("Statement", "Expr", "Node"):
            if base in self.bases and handled <= self.concrete_descendants(
                base
            ):
                return base
        return None


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


_UNIVERSE_CACHE: Dict[str, Optional[_NodeUniverse]] = {}


def _load_universe(package_root: Path) -> Optional[_NodeUniverse]:
    key = str(package_root)
    if key not in _UNIVERSE_CACHE:
        ast_path = package_root / "sql" / "ast.py"
        universe: Optional[_NodeUniverse] = None
        if ast_path.exists():
            try:
                universe = _NodeUniverse(
                    ast.parse(
                        ast_path.read_text(encoding="utf-8"),
                        filename=str(ast_path),
                    )
                )
            except SyntaxError:
                universe = None
        _UNIVERSE_CACHE[key] = universe
    return _UNIVERSE_CACHE[key]


def _collect_ast_aliases(
    module: ModuleInfo,
) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to the SQL ast module / its classes in *module*.

    Returns (module aliases, direct-import name -> class name).  Only
    imports whose dotted path ends in ``sql.ast`` (or ``ast`` out of a
    ``...sql`` package) count, so a plain stdlib ``import ast`` is
    never confused with the SQL node module.
    """
    module_aliases: Set[str] = set()
    direct: Dict[str, str] = {}
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name.endswith("sql.ast"):
                    module_aliases.add(
                        name.asname or name.name.split(".")[0]
                    )
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[-1] == "sql":
                for name in node.names:
                    if name.name == "ast":
                        module_aliases.add(name.asname or "ast")
            elif len(parts) >= 2 and parts[-2:] == ["sql", "ast"]:
                for name in node.names:
                    direct[name.asname or name.name] = name.name
    return module_aliases, direct


def _isinstance_classes(
    func: ast.AST, module_aliases: Set[str], direct: Dict[str, str]
) -> Set[str]:
    handled: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        candidates = (
            list(classes.elts)
            if isinstance(classes, ast.Tuple)
            else [classes]
        )
        for cand in candidates:
            if (
                isinstance(cand, ast.Attribute)
                and isinstance(cand.value, ast.Name)
                and cand.value.id in module_aliases
            ):
                handled.add(cand.attr)
            elif isinstance(cand, ast.Name) and cand.id in direct:
                handled.add(direct[cand.id])
    return handled


def _find_markers(module: ModuleInfo) -> Dict[int, Tuple[str, Set[str]]]:
    """Map of marker line -> (base name, fallthrough set)."""
    markers: Dict[int, Tuple[str, Set[str]]] = {}
    for lineno, text in enumerate(module.lines, start=1):
        match = _MARKER_RE.search(text)
        if match:
            fallthrough = {
                part.strip()
                for part in (match.group(2) or "").split(",")
                if part.strip()
            }
            markers[lineno] = (match.group(1), fallthrough)
    return markers


@register
class ExhaustivenessChecker(Checker):
    name = "ast-exhaustive"
    description = (
        "isinstance dispatchers over repro.sql.ast nodes must handle "
        "(or explicitly fall through for) every concrete node class"
    )
    rationale = (
        "Adding a SQL AST node must break every dispatcher that\n"
        "forgot about it at lint time, not at runtime on whichever\n"
        "workload first produces the node. A dispatcher either\n"
        "handles every concrete node class or declares its fallthrough\n"
        "explicitly."
    )
    example = (
        "src/repro/sql/normalize.py:88: [ast-exhaustive] isinstance "
        "dispatch handles 11 of 12 node classes; missing: Between"
    )

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        if module.package_root is None:
            return []
        universe = _load_universe(module.package_root)
        if universe is None:
            return []
        module_aliases, direct = _collect_ast_aliases(module)
        if not module_aliases and not direct:
            return []
        markers = _find_markers(module)
        return list(
            self._check_functions(
                module, universe, module_aliases, direct, markers
            )
        )

    def _check_functions(
        self,
        module: ModuleInfo,
        universe: _NodeUniverse,
        module_aliases: Set[str],
        direct: Dict[str, str],
        markers: Dict[int, Tuple[str, Set[str]]],
    ) -> Iterator[Violation]:
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            marker: Optional[Tuple[str, Set[str]]] = None
            # Marker sits on the def line or the line directly above
            # it (above any decorators too).
            decorator_lines = [
                d.lineno for d in node.decorator_list
            ]
            anchor = min([node.lineno, *decorator_lines])
            for lineno in (node.lineno, anchor - 1, node.lineno - 1):
                if lineno in markers:
                    marker = markers[lineno]
                    break
            handled = _isinstance_classes(node, module_aliases, direct)
            if marker is not None:
                base, fallthrough = marker
                if base not in universe.bases:
                    yield Violation(
                        rule="ast-exhaustive",
                        path=module.rel_path,
                        line=node.lineno,
                        message=(
                            f"exhaustive marker on {node.name}() names "
                            f"unknown base class '{base}'"
                        ),
                    )
                    continue
            elif self._is_closed_dispatcher(node, handled):
                base = universe.common_base(handled) or "Node"
                fallthrough = set()
            else:
                continue
            expected = universe.concrete_descendants(base)
            missing = expected - handled - fallthrough
            stale = fallthrough - expected
            if missing:
                yield Violation(
                    rule="ast-exhaustive",
                    path=module.rel_path,
                    line=node.lineno,
                    message=(
                        f"{node.name}() dispatches over {base} but does "
                        f"not handle: {', '.join(sorted(missing))} (add "
                        "a branch or list them in fallthrough=)"
                    ),
                )
            if stale:
                yield Violation(
                    rule="ast-exhaustive",
                    path=module.rel_path,
                    line=node.lineno,
                    message=(
                        f"{node.name}() fallthrough names classes that "
                        f"are not concrete {base} nodes: "
                        f"{', '.join(sorted(stale))}"
                    ),
                )

    @staticmethod
    def _is_closed_dispatcher(node: ast.AST, handled: Set[str]) -> bool:
        body = getattr(node, "body", [])
        return (
            len(handled) >= 2
            and bool(body)
            and isinstance(body[-1], ast.Raise)
        )
