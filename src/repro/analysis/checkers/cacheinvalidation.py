"""Cache-invalidation completeness: every keyed write must invalidate.

Classes that derive cache keys from internal fields register those
fields with a comment in the class body::

    class TemplateStore:
        # cache-keys: fields[_shards, _shard_of] invalidator[_touch]

The rule then proves, per method, that **every** write to a
registered field is followed by a call to the invalidator on **all**
paths out of the method — a write in one branch with the ``_touch``
in the other is exactly the bug class this exists for: the version
counter goes stale and every downstream cache serves data for a
store that no longer exists.

The path analysis is a backward all-paths scan over the method body:
an ``if`` guarantees invalidation only if both branches do; a loop
guarantees nothing (it may run zero times); ``try`` guarantees if
the ``finally`` does, or if the body and every handler do;
``return``/``raise`` end the path immediately.  Calls to same-class
helpers that themselves invalidate on every path (computed to a
fixed point, so helpers may chain) count as invalidator calls — and
a helper that writes registered fields without invalidating is
flagged at its own write site, not at every caller.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    ModuleInfo,
    ProjectChecker,
    ProjectContext,
    Violation,
    register,
)

_KEYS_RE = re.compile(
    r"#\s*cache-keys:\s*fields\[([^\]]*)\]\s*invalidator\[([^\]]*)\]"
)

#: In-place mutators: calling one on ``self.<field>`` writes the field.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "add", "discard", "sort",
        "reverse", "move_to_end", "appendleft", "popleft",
    }
)

_EXEMPT_METHODS = ("__init__", "__post_init__")


@dataclass
class _Registration:
    fields: Tuple[str, ...]
    invalidator: str
    line: int


def _registrations_in(
    module: ModuleInfo,
) -> Dict[str, Tuple[ast.ClassDef, _Registration]]:
    """Map class name → (class node, cache-keys registration)."""
    classes = [
        node
        for node in module.nodes
        if isinstance(node, ast.ClassDef)
    ]
    found: Dict[str, Tuple[ast.ClassDef, _Registration]] = {}
    for lineno, text in module.comments:
        match = _KEYS_RE.search(text)
        if match is None:
            continue
        owner: Optional[ast.ClassDef] = None
        for cls in classes:
            end = cls.end_lineno or cls.lineno
            if cls.lineno <= lineno <= end:
                if owner is None or cls.lineno > owner.lineno:
                    owner = cls
        if owner is None:
            continue
        fields = tuple(
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        )
        invalidator = match.group(2).strip()
        found[owner.name] = (
            owner,
            _Registration(fields, invalidator, lineno),
        )
    return found


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` → attr name.

    Subscripts and method-call chains are transparent, so
    ``self._shards.setdefault(k, {})[fp] = t`` is a ``_shards``
    write: the assignment lands in a structure reached through the
    field, which is exactly what the cache key hashes.
    """
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            node = node.func.value
        else:
            break
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_fields(
    stmt: ast.stmt, fields: Set[str]
) -> List[Tuple[str, int]]:
    """Registered fields written by *stmt* (non-call forms)."""
    hits: List[Tuple[str, int]] = []

    def visit_target(target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                visit_target(elt)
            return
        if isinstance(target, ast.Starred):
            visit_target(target.value)
            return
        attr = _self_attr(target)
        if attr is None and isinstance(target, ast.Attribute):
            # Deep write: self.<field>.x = ... mutates the field object.
            attr = _self_attr(target.value)
        if attr in fields:
            hits.append((attr, target.lineno))

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            visit_target(target)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(stmt, ast.AnnAssign) and stmt.value is None):
            visit_target(stmt.target)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            visit_target(target)
    return hits


def _mutator_write(expr: ast.expr, fields: Set[str]) -> Optional[str]:
    """``self.<field>.pop(...)``-style call → field name, else None."""
    if not (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _MUTATOR_METHODS
    ):
        return None
    attr = _self_attr(expr.func.value)
    return attr if attr in fields else None


def _self_method_call(expr: ast.expr) -> Optional[str]:
    """``self.<name>(...)`` → name, else None."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and isinstance(expr.func.value, ast.Name)
        and expr.func.value.id == "self"
    ):
        return expr.func.attr
    return None


class _MethodScanner:
    """Backward all-paths scan of one method body.

    ``scan(stmts, cont)`` returns whether every path entering *stmts*
    is guaranteed to hit an invalidating call before the method
    exits, given that the continuation after the block guarantees
    *cont*.  Writes to registered fields seen while the current
    guarantee is False are collected as violations.
    """

    def __init__(
        self,
        fields: Set[str],
        invalidating: Set[str],
        collect: bool,
    ) -> None:
        self.fields = fields
        self.invalidating = invalidating
        self.collect = collect
        self.unguarded: List[Tuple[str, int]] = []

    def scan(self, stmts: Sequence[ast.stmt], cont: bool) -> bool:
        guarantee = cont
        for stmt in reversed(stmts):
            guarantee = self._visit(stmt, guarantee)
        return guarantee

    def _visit(self, stmt: ast.stmt, after: bool) -> bool:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            # The path leaves immediately; nothing after this point
            # in the block runs, so prior writes see no guarantee.
            return False
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return after
        if isinstance(stmt, ast.Expr):
            call_name = _self_method_call(stmt.value)
            if call_name is not None and call_name in self.invalidating:
                return True
            written = _mutator_write(stmt.value, self.fields)
            if written is not None:
                self._record(written, stmt.lineno, after)
            return after
        if isinstance(
            stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
        ):
            for attr, line in _written_fields(stmt, self.fields):
                self._record(attr, line, after)
            # A walrus/call in the value could invalidate; we stay
            # conservative and do not look inside expressions.
            return after
        if isinstance(stmt, ast.If):
            body = self.scan(stmt.body, after)
            orelse = self.scan(stmt.orelse, after)
            return body and orelse
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # The body may run zero times, so the loop itself adds no
            # guarantee; writes inside it are covered by whatever
            # follows the loop (break/continue both funnel there).
            self.scan(stmt.body, after)
            self.scan(stmt.orelse, after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.scan(stmt.body, after)
        if isinstance(stmt, ast.Try):
            tail = self.scan(stmt.finalbody, after) if stmt.finalbody else after
            else_g = self.scan(stmt.orelse, tail)
            body = self.scan(stmt.body, else_g if stmt.orelse else tail)
            handlers = [
                self.scan(handler.body, tail)
                for handler in stmt.handlers
            ]
            if stmt.handlers:
                return body and all(handlers)
            return body
        if isinstance(stmt, ast.Match):
            cases = [
                self.scan(case.body, after) for case in stmt.cases
            ]
            has_wildcard = any(
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                for case in stmt.cases
            )
            if cases and has_wildcard:
                return all(cases)
            return after
        return after

    def _record(self, attr: str, line: int, guaranteed: bool) -> None:
        if self.collect and not guaranteed:
            self.unguarded.append((attr, line))


def _always_invalidates(
    methods: Dict[str, ast.FunctionDef],
    fields: Set[str],
    invalidator: str,
) -> Set[str]:
    """Fixed point: methods guaranteed to invalidate on every path."""
    clean: Set[str] = {invalidator}
    changed = True
    while changed:
        changed = False
        for name, fn in methods.items():
            if name in clean:
                continue
            scanner = _MethodScanner(fields, clean, collect=False)
            if scanner.scan(fn.body, False):
                clean.add(name)
                changed = True
    return clean


@register
class CacheInvalidationChecker(ProjectChecker):
    name = "cache-invalidation"
    description = (
        "every write to a field registered with '# cache-keys: "
        "fields[...] invalidator[...]' must reach the invalidator on "
        "all paths out of the method"
    )
    rationale = (
        "Cache keys are derived from internal fields (shard maps,\n"
        "table indexes, catalog entries); a write that skips the\n"
        "version bump on even one path leaves every downstream cache\n"
        "serving results for state that no longer exists -- and the\n"
        "staleness only shows up as silently wrong costs. The\n"
        "backward all-paths scan catches the classic shape: a write\n"
        "in one branch of an if, the _touch in the other. Same-class\n"
        "helpers that themselves always invalidate count as\n"
        "invalidator calls."
    )
    example = (
        "src/repro/core/templates.py:214: [cache-invalidation] "
        "'TemplateStore._insert' writes registered field '_shards' "
        "without a '_touch()' call on every following path"
    )

    def check_project(self, ctx: ProjectContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for rel_path in sorted(ctx.modules):
            module = ctx.modules[rel_path]
            for class_name, (node, reg) in sorted(
                _registrations_in(module).items()
            ):
                violations.extend(
                    self._check_class(rel_path, class_name, node, reg)
                )
        return violations

    def _check_class(
        self,
        rel_path: str,
        class_name: str,
        node: ast.ClassDef,
        reg: _Registration,
    ) -> Iterable[Violation]:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        if reg.invalidator not in methods:
            yield Violation(
                rule=self.name,
                path=rel_path,
                line=reg.line,
                message=(
                    f"'{class_name}' registers invalidator "
                    f"'{reg.invalidator}' but defines no such method"
                ),
            )
            return
        fields = set(reg.fields)
        clean = _always_invalidates(methods, fields, reg.invalidator)
        for name in sorted(methods):
            if name == reg.invalidator or name in _EXEMPT_METHODS:
                continue
            scanner = _MethodScanner(fields, clean, collect=True)
            scanner.scan(methods[name].body, False)
            seen: Set[Tuple[str, int]] = set()
            for attr, line in scanner.unguarded:
                if (attr, line) in seen:
                    continue
                seen.add((attr, line))
                yield Violation(
                    rule=self.name,
                    path=rel_path,
                    line=line,
                    message=(
                        f"'{class_name}.{name}' writes registered "
                        f"field '{attr}' without a "
                        f"'{reg.invalidator}()' call on every "
                        f"following path"
                    ),
                )
