"""Frozen-state mutation checker.

Objects returned from a cache are shared: every future hit sees the
same instance, so mutating one corrupts the cache for all later
readers.  The same holds for arrays snapshotted into the MCTS policy
tree (``PolicyNode.costs``): delta costing reuses them verbatim, so
an in-place write silently changes history.

Within each function the checker marks a local name *frozen* when it
is bound from

* a ``.get(...)`` call on a cache-named ``self`` attribute,
* a call to a method known to return memoized plans
  (``best_access_path`` / ``parameterized_index_path``), or
* an attribute read of a snapshot field (``node.costs``),

and flags any later in-place mutation of that name: attribute or
subscript stores, augmented assignment (``arr += x`` mutates numpy
arrays in place), and calls to known mutator methods.  Rebinding the
name with a fresh value (plain ``name = ...``) un-freezes it.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, Iterator, List

from repro.analysis.core import Checker, ModuleInfo, Violation, register

#: Attribute-name fragments that identify a memoization store.
_CACHE_NAME_HINTS = ("cache", "memo")

#: Methods whose return values are memoized plan nodes.
_CACHE_RETURNING_METHODS = {"best_access_path", "parameterized_index_path"}

#: Attributes treated as immutable snapshots once assigned.
SNAPSHOT_ATTRS = {"costs"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append",
    "add",
    "update",
    "pop",
    "popitem",
    "extend",
    "insert",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
    "setdefault",
    "fill",
    "partial_fit",
}


def _is_cache_get(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "get"):
        return False
    target = func.value
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and any(h in target.attr.lower() for h in _CACHE_NAME_HINTS)
    )


def _is_cache_returning_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _CACHE_RETURNING_METHODS
    )


def _is_snapshot_read(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in SNAPSHOT_ATTRS
    )


def _frozen_origin(node: ast.expr) -> str:
    if _is_cache_get(node):
        return "a cache"
    if _is_cache_returning_call(node):
        return "a memoized plan lookup"
    return "a snapshot attribute"


@register
class FrozenMutationChecker(Checker):
    name = "frozen-mutation"
    description = (
        "in-place writes to objects obtained from caches or stored "
        "in policy-tree snapshots"
    )
    rationale = (
        "Objects handed out by caches and policy-tree snapshots are\n"
        "shared: mutating one in place silently rewrites what every\n"
        "other holder (and every future cache hit) sees. Copy before\n"
        "writing, or rebind the name to a fresh value -- a plain\n"
        "'name = ...' un-freezes it."
    )
    example = (
        "src/repro/core/mcts.py:310: [frozen-mutation] 'config' came "
        "from a cache lookup and is mutated in place via .append"
    )

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in module.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                violations.extend(self._check_function(module, node))
        return violations

    def _check_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Violation]:
        # First pass: where does each local become frozen?
        frozen_at: Dict[str, List[int]] = {}
        rebound_at: Dict[str, List[int]] = {}
        origins: Dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if (
                        _is_cache_get(node.value)
                        or _is_cache_returning_call(node.value)
                        or _is_snapshot_read(node.value)
                    ):
                        frozen_at.setdefault(target.id, []).append(
                            node.lineno
                        )
                        origins[target.id] = _frozen_origin(node.value)
                    else:
                        rebound_at.setdefault(target.id, []).append(
                            node.lineno
                        )
        if not frozen_at:
            return

        def is_frozen(name: str, lineno: int) -> bool:
            freezes = [ln for ln in frozen_at.get(name, []) if ln < lineno]
            if not freezes:
                return False
            last_freeze = max(freezes)
            rebinds = [
                ln
                for ln in rebound_at.get(name, [])
                if last_freeze < ln < lineno
            ]
            return not rebinds

        for node in ast.walk(func):
            yield from self._flag_mutations(module, node, is_frozen, origins)

        # Snapshot stores: `node.costs = value` freezes *value* too —
        # flag later mutations of the assigned name.
        snapshot_values: Dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in SNAPSHOT_ATTRS
                        and isinstance(node.value, ast.Name)
                    ):
                        snapshot_values.setdefault(
                            node.value.id, node.lineno
                        )
        if snapshot_values:

            def is_snap_frozen(name: str, lineno: int) -> bool:
                frozen_line = snapshot_values.get(name)
                if frozen_line is None or lineno <= frozen_line:
                    return False
                rebinds = [
                    ln
                    for ln in rebound_at.get(name, [])
                    if frozen_line < ln < lineno
                ]
                return not rebinds

            snap_origins = {
                name: "a snapshot attribute" for name in snapshot_values
            }
            for node in ast.walk(func):
                yield from self._flag_mutations(
                    module, node, is_snap_frozen, snap_origins
                )

    def _flag_mutations(
        self,
        module: ModuleInfo,
        node: ast.AST,
        is_frozen: Callable[[str, int], bool],
        origins: Dict[str, str],
    ) -> Iterator[Violation]:
        name: str = ""
        how: str = ""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                base = _store_base_name(target)
                if base and is_frozen(base, node.lineno):
                    name = base
                    how = "written to"
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and is_frozen(node.target.id, node.lineno)
        ):
            name = node.target.id
            how = "augmented in place (mutates arrays)"
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and is_frozen(func.value.id, node.lineno)
            ):
                name = func.value.id
                how = f"mutated via .{func.attr}()"
        if name:
            origin = origins.get(name, "a cache")
            yield Violation(
                rule="frozen-mutation",
                path=module.rel_path,
                line=node.lineno,
                message=(
                    f"'{name}' came from {origin} and is {how}; "
                    "copy it (e.g. dataclasses.replace / .copy()) "
                    "before modifying"
                ),
            )


def _store_base_name(target: ast.expr) -> str:
    """Base name of an attribute/subscript store like ``x.a[i] = v``."""
    node = target
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
    return ""
