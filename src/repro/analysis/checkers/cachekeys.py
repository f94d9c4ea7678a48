"""Cache-key completeness checker.

Targets the memoization idiom used by ``engine/planner.py`` and
``core/estimator.py``::

    cached = self._cache.get(key)
    if cached is not None:
        return cached
    ...compute...
    self._cache.put(key, value)        # or: self._cache[key] = value

Correctness of delta costing rests on the key covering *everything*
the computation between ``get`` and ``put`` reads.  The checker
verifies two subset relations for that region:

* every **parameter** read inside the region is reachable from the
  key expression (through local assignment chains);
* every **mutable attribute** of ``self`` read inside the region
  (directly or via same-class helper calls) is mentioned in the key.

"Mutable" is decided per class: attributes rebound by plain
assignment outside ``__init__``.  Attributes assigned only in
``__init__`` are construction constants, and attributes whose only
non-init writes are ``+=``-style counters are instrumentation; both
are exempt.  A ``get`` whose key is a bare parameter is skipped —
the caller owns key construction.

A third rule covers *versioned* key material: a cache key built from
``normalize_sql()`` output must also carry ``NORMALIZER_VERSION``
somewhere in its construction chain — a persisted or long-lived
mapping built under one set of masking rules must never be consulted
under another.  ``raw_key()`` is the blessed constructor (it embeds
the version itself) and satisfies the rule without an explicit
constant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, register

#: Attribute-name fragments that identify a memoization store.
_CACHE_NAME_HINTS = ("cache", "memo")

#: Helpers whose output format is governed by a version constant: a
#: cache key built from the helper must reference that constant too.
#: (``raw_key`` embeds ``NORMALIZER_VERSION`` itself and is the
#: preferred way to satisfy the rule.)
_VERSIONED_HELPERS: Dict[str, str] = {
    "normalize_sql": "NORMALIZER_VERSION",
}


def _is_cache_attr(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _CACHE_NAME_HINTS)


@dataclass
class _ClassModel:
    methods: Dict[str, ast.FunctionDef]
    mutable_attrs: Set[str]
    counter_attrs: Set[str]


def _model_class(cls: ast.ClassDef) -> _ClassModel:
    methods: Dict[str, ast.FunctionDef] = {}
    plain_writes: Dict[str, Set[str]] = {}
    aug_writes: Dict[str, Set[str]] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = item  # type: ignore[assignment]
            for node in ast.walk(item):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        aug_writes.setdefault(target.attr, set()).add(
                            item.name
                        )
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        plain_writes.setdefault(target.attr, set()).add(
                            item.name
                        )
    init_names = {"__init__", "__post_init__"}
    mutable = {
        attr
        for attr, writers in plain_writes.items()
        if writers - init_names
    }
    counters = {
        attr
        for attr, writers in aug_writes.items()
        if attr not in mutable and (writers - init_names)
    }
    return _ClassModel(
        methods=methods, mutable_attrs=mutable, counter_attrs=counters
    )


@dataclass
class _CachePattern:
    cache_attr: str
    key_expr: ast.expr
    get_line: int
    put_line: int


def _find_patterns(func: ast.FunctionDef) -> List[_CachePattern]:
    gets: List[Tuple[str, ast.expr, int]] = []
    puts: List[Tuple[str, int]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            func_expr = call.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "get"
                and _self_cache_attr(func_expr.value) is not None
                and call.args
            ):
                attr = _self_cache_attr(func_expr.value)
                assert attr is not None
                gets.append((attr, call.args[0], node.lineno))
        if isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "put"
                and _self_cache_attr(func_expr.value) is not None
            ):
                attr = _self_cache_attr(func_expr.value)
                assert attr is not None
                puts.append((attr, node.lineno))
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_cache_attr(target.value)
                    if attr is not None:
                        puts.append((attr, node.lineno))
    patterns: List[_CachePattern] = []
    for attr, key_expr, get_line in gets:
        put_lines = [
            line for put_attr, line in puts
            if put_attr == attr and line > get_line
        ]
        if put_lines:
            patterns.append(
                _CachePattern(attr, key_expr, get_line, min(put_lines))
            )
    return patterns


def _self_cache_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and _is_cache_attr(node.attr)
    ):
        return node.attr
    return None


def _param_names(func: ast.FunctionDef) -> Set[str]:
    args = func.args
    names = {
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    names.discard("self")
    return names


def _local_assignments(func: ast.FunctionDef) -> Dict[str, List[ast.expr]]:
    """Map of local name -> every expression assigned to it.

    Tuple targets map each element name to the whole right-hand side
    (``key, relevant = self._mk(...)`` covers both names); ``for``
    targets map to the iterable.
    """
    out: Dict[str, List[ast.expr]] = {}

    def record(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            out.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, value)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            record(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            record(node.target, node.iter)
    return out


def _expr_names(expr: ast.expr) -> Set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _expr_self_attrs(expr: ast.expr) -> Set[str]:
    return {
        n.attr
        for n in ast.walk(expr)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "self"
    }


def _covered_params(
    key_expr: ast.expr,
    params: Set[str],
    assignments: Dict[str, List[ast.expr]],
) -> Set[str]:
    """Parameters reachable from the key via local assignment chains."""
    covered: Set[str] = set()
    seen: Set[str] = set()
    frontier: List[ast.expr] = [key_expr]
    while frontier:
        expr = frontier.pop()
        for name in _expr_names(expr):
            if name in params:
                covered.add(name)
            elif name not in seen:
                seen.add(name)
                frontier.extend(assignments.get(name, []))
    return covered


def _key_chain(
    key_expr: ast.expr, assignments: Dict[str, List[ast.expr]]
) -> List[ast.expr]:
    """Every expression reachable from the key via local assignments."""
    exprs: List[ast.expr] = []
    seen: Set[str] = set()
    frontier: List[ast.expr] = [key_expr]
    while frontier:
        expr = frontier.pop()
        exprs.append(expr)
        for name in _expr_names(expr):
            if name not in seen:
                seen.add(name)
                frontier.extend(assignments.get(name, []))
    return exprs


def _chain_calls(exprs: List[ast.expr]) -> Set[str]:
    """Function names called anywhere in the chain (bare or ``x.f()``)."""
    names: Set[str] = set()
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name):
                    names.add(callee.id)
                elif isinstance(callee, ast.Attribute):
                    names.add(callee.attr)
    return names


def _chain_references(exprs: List[ast.expr]) -> Set[str]:
    """Bare names and attribute names mentioned anywhere in the chain."""
    names: Set[str] = set()
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _region_nodes(
    func: ast.FunctionDef, start: int, end: int
) -> Iterable[ast.AST]:
    for node in ast.walk(func):
        lineno = getattr(node, "lineno", None)
        if lineno is not None and start < lineno <= end:
            yield node


def _transitive_attr_reads(
    model: _ClassModel,
    method_name: str,
    memo: Dict[str, Set[str]],
    stack: Set[str],
) -> Set[str]:
    """Mutable self-attrs read anywhere inside *method_name* (deep)."""
    if method_name in memo:
        return memo[method_name]
    if method_name in stack:
        return set()
    method = model.methods.get(method_name)
    if method is None:
        return set()
    stack.add(method_name)
    reads: Set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
            and node.attr in model.mutable_attrs
        ):
            reads.add(node.attr)
        if isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and callee.attr in model.methods
            ):
                reads |= _transitive_attr_reads(
                    model, callee.attr, memo, stack
                )
    stack.discard(method_name)
    memo[method_name] = reads
    return reads


@register
class CacheKeyChecker(Checker):
    name = "cache-key"
    description = (
        "memoization keys must cover every parameter and mutable "
        "attribute the cached computation reads"
    )
    rationale = (
        "A memo key that omits an input the computation reads serves\n"
        "stale results the moment that input changes -- the classic\n"
        "shape is caching a cost by template fingerprint while also\n"
        "reading the index configuration. Every parameter and mutable\n"
        "attribute the cached body touches must appear in the key (or\n"
        "be versioned into it)."
    )
    example = (
        "src/repro/core/estimator.py:402: [cache-key] cached method "
        "'query_cost' reads 'config' but its memo key omits it"
    )

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in module.nodes:
            if isinstance(node, ast.ClassDef):
                model = _model_class(node)
                for method in model.methods.values():
                    violations.extend(
                        self._check_method(module, model, method)
                    )
        return violations

    def _check_method(
        self,
        module: ModuleInfo,
        model: _ClassModel,
        func: ast.FunctionDef,
    ) -> Iterable[Violation]:
        patterns = _find_patterns(func)
        if not patterns:
            return
        params = _param_names(func)
        assignments = _local_assignments(func)
        memo: Dict[str, Set[str]] = {}
        for pattern in patterns:
            if (
                isinstance(pattern.key_expr, ast.Name)
                and pattern.key_expr.id in params
            ):
                continue  # caller-constructed key
            key_exprs: List[ast.expr] = [pattern.key_expr]
            if isinstance(pattern.key_expr, ast.Name):
                key_exprs.extend(
                    assignments.get(pattern.key_expr.id, [])
                )
            covered = set()
            key_attrs: Set[str] = set()
            for expr in key_exprs:
                covered |= _covered_params(expr, params, assignments)
                key_attrs |= _expr_self_attrs(expr)

            chain = _key_chain(pattern.key_expr, assignments)
            chain_calls = _chain_calls(chain)
            chain_refs = _chain_references(chain)
            for helper, version in sorted(_VERSIONED_HELPERS.items()):
                if helper in chain_calls and version not in chain_refs:
                    yield Violation(
                        rule="cache-key",
                        path=module.rel_path,
                        line=pattern.get_line,
                        message=(
                            f"key of 'self.{pattern.cache_attr}' in "
                            f"{func.name}() is built from {helper}() "
                            f"but does not include {version} (use "
                            f"raw_key(), or add the constant to the "
                            f"key)"
                        ),
                    )

            region = list(
                _region_nodes(func, pattern.get_line, pattern.put_line)
            )
            # `out[i] = value` — writing through a parameter is an
            # output buffer, not an input read; exempt those exact
            # Name occurrences.
            buffer_bases = {
                id(node.value)
                for node in region
                if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
            }
            read_params: Set[str] = set()
            read_attrs: Set[Tuple[str, int]] = set()
            for node in region:
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    if node.id in params and id(node) not in buffer_bases:
                        read_params.add(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and isinstance(node.ctx, ast.Load)
                ):
                    attr = node.attr
                    if (
                        attr in model.mutable_attrs
                        and attr != pattern.cache_attr
                        and attr not in model.counter_attrs
                    ):
                        read_attrs.add((attr, node.lineno))
                if isinstance(node, ast.Call):
                    callee = node.func
                    if (
                        isinstance(callee, ast.Attribute)
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id == "self"
                        and callee.attr in model.methods
                    ):
                        for attr in _transitive_attr_reads(
                            model, callee.attr, memo, set()
                        ):
                            if attr != pattern.cache_attr:
                                read_attrs.add((attr, node.lineno))

            for param in sorted(read_params - covered):
                yield Violation(
                    rule="cache-key",
                    path=module.rel_path,
                    line=pattern.get_line,
                    message=(
                        f"key of 'self.{pattern.cache_attr}' in "
                        f"{func.name}() does not cover parameter "
                        f"'{param}' read by the cached computation"
                    ),
                )
            for attr, lineno in sorted(read_attrs):
                if attr in key_attrs:
                    continue
                yield Violation(
                    rule="cache-key",
                    path=module.rel_path,
                    line=lineno,
                    message=(
                        f"cached computation in {func.name}() reads "
                        f"mutable attribute 'self.{attr}' that is not "
                        f"part of the 'self.{pattern.cache_attr}' key"
                    ),
                )
