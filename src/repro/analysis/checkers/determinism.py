"""Determinism checker.

Three families of hazards, reported under distinct rule ids so each
can be suppressed independently:

* ``unseeded-random`` — module-level ``random.*`` / ``numpy.random.*``
  calls.  Reproducible tuning requires every draw to come from an
  explicitly seeded ``random.Random`` / ``numpy.random.default_rng``
  instance that is injected into the component (as MCTS does with its
  ``rng`` parameter).
* ``unordered-iteration`` — in ``core/`` and ``engine/`` only:
  iterating a ``set``/``frozenset`` into an ordered sink (a ``for``
  loop, a list/tuple, a non-set comprehension).  Set iteration order
  depends on ``PYTHONHASHSEED``, which silently breaks bitwise
  identical delta costing and rollout tie-breaks.  Order-free sinks
  (``sorted``, ``set``, ``len``, ``any``, ``all`` …) are exempt.
* ``wall-clock`` — importing ``time`` or ``datetime`` anywhere except
  ``bench/`` and ``repro/engine/metrics.py`` (home of the sanctioned
  :class:`~repro.engine.metrics.Stopwatch` helper).  Cost and
  estimator paths must be pure functions of their inputs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, register

#: Layers where set-iteration order matters (ordered outputs, costing
#: tie-breaks).  Other layers either are inherently order-free or are
#: covered by their own review (bench output is sorted explicitly).
_ORDERED_LAYERS = {"core", "engine", "ports", "serve"}

#: Call wrappers whose result does not depend on iteration order.
_ORDER_FREE_WRAPPERS = {"set", "frozenset", "sorted", "any", "all", "len"}

#: ``min``/``max`` are order-free over a total order but not when a
#: ``key=`` can produce ties resolved by encounter order.
_ORDER_FREE_UNLESS_KEYED = {"min", "max"}

#: ``random`` module attributes that construct independent generators
#: (fine) rather than drawing from the hidden global one (not fine).
_RANDOM_CONSTRUCTORS = {"Random", "SystemRandom", "getstate", "setstate"}

#: Files allowed to touch the wall clock outside ``bench/``:
#: ``metrics.py`` hosts the sanctioned Stopwatch; ``faults.py`` hosts
#: VirtualClock, whose default mode never reads the wall clock — the
#: ``time`` import only backs the opt-in ``real=True`` bench mode.
_CLOCK_WHITELIST_SUFFIXES = (
    "repro/engine/metrics.py",
    "repro/engine/faults.py",
)


@register
class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "unseeded RNG calls, set iteration feeding ordered sinks in "
        "core/engine, and wall-clock access outside bench/"
    )
    rationale = (
        "Tuning rounds must replay bit-identically: an unseeded rng,\n"
        "wall-clock timing, or set-iteration order leaking into an\n"
        "ordered sink makes two runs of the same workload pick\n"
        "different index configurations, and every downstream\n"
        "comparison (A/B of search strategies, regression benches)\n"
        "stops meaning anything."
    )
    example = (
        "src/repro/core/mcts.py:210: [determinism] random.Random() "
        "without a seed; thread the run's seed through instead"
    )

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        violations: List[Violation] = []
        aliases = _collect_aliases(module)
        violations.extend(_check_unseeded_random(module, aliases))
        violations.extend(_check_wall_clock(module))
        if module.layer in _ORDERED_LAYERS:
            violations.extend(_check_unordered_iteration(module))
        return violations


# ---------------------------------------------------------------------------
# Alias tracking for random / numpy.random
# ---------------------------------------------------------------------------


class _Aliases:
    def __init__(self) -> None:
        self.random_modules: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        #: local name -> original function name from ``random``/
        #: ``numpy.random`` (e.g. ``from random import shuffle``).
        self.direct_functions: Dict[str, str] = {}


def _collect_aliases(module: ModuleInfo) -> _Aliases:
    aliases = _Aliases()
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".")[0]
                if name.name == "random":
                    aliases.random_modules.add(bound)
                elif name.name == "numpy":
                    aliases.numpy_modules.add(bound)
                elif name.name == "numpy.random":
                    if name.asname:
                        aliases.numpy_random_modules.add(name.asname)
                    else:
                        aliases.numpy_modules.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for name in node.names:
                    if name.name not in _RANDOM_CONSTRUCTORS:
                        bound = name.asname or name.name
                        aliases.direct_functions[bound] = name.name
            elif node.module == "numpy" and any(
                n.name == "random" for n in node.names
            ):
                for name in node.names:
                    if name.name == "random":
                        aliases.numpy_random_modules.add(
                            name.asname or name.name
                        )
            elif node.module == "numpy.random":
                for name in node.names:
                    bound = name.asname or name.name
                    aliases.direct_functions[bound] = name.name
    return aliases


def _is_numpy_random_ref(node: ast.expr, aliases: _Aliases) -> bool:
    if isinstance(node, ast.Name):
        return node.id in aliases.numpy_random_modules
    if isinstance(node, ast.Attribute) and node.attr == "random":
        return (
            isinstance(node.value, ast.Name)
            and node.value.id in aliases.numpy_modules
        )
    return False


def _check_unseeded_random(
    module: ModuleInfo, aliases: _Aliases
) -> Iterator[Violation]:
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in aliases.random_modules
            ):
                if func.attr not in _RANDOM_CONSTRUCTORS:
                    yield _rng_violation(
                        module, node, f"random.{func.attr}()"
                    )
            elif _is_numpy_random_ref(value, aliases):
                if func.attr in ("default_rng", "Generator", "RandomState"):
                    if not node.args and not node.keywords:
                        yield _rng_violation(
                            module,
                            node,
                            f"numpy.random.{func.attr}() without a seed",
                        )
                else:
                    yield _rng_violation(
                        module, node, f"numpy.random.{func.attr}()"
                    )
        elif isinstance(func, ast.Name):
            original = aliases.direct_functions.get(func.id)
            if original is not None:
                if original in ("default_rng", "Generator", "RandomState"):
                    if not node.args and not node.keywords:
                        yield _rng_violation(
                            module,
                            node,
                            f"{original}() without a seed",
                        )
                else:
                    yield _rng_violation(module, node, f"{original}()")


def _rng_violation(
    module: ModuleInfo, node: ast.AST, what: str
) -> Violation:
    return Violation(
        rule="unseeded-random",
        path=module.rel_path,
        line=getattr(node, "lineno", 1),
        message=(
            f"{what} draws from global RNG state; inject a seeded "
            "random.Random / numpy.random.default_rng(seed) instead"
        ),
    )


# ---------------------------------------------------------------------------
# Wall clock
# ---------------------------------------------------------------------------


def _check_wall_clock(module: ModuleInfo) -> Iterator[Violation]:
    if module.layer in (None, "bench"):
        return
    if module.rel_path.endswith(_CLOCK_WHITELIST_SUFFIXES):
        return
    for node in module.nodes:
        banned: Optional[str] = None
        if isinstance(node, ast.Import):
            for name in node.names:
                root = name.name.split(".")[0]
                if root in ("time", "datetime"):
                    banned = root
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in ("time", "datetime"):
                banned = root
        if banned is not None:
            yield Violation(
                rule="wall-clock",
                path=module.rel_path,
                line=node.lineno,
                message=(
                    f"'{banned}' imported outside bench/; use "
                    "repro.engine.metrics.Stopwatch (the sanctioned "
                    "clock) or move the timing into bench/"
                ),
            )


# ---------------------------------------------------------------------------
# Set iteration feeding ordered sinks
# ---------------------------------------------------------------------------


def _check_unordered_iteration(module: ModuleInfo) -> Iterator[Violation]:
    parents: Dict[int, ast.AST] = {}
    for parent in module.nodes:
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent

    scopes: List[Tuple[ast.AST, List[ast.stmt]]] = [
        (module.tree, module.tree.body)
    ]
    for node in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node, node.body))

    for scope, body in scopes:
        set_names = _infer_set_names(scope, body)
        for stmt in body:
            for node in _walk_scope(stmt):
                yield from _flag_ordered_sinks(
                    module, node, set_names, parents
                )


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk *root* without descending into nested function scopes."""
    yield root
    for child in ast.iter_child_nodes(root):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield from _walk_scope(child)


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    names = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
             "MutableSet"}
    if isinstance(target, ast.Name):
        return target.id in names
    if isinstance(target, ast.Attribute):
        return target.attr in names
    return False


def _infer_set_names(scope: ast.AST, body: List[ast.stmt]) -> Set[str]:
    """Names that are definitely set-typed inside *scope*.

    Syntactic and conservative: parameters with set annotations, plus
    locals whose every assignment is a set-typed expression.
    """
    set_names: Set[str] = set()
    assigned: Dict[str, List[ast.expr]] = {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [
            *args.posonlyargs, *args.args, *args.kwonlyargs
        ]:
            if _annotation_is_set(arg.annotation):
                set_names.add(arg.arg)
    for stmt in body:
        for node in _walk_scope(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    if _annotation_is_set(node.annotation):
                        set_names.add(node.target.id)
                    elif node.value is not None:
                        assigned.setdefault(node.target.id, []).append(
                            node.value
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                # Loop targets take element values, never whole sets;
                # but record the rebinding so the name is not inferred
                # as a set from some other assignment.
                if isinstance(node.target, ast.Name):
                    assigned.setdefault(node.target.id, []).append(node.iter)
    # Fixed point: a set-valued expression may reference another local
    # that itself is only known to be a set after the first pass.
    changed = True
    while changed:
        changed = False
        for name, values in assigned.items():
            if name in set_names:
                continue
            if values and all(
                _is_set_expr(value, set_names) for value in values
            ):
                set_names.add(name)
                changed = True
    # A loop target assignment means the name holds elements, not
    # sets — drop anything polluted that way.
    return set_names


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _consumer_is_order_free(
    node: ast.AST, parents: Dict[int, ast.AST]
) -> bool:
    parent = parents.get(id(node))
    if not isinstance(parent, ast.Call):
        return False
    if node not in parent.args:
        return False
    func = parent.func
    if isinstance(func, ast.Name):
        if func.id in _ORDER_FREE_WRAPPERS:
            return True
        if func.id in _ORDER_FREE_UNLESS_KEYED:
            return not any(kw.arg == "key" for kw in parent.keywords)
    return False


def _flag_ordered_sinks(
    module: ModuleInfo,
    node: ast.AST,
    set_names: Set[str],
    parents: Dict[int, ast.AST],
) -> Iterator[Violation]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        if _is_set_expr(node.iter, set_names):
            yield _iteration_violation(module, node.iter, "a for loop")
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        if _consumer_is_order_free(node, parents):
            return
        for generator in node.generators:
            if _is_set_expr(generator.iter, set_names):
                kind = (
                    "a dict comprehension"
                    if isinstance(node, ast.DictComp)
                    else "an ordered comprehension"
                )
                yield _iteration_violation(module, generator.iter, kind)
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_expr(node.args[0], set_names)
        ):
            yield _iteration_violation(
                module, node, f"{func.id}() materialization"
            )


def _iteration_violation(
    module: ModuleInfo, node: ast.AST, sink: str
) -> Violation:
    return Violation(
        rule="unordered-iteration",
        path=module.rel_path,
        line=getattr(node, "lineno", 1),
        message=(
            f"set iteration order feeds {sink}; order depends on "
            "PYTHONHASHSEED — wrap the set in sorted(...) or use an "
            "order-free reduction"
        ),
    )
