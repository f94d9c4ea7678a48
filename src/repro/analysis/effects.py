"""Interprocedural effect inference over the project call graph.

Per-function *local* summaries are extracted file by file (pure, so
the runner caches them by content hash — see ``ANALYZER_VERSION``):
attribute writes rooted at ``self``, writes rooted at other typed
receivers, module-global writes, RNG draws, cache-invalidation calls,
and every resolved or unresolved call.  The :class:`EffectIndex` then
links summaries through :class:`~repro.analysis.graph.ProjectGraph`
and answers the question the interprocedural checkers ask: *which
functions does this entry point reach, through which chain, and what
do they do?*

Two deliberate boundaries keep the traversal honest:

* **Protocol boundary** — a call on a receiver typed as a protocol
  (or a class structurally implementing one) is classified against
  the protocol's method table, never traversed into an arbitrary
  implementation.
* **Cache boundary** — a call through an attribute whose name marks
  it as a cache/memo (``self._cost_cache.put(...)``) is cache
  maintenance by declaration; it is neither traversed nor treated as
  a state write.

Receivers whose type cannot be established resolve to *unknown
callees*: recorded (so tests can assert the degradation) but neither
traversed nor flagged.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph import (
    RANDOM_REF,
    AnnotationResolver,
    ModuleSymbols,
    ProjectGraph,
    _annotated_params,
    _ctor_class_ref,
    extract_symbols,
)

#: Bump when extraction output changes shape or semantics; cached
#: summaries from other versions are discarded wholesale.
ANALYZER_VERSION = 2

#: Attribute-name fragments that mark an attribute as cache/memo
#: state (mirrors the cache-key checker's convention).
CACHE_NAME_HINTS = ("cache", "memo", "snapshot")

#: In-place mutator method names (subset of the frozen-mutation
#: checker's table) — calling one on ``self.<attr>`` is a write.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "add", "discard", "sort",
        "reverse", "move_to_end", "appendleft", "popleft",
    }
)

#: ``random.Random`` draw methods.
RNG_METHODS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "triangular", "gauss",
        "normalvariate", "lognormvariate", "expovariate",
        "betavariate", "getrandbits", "vonmisesvariate",
    }
)

#: Methods whose *name* declares a cache flush wherever they are
#: called (the repo-wide invalidation convention).
INVALIDATE_METHODS = frozenset({"clear_cache", "invalidate_caches"})


def has_cache_hint(attr: str) -> bool:
    lowered = attr.lower()
    return any(hint in lowered for hint in CACHE_NAME_HINTS)


# ---------------------------------------------------------------------------
# Summary model (JSON-serializable)
# ---------------------------------------------------------------------------


@dataclass
class AttrWrite:
    """A write rooted at a receiver attribute.

    ``kind`` is one of ``assign`` (plain rebind), ``aug`` (augmented
    counter/accumulator), ``del``, ``subscript`` (item write through
    the attribute), ``deep`` (write to an attribute of the
    attribute), or ``call`` (in-place mutator method).
    """

    attr: str
    kind: str
    line: int
    method: Optional[str] = None  # for kind == "call"

    def to_dict(self) -> Dict[str, object]:
        return {
            "attr": self.attr,
            "kind": self.kind,
            "line": self.line,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AttrWrite":
        return cls(
            attr=str(data["attr"]),
            kind=str(data["kind"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            method=(
                None if data.get("method") is None
                else str(data["method"])
            ),
        )


@dataclass
class TypedWrite:
    """A write rooted at a non-self receiver of known class."""

    cls: str
    attr: str
    kind: str
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "cls": self.cls,
            "attr": self.attr,
            "kind": self.kind,
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TypedWrite":
        return cls(
            cls=str(data["cls"]),
            attr=str(data["attr"]),
            kind=str(data["kind"]),
            line=int(data["line"]),  # type: ignore[arg-type]
        )


@dataclass
class CallRef:
    """One call site, as resolved as per-file information allows.

    ``kind``:

    * ``func`` — module-level function; ``target`` is ``"mod:name"``.
    * ``method`` — method on a receiver of known class; ``cls`` is
      the class ref, ``name`` the method.
    * ``ctor`` — direct constructor call; ``cls`` is the class ref.
    * ``cache`` — call through a cache-hinted attribute (boundary).
    * ``unknown`` — unresolvable receiver or name (degraded, kept so
      callers can see the analysis was incomplete).
    """

    kind: str
    line: int
    name: str
    target: Optional[str] = None
    cls: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "line": self.line,
            "name": self.name,
            "target": self.target,
            "cls": self.cls,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CallRef":
        return cls(
            kind=str(data["kind"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            name=str(data["name"]),
            target=(
                None if data.get("target") is None
                else str(data["target"])
            ),
            cls=None if data.get("cls") is None else str(data["cls"]),
        )


@dataclass
class FunctionEffects:
    """Local (non-transitive) effect summary of one function."""

    qualname: str
    module: str
    rel_path: str
    name: str
    line: int
    cls: Optional[str] = None
    is_init: bool = False
    self_writes: List[AttrWrite] = field(default_factory=list)
    typed_writes: List[TypedWrite] = field(default_factory=list)
    global_writes: List[Tuple[str, int]] = field(default_factory=list)
    rng_draws: List[int] = field(default_factory=list)
    invalidate_calls: List[Tuple[str, int]] = field(default_factory=list)
    calls: List[CallRef] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "rel_path": self.rel_path,
            "name": self.name,
            "line": self.line,
            "cls": self.cls,
            "is_init": self.is_init,
            "self_writes": [w.to_dict() for w in self.self_writes],
            "typed_writes": [w.to_dict() for w in self.typed_writes],
            "global_writes": [list(g) for g in self.global_writes],
            "rng_draws": list(self.rng_draws),
            "invalidate_calls": [list(c) for c in self.invalidate_calls],
            "calls": [c.to_dict() for c in self.calls],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionEffects":
        return cls(
            qualname=str(data["qualname"]),
            module=str(data["module"]),
            rel_path=str(data["rel_path"]),
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            cls=None if data.get("cls") is None else str(data["cls"]),
            is_init=bool(data.get("is_init", False)),
            self_writes=[
                AttrWrite.from_dict(w)
                for w in data.get("self_writes", [])  # type: ignore[union-attr]
            ],
            typed_writes=[
                TypedWrite.from_dict(w)
                for w in data.get("typed_writes", [])  # type: ignore[union-attr]
            ],
            global_writes=[
                (str(g[0]), int(g[1]))
                for g in data.get("global_writes", [])  # type: ignore[union-attr]
            ],
            rng_draws=[
                int(n) for n in data.get("rng_draws", [])  # type: ignore[union-attr]
            ],
            invalidate_calls=[
                (str(c[0]), int(c[1]))
                for c in data.get("invalidate_calls", [])  # type: ignore[union-attr]
            ],
            calls=[
                CallRef.from_dict(c)
                for c in data.get("calls", [])  # type: ignore[union-attr]
            ],
        )


@dataclass
class FileSummary:
    """Everything the project pass derives from one file."""

    symbols: ModuleSymbols
    effects: Dict[str, FunctionEffects]

    def to_dict(self) -> Dict[str, object]:
        return {
            "symbols": self.symbols.to_dict(),
            "effects": {
                qual: eff.to_dict() for qual, eff in self.effects.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FileSummary":
        symbols_raw = data["symbols"]
        effects_raw = data.get("effects", {})
        assert isinstance(symbols_raw, dict)
        assert isinstance(effects_raw, dict)
        return cls(
            symbols=ModuleSymbols.from_dict(symbols_raw),
            effects={
                str(qual): FunctionEffects.from_dict(eff)
                for qual, eff in effects_raw.items()
            },
        )


# ---------------------------------------------------------------------------
# Per-file extraction
# ---------------------------------------------------------------------------


def _root_attr_chain(
    node: ast.expr,
) -> Tuple[Optional[str], List[str]]:
    """Peel subscripts/attributes down to the root name.

    ``self._shards[k].pop`` → ``("self", ["_shards"])`` (attributes
    in root-to-leaf order, subscripts transparent).
    """
    attrs: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            return current.id, list(reversed(attrs))
        else:
            return None, list(reversed(attrs))


class _FunctionExtractor(ast.NodeVisitor):
    """Walk one function body (not nested defs) collecting effects."""

    def __init__(
        self,
        effects: FunctionEffects,
        resolver: AnnotationResolver,
        symbols: ModuleSymbols,
        param_types: Dict[str, str],
        param_names: Set[str],
        self_class: Optional[str],
    ) -> None:
        self.effects = effects
        self.resolver = resolver
        self.symbols = symbols
        self.local_types: Dict[str, str] = dict(param_types)
        self.param_names = param_names
        self.self_class = self_class
        self.globals_declared: Set[str] = set()
        self._depth = 0

    # -- typing -------------------------------------------------------------

    def type_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.self_class is not None:
                return self.self_class
            found = self.local_types.get(node.id)
            if found is not None:
                return found
            return self.symbols.global_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value)
            if base is None:
                return None
            # Resolved lazily against the linked graph: record as a
            # symbolic chain only when base is known locally.
            return _ATTR_TYPE_SENTINEL.format(base=base, attr=node.attr)
        if isinstance(node, ast.Call):
            ref = _ctor_class_ref(node, self.resolver)
            if ref is not None:
                return ref
            callee = node.func
            if isinstance(callee, ast.Attribute):
                base = self.type_of(callee.value)
                if base is not None:
                    return _RETURN_TYPE_SENTINEL.format(
                        base=base, method=callee.attr
                    )
        return None

    # -- write targets ------------------------------------------------------

    def _record_write(
        self, target: ast.expr, kind: str, line: int
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, kind, line)
            return
        if isinstance(target, ast.Starred):
            self._record_write(target.value, kind, line)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.effects.global_writes.append((target.id, line))
            return
        root, attrs = _root_attr_chain(target)
        if root is None or not attrs:
            return
        # Direct attribute target keeps its own kind; deeper chains
        # are writes *through* the first attribute.
        if isinstance(target, ast.Attribute) and len(attrs) > 1:
            kind = "deep"
        if isinstance(target, ast.Subscript):
            kind = "subscript" if kind in ("assign", "aug") else kind
        attr = attrs[0]
        if root == "self" and self.self_class is not None:
            self.effects.self_writes.append(
                AttrWrite(attr=attr, kind=kind, line=line)
            )
            return
        # Subscript writes through a parameter are the output-buffer
        # idiom (the caller handed us somewhere to put results).
        if kind == "subscript" and root in self.param_names:
            return
        receiver_type = self.type_of(ast.Name(id=root))
        if receiver_type is not None:
            self.effects.typed_writes.append(
                TypedWrite(
                    cls=receiver_type, attr=attr, kind=kind, line=line
                )
            )

    def _concrete_type(self, node: ast.expr) -> Optional[str]:
        ref = self.type_of(node)
        if ref is None or "\x00" in ref:
            return None
        return ref

    # -- statements ---------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, "assign", node.lineno)
        # Constructor/typed-return assignments extend the local env.
        if len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            inferred = self._resolved_value_type(node.value)
            if inferred is not None:
                self.local_types[node.targets[0].id] = inferred
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, "assign", node.lineno)
        if isinstance(node.target, ast.Name):
            ref = self.resolver.resolve(node.annotation)
            if ref is not None:
                self.local_types[node.target.id] = ref
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, "aug", node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, "del", node.lineno)
        self.generic_visit(node)

    def _resolved_value_type(self, value: ast.expr) -> Optional[str]:
        """Type of an assigned value: constructor calls, aliases of
        typed names/globals, and annotated-return method calls (the
        latter as deferred chains resolved at link time)."""
        return self.type_of(value)

    # -- calls and reads ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        self.generic_visit(node)

    def _handle_call(self, node: ast.Call) -> None:
        line = node.lineno
        callee = node.func
        if isinstance(callee, ast.Name):
            self._handle_name_call(callee.id, line)
            return
        if not isinstance(callee, ast.Attribute):
            self.effects.calls.append(
                CallRef(kind="unknown", line=line, name="<dynamic>")
            )
            return
        method = callee.attr
        receiver = callee.value

        if method in INVALIDATE_METHODS:
            self.effects.invalidate_calls.append((method, line))

        # RNG draws: typed receiver or the repo's ``rng`` naming idiom.
        if method in RNG_METHODS and self._looks_like_rng(receiver):
            self.effects.rng_draws.append(line)

        # Cache boundary: calls through a cache/memo-hinted attribute.
        root, attrs = _root_attr_chain(receiver)
        if attrs and has_cache_hint(attrs[-1]):
            self.effects.calls.append(
                CallRef(kind="cache", line=line, name=method)
            )
            return

        # Mutator calls on self attributes are writes.
        if method in MUTATOR_METHODS and root == "self" and attrs:
            self.effects.self_writes.append(
                AttrWrite(
                    attr=attrs[0], kind="call", line=line, method=method
                )
            )

        receiver_type = self._receiver_class(receiver)
        if receiver_type is not None:
            if method in MUTATOR_METHODS and root != "self" and attrs:
                self.effects.typed_writes.append(
                    TypedWrite(
                        cls=receiver_type,
                        attr=attrs[0],
                        kind="call",
                        line=line,
                    )
                )
            self.effects.calls.append(
                CallRef(
                    kind="method",
                    line=line,
                    name=method,
                    cls=receiver_type,
                )
            )
            return

        # Module-function call through an import alias.
        if isinstance(receiver, ast.Name):
            target = self.symbols.imports.get(receiver.id)
            if target is not None and ":" not in target:
                self.effects.calls.append(
                    CallRef(
                        kind="func",
                        line=line,
                        name=method,
                        target=f"{target}:{method}",
                    )
                )
                return

        self.effects.calls.append(
            CallRef(kind="unknown", line=line, name=method)
        )

    def _handle_name_call(self, name: str, line: int) -> None:
        if name in INVALIDATE_METHODS:
            self.effects.invalidate_calls.append((name, line))
        if name in self.symbols.functions:
            self.effects.calls.append(
                CallRef(
                    kind="func",
                    line=line,
                    name=name,
                    target=self.symbols.functions[name].qualname,
                )
            )
            return
        class_ref = self.resolver.resolve_name(name)
        if class_ref is not None:
            self.effects.calls.append(
                CallRef(kind="ctor", line=line, name=name, cls=class_ref)
            )
            return
        imported = self.symbols.imports.get(name)
        if imported is not None and ":" in imported:
            module, _, symbol = imported.partition(":")
            self.effects.calls.append(
                CallRef(
                    kind="func",
                    line=line,
                    name=symbol,
                    target=imported,
                )
            )
            return
        # Builtins are not project calls; anything else unresolved is
        # recorded as unknown so the degradation stays visible.
        if not hasattr(builtins, name):
            self.effects.calls.append(
                CallRef(kind="unknown", line=line, name=name)
            )

    def _looks_like_rng(self, receiver: ast.expr) -> bool:
        ref = self._concrete_type(receiver)
        if ref == RANDOM_REF:
            return True
        root, attrs = _root_attr_chain(receiver)
        terminal = attrs[-1] if attrs else root
        return terminal is not None and (
            terminal == "rng" or terminal.endswith("_rng")
        )

    def _receiver_class(self, receiver: ast.expr) -> Optional[str]:
        # May be a deferred attr/return chain; the linker resolves it
        # against the full class graph.
        return self.type_of(receiver)

    # -- scoping ------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are separate scopes; their bodies are not part
        # of this function's direct effects (documented limitation).
        return None

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return None

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return None


#: Sentinels for lazily-resolved chained types (never serialized).
_ATTR_TYPE_SENTINEL = "{base}\x00attr\x00{attr}"
_RETURN_TYPE_SENTINEL = "{base}\x00ret\x00{method}"


def _extract_function(
    fn: ast.FunctionDef,
    qualname: str,
    symbols: ModuleSymbols,
    resolver: AnnotationResolver,
    rel_path: str,
    cls: Optional[str],
) -> FunctionEffects:
    effects = FunctionEffects(
        qualname=qualname,
        module=symbols.module,
        rel_path=rel_path,
        name=fn.name,
        line=fn.lineno,
        cls=cls,
        is_init=fn.name in ("__init__", "__post_init__"),
    )
    param_types: Dict[str, str] = {}
    for param, annotation in _annotated_params(fn).items():
        ref = resolver.resolve(annotation)
        if ref is not None:
            param_types[param] = ref
    param_names = {
        a.arg
        for a in [
            *fn.args.posonlyargs,
            *fn.args.args,
            *fn.args.kwonlyargs,
        ]
    }
    extractor = _FunctionExtractor(
        effects=effects,
        resolver=resolver,
        symbols=symbols,
        param_types=param_types,
        param_names=param_names,
        self_class=cls,
    )
    # Pre-scan for ``global`` declarations (they may follow uses).
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Global):
            extractor.globals_declared.update(sub.names)
    for stmt in fn.body:
        extractor.visit(stmt)
    return effects


def extract_file_summary(rel_path: str, tree: ast.Module) -> FileSummary:
    """Symbols plus per-function effects for one file (cacheable)."""
    symbols = extract_symbols(rel_path, tree)
    resolver = AnnotationResolver(
        symbols.module, list(symbols.classes), symbols.imports
    )
    effects: Dict[str, FunctionEffects] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            qual = f"{symbols.module}:{node.name}"
            effects[qual] = _extract_function(
                node, qual, symbols, resolver, rel_path, cls=None
            )
        elif isinstance(node, ast.ClassDef):
            class_ref = f"{symbols.module}:{node.name}"
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    qual = f"{class_ref}.{stmt.name}"
                    effects[qual] = _extract_function(
                        stmt,
                        qual,
                        symbols,
                        resolver,
                        rel_path,
                        cls=class_ref,
                    )
    return FileSummary(symbols=symbols, effects=effects)


# ---------------------------------------------------------------------------
# Linking and traversal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolCall:
    """A call that crossed the protocol boundary during traversal."""

    protocol: str
    method: str
    caller: str  # qualname of the function containing the call
    line: int


@dataclass
class Reached:
    """One function reached from an entry point."""

    effects: FunctionEffects
    chain: Tuple[str, ...]  # qualnames from entry (inclusive) to here


class EffectIndex:
    """Linked project-wide effects with reachability queries."""

    def __init__(
        self, graph: ProjectGraph, summaries: Sequence[FileSummary]
    ) -> None:
        self.graph = graph
        self.functions: Dict[str, FunctionEffects] = {}
        for summary in summaries:
            self.functions.update(summary.effects)

    # -- type resolution for deferred chains --------------------------------

    def resolve_type(self, ref: Optional[str]) -> Optional[str]:
        """Resolve deferred attr/return chains to concrete class refs.

        Local extraction can only say "the type of ``ctx.diagnosis``
        is *whatever the `diagnosis` attribute of TuningContext is*";
        this resolves such chains against the linked class graph.
        """
        if ref is None or "\x00" not in ref:
            return ref
        head, mode, name = ref.rsplit("\x00", 2)
        base = self.resolve_type(head)
        if base is None:
            return None
        if mode == "attr":
            return self.resolve_type(self.graph.attr_type(base, name))
        if mode == "ret":
            method = self.graph.resolve_method(base, name)
            if method is None:
                return None
            return self.resolve_type(method.returns)
        return None

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self, ref: CallRef
    ) -> Tuple[Optional[str], Optional[ProtocolCall]]:
        """Resolve one call ref to (callee qualname, protocol call).

        Exactly one of the pair is non-None for resolvable calls;
        both are None for unknown/cache/external calls.
        """
        if ref.kind == "func":
            if ref.target is not None and ref.target in self.functions:
                return ref.target, None
            return None, None
        if ref.kind == "ctor":
            if ref.cls is None:
                return None, None
            for ctor_name in ("__init__", "__post_init__"):
                method = self.graph.resolve_method(ref.cls, ctor_name)
                if method is not None and (
                    method.qualname in self.functions
                ):
                    return method.qualname, None
            return None, None
        if ref.kind == "method":
            cls = self.resolve_type(ref.cls)
            if cls is None:
                return None, None
            protocol = self.graph.protocol_for_call(cls)
            if protocol is not None:
                return None, ProtocolCall(
                    protocol=protocol,
                    method=ref.name,
                    caller="",
                    line=ref.line,
                )
            method = self.graph.resolve_method(cls, ref.name)
            if method is not None and method.qualname in self.functions:
                return method.qualname, None
            return None, None
        return None, None

    # -- reachability -------------------------------------------------------

    def walk_from(
        self, entry: str
    ) -> Tuple[List[Reached], List[Tuple[ProtocolCall, Tuple[str, ...]]]]:
        """BFS over the call graph from *entry*.

        Returns every reached function (first-found chain, entry
        included) and every protocol-boundary call encountered, with
        the chain of the calling function.  Deterministic: neighbors
        expand in call-site order, queue order is FIFO.
        """
        if entry not in self.functions:
            return [], []
        reached: List[Reached] = []
        protocol_calls: List[Tuple[ProtocolCall, Tuple[str, ...]]] = []
        seen: Set[str] = {entry}
        queue: deque[Tuple[str, Tuple[str, ...]]] = deque(
            [(entry, (entry,))]
        )
        while queue:
            qualname, chain = queue.popleft()
            effects = self.functions[qualname]
            reached.append(Reached(effects=effects, chain=chain))
            for ref in effects.calls:
                callee, protocol = self.resolve_call(ref)
                if protocol is not None:
                    protocol_calls.append(
                        (
                            ProtocolCall(
                                protocol=protocol.protocol,
                                method=protocol.method,
                                caller=qualname,
                                line=ref.line,
                            ),
                            chain,
                        )
                    )
                elif callee is not None and callee not in seen:
                    seen.add(callee)
                    queue.append((callee, chain + (callee,)))
        return reached, protocol_calls
