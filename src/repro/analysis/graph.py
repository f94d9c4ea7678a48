"""Project-wide symbol table and call resolution.

The per-file checkers in :mod:`repro.analysis.checkers` see one
module at a time; the interprocedural rules (stage-effects,
cache-invalidation) need to follow calls across modules.  This module provides the *symbol* half of that: per-file
extraction of classes, functions, imports and attribute types into
JSON-serializable :class:`ModuleSymbols`, and a :class:`ProjectGraph`
that links them — class hierarchy, method lookup through inheritance,
structural protocol matching, and annotation-based type resolution.

Resolution is deliberately conservative and syntactic.  Types come
from annotations (parameters, dataclass fields, ``__init__``
assignments of annotated parameters or direct constructor calls) and
from constructor-call or annotated-return assignments to locals; a
receiver whose type cannot be established resolves to *unknown* and
is neither traversed nor reported — the analyzer must never crash or
guess on dynamic code.

Everything here is stdlib-only and pure: extraction is per-file (so
results can be cached by content hash), linking is cheap and redone
every run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Annotation ref for the stdlib RNG type (``random.Random``); the
#: effects layer treats draws on values of this type as rng effects.
RANDOM_REF = "random:Random"

#: Fraction of a protocol's methods a class must define (including
#: inherited ones) to count as a structural implementation.
_PROTOCOL_MATCH_RATIO = 0.6


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a project-relative POSIX path.

    ``src/repro/core/mcts.py`` → ``repro.core.mcts``; package
    ``__init__.py`` files name the package itself.
    """
    parts = list(rel_path.split("/"))
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if not parts:
        return rel_path
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts) if parts else leaf


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    name: str
    qualname: str  # "module:func" or "module:Class.meth"
    line: int
    returns: Optional[str] = None  # resolved class ref of return type

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "line": self.line,
            "returns": self.returns,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionSymbol":
        return cls(
            name=str(data["name"]),
            qualname=str(data["qualname"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            returns=(
                None if data.get("returns") is None
                else str(data["returns"])
            ),
        )


@dataclass
class ClassSymbol:
    """One class definition plus what checkers need to dispatch on it."""

    name: str
    qualname: str  # "module:Class"
    line: int
    end_line: int
    bases: List[str] = field(default_factory=list)  # resolved refs or raw names
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    is_protocol: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "line": self.line,
            "end_line": self.end_line,
            "bases": list(self.bases),
            "methods": {
                name: sym.to_dict() for name, sym in self.methods.items()
            },
            "attr_types": dict(self.attr_types),
            "is_protocol": self.is_protocol,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClassSymbol":
        methods_raw = data.get("methods", {})
        assert isinstance(methods_raw, dict)
        return cls(
            name=str(data["name"]),
            qualname=str(data["qualname"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            end_line=int(data["end_line"]),  # type: ignore[arg-type]
            bases=[str(b) for b in data.get("bases", [])],  # type: ignore[union-attr]
            methods={
                str(name): FunctionSymbol.from_dict(sym)
                for name, sym in methods_raw.items()
            },
            attr_types={
                str(k): str(v)
                for k, v in data.get("attr_types", {}).items()  # type: ignore[union-attr]
            },
            is_protocol=bool(data.get("is_protocol", False)),
        )


@dataclass
class ModuleSymbols:
    """Everything the linker needs from one module."""

    module: str
    rel_path: str
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    #: alias → ``"module:Name"`` (from-imports) or ``"module"``
    #: (module imports).
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level annotated globals: name → resolved class ref.
    global_types: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "rel_path": self.rel_path,
            "classes": {
                name: sym.to_dict() for name, sym in self.classes.items()
            },
            "functions": {
                name: sym.to_dict() for name, sym in self.functions.items()
            },
            "imports": dict(self.imports),
            "global_types": dict(self.global_types),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSymbols":
        classes_raw = data.get("classes", {})
        functions_raw = data.get("functions", {})
        assert isinstance(classes_raw, dict)
        assert isinstance(functions_raw, dict)
        return cls(
            module=str(data["module"]),
            rel_path=str(data["rel_path"]),
            classes={
                str(name): ClassSymbol.from_dict(sym)
                for name, sym in classes_raw.items()
            },
            functions={
                str(name): FunctionSymbol.from_dict(sym)
                for name, sym in functions_raw.items()
            },
            imports={
                str(k): str(v)
                for k, v in data.get("imports", {}).items()  # type: ignore[union-attr]
            },
            global_types={
                str(k): str(v)
                for k, v in data.get("global_types", {}).items()  # type: ignore[union-attr]
            },
        )


# ---------------------------------------------------------------------------
# Per-file extraction
# ---------------------------------------------------------------------------


class AnnotationResolver:
    """Resolve annotation expressions to class refs within one module."""

    def __init__(
        self,
        module: str,
        local_classes: Sequence[str],
        imports: Dict[str, str],
    ) -> None:
        self.module = module
        self.local_classes = set(local_classes)
        self.imports = imports

    def resolve(self, node: Optional[ast.expr]) -> Optional[str]:
        """Class ref (``"module:Class"``) for an annotation, or None.

        Unwraps ``Optional[T]``, ``T | None`` and string (forward)
        annotations; containers and unions of distinct types resolve
        to None — the conservative "unknown" answer.
        """
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return None
            return self.resolve(parsed.body)
        if isinstance(node, ast.Name):
            return self.resolve_name(node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                target = self.imports.get(base.id)
                if target is not None and ":" not in target:
                    return f"{target}:{node.attr}"
            return None
        if isinstance(node, ast.Subscript):
            head = node.value
            if isinstance(head, ast.Name) and head.id in (
                "Optional",
                "Final",
                "ClassVar",
            ):
                return self.resolve(node.slice)
            if isinstance(head, ast.Name) and head.id == "Union":
                return self._resolve_union_args(node.slice)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self.resolve(node.left)
            right = self.resolve(node.right)
            if left is not None and right is None:
                return left
            if right is not None and left is None:
                return right
            return left if left == right else None
        return None

    def _resolve_union_args(self, slice_node: ast.expr) -> Optional[str]:
        if not isinstance(slice_node, ast.Tuple):
            return self.resolve(slice_node)
        refs = []
        for element in slice_node.elts:
            if isinstance(element, ast.Constant) and element.value is None:
                continue
            refs.append(self.resolve(element))
        non_null = [r for r in refs if r is not None]
        if len(non_null) == 1 and len(refs) == 1:
            return non_null[0]
        return None

    def resolve_name(self, name: str) -> Optional[str]:
        """Class ref for a bare name in this module's scope."""
        if name in self.local_classes:
            return f"{self.module}:{name}"
        target = self.imports.get(name)
        if target is not None and ":" in target:
            return target
        return None


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports: out of scope
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = f"{node.module}:{alias.name}"
    return imports


def _annotated_params(fn: ast.FunctionDef) -> Dict[str, ast.expr]:
    out: Dict[str, ast.expr] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            out[arg.arg] = arg.annotation
    return out


def _is_protocol_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "Protocol":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "Protocol":
            return True
        if isinstance(base, ast.Subscript):
            head = base.value
            if isinstance(head, ast.Name) and head.id == "Protocol":
                return True
    return False


def _base_refs(
    node: ast.ClassDef, resolver: AnnotationResolver
) -> List[str]:
    refs: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            resolved = resolver.resolve_name(base.id)
            refs.append(resolved if resolved is not None else base.id)
        elif isinstance(base, ast.Attribute):
            resolved = resolver.resolve(base)
            if resolved is not None:
                refs.append(resolved)
    return refs


def _ctor_class_ref(
    value: ast.expr, resolver: AnnotationResolver
) -> Optional[str]:
    """Class ref when *value* is a direct ``ClassName(...)`` call."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return resolver.resolve_name(value.func.id)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        return resolver.resolve(value.func)
    return None


def _class_attr_types(
    node: ast.ClassDef, resolver: AnnotationResolver
) -> Dict[str, str]:
    """Attribute types from class-body annotations and ``__init__``."""
    attr_types: Dict[str, str] = {}
    # Dataclass fields / class-level annotations.
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            ref = resolver.resolve(stmt.annotation)
            if ref is not None:
                attr_types[stmt.target.id] = ref
    # __init__ / __post_init__ assignments.
    for stmt in node.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        if stmt.name not in ("__init__", "__post_init__"):
            continue
        params = _annotated_params(stmt)
        for sub in ast.walk(stmt):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            ref: Optional[str] = None
            if annotation is not None:
                ref = resolver.resolve(annotation)
            if ref is None and isinstance(value, ast.Name):
                ref = resolver.resolve(params.get(value.id))
            if ref is None and value is not None:
                ref = _ctor_class_ref(value, resolver)
            if ref is not None and attr not in attr_types:
                attr_types[attr] = ref
    return attr_types


def extract_symbols(rel_path: str, tree: ast.Module) -> ModuleSymbols:
    """Per-file symbol extraction (pure, cacheable by content hash)."""
    module = module_name_for(rel_path)
    imports = _collect_imports(tree)
    class_names = [
        n.name for n in tree.body if isinstance(n, ast.ClassDef)
    ]
    resolver = AnnotationResolver(module, class_names, imports)

    classes: Dict[str, ClassSymbol] = {}
    functions: Dict[str, FunctionSymbol] = {}
    global_types: Dict[str, str] = {}

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods: Dict[str, FunctionSymbol] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    methods[stmt.name] = FunctionSymbol(
                        name=stmt.name,
                        qualname=f"{module}:{node.name}.{stmt.name}",
                        line=stmt.lineno,
                        returns=resolver.resolve(stmt.returns),
                    )
            classes[node.name] = ClassSymbol(
                name=node.name,
                qualname=f"{module}:{node.name}",
                line=node.lineno,
                end_line=node.end_lineno or node.lineno,
                bases=_base_refs(node, resolver),
                methods=methods,
                attr_types=_class_attr_types(node, resolver),
                is_protocol=_is_protocol_class(node),
            )
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = FunctionSymbol(
                name=node.name,
                qualname=f"{module}:{node.name}",
                line=node.lineno,
                returns=resolver.resolve(node.returns),
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            ref = resolver.resolve(node.annotation)
            if ref is not None:
                global_types[node.target.id] = ref

    return ModuleSymbols(
        module=module,
        rel_path=rel_path,
        classes=classes,
        functions=functions,
        imports=imports,
        global_types=global_types,
    )


# ---------------------------------------------------------------------------
# Project linking
# ---------------------------------------------------------------------------


class ProjectGraph:
    """Linked view over every module's symbols.

    Built fresh each run (linking is cheap); the per-file
    :class:`ModuleSymbols` inputs may come from the effects cache.
    """

    def __init__(self, modules: Sequence[ModuleSymbols]) -> None:
        self.modules: Dict[str, ModuleSymbols] = {
            m.module: m for m in modules
        }
        self.classes: Dict[str, ClassSymbol] = {}
        self.class_module: Dict[str, str] = {}
        for mod in modules:
            for sym in mod.classes.values():
                self.classes[sym.qualname] = sym
                self.class_module[sym.qualname] = mod.module
        self._mro_cache: Dict[str, Tuple[str, ...]] = {}
        self._impl_cache: Dict[str, Tuple[str, ...]] = {}

    # -- classes ------------------------------------------------------------

    def mro(self, class_ref: str) -> Tuple[str, ...]:
        """The class plus its known bases, depth-first, deduplicated."""
        cached = self._mro_cache.get(class_ref)
        if cached is not None:
            return cached
        order: List[str] = []
        stack = [class_ref]
        seen = set()
        while stack:
            ref = stack.pop(0)
            if ref in seen or ref not in self.classes:
                continue
            seen.add(ref)
            order.append(ref)
            stack.extend(self.classes[ref].bases)
        result = tuple(order)
        self._mro_cache[class_ref] = result
        return result

    def attr_type(self, class_ref: str, attr: str) -> Optional[str]:
        """Declared/inferred type of ``<class>.<attr>``, through bases."""
        for ref in self.mro(class_ref):
            found = self.classes[ref].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def method_names(self, class_ref: str) -> Tuple[str, ...]:
        names = set()
        for ref in self.mro(class_ref):
            names.update(self.classes[ref].methods)
        return tuple(sorted(names))

    def resolve_method(
        self, class_ref: str, name: str
    ) -> Optional[FunctionSymbol]:
        """Find *name* on the class or its known bases (first wins)."""
        for ref in self.mro(class_ref):
            found = self.classes[ref].methods.get(name)
            if found is not None:
                return found
        return None

    def resolve_function(
        self, module: str, name: str
    ) -> Optional[FunctionSymbol]:
        mod = self.modules.get(module)
        if mod is None:
            return None
        return mod.functions.get(name)

    # -- protocols ----------------------------------------------------------

    def is_protocol(self, class_ref: str) -> bool:
        sym = self.classes.get(class_ref)
        return sym is not None and sym.is_protocol

    def protocols_of(self, class_ref: str) -> Tuple[str, ...]:
        """Protocols *class_ref* structurally implements."""
        cached = self._impl_cache.get(class_ref)
        if cached is not None:
            return cached
        sym = self.classes.get(class_ref)
        matches: List[str] = []
        if sym is not None and not sym.is_protocol:
            own = set(self.method_names(class_ref))
            for proto_ref in sorted(self.classes):
                proto = self.classes[proto_ref]
                if not proto.is_protocol:
                    continue
                wanted = {
                    n for n in proto.methods if not n.startswith("__")
                }
                if not wanted:
                    continue
                needed = max(1, int(len(wanted) * _PROTOCOL_MATCH_RATIO))
                if len(wanted & own) >= needed:
                    matches.append(proto_ref)
        result = tuple(matches)
        self._impl_cache[class_ref] = result
        return result

    def protocol_for_call(self, class_ref: str) -> Optional[str]:
        """The protocol boundary a call on *class_ref* crosses, if any.

        Calls on a protocol-typed receiver, or on a class implementing
        one, are classified against the protocol's method table
        instead of being traversed into an arbitrary implementation.
        """
        if self.is_protocol(class_ref):
            return class_ref
        impls = self.protocols_of(class_ref)
        return impls[0] if impls else None
