"""Framework core: violations, module model, registry, suppressions.

Everything here is pure and stdlib-only.  A checker receives a fully
parsed :class:`ModuleInfo` and yields :class:`Violation` objects; the
framework handles suppression filtering and reporting so checkers stay
small.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from repro.analysis.effects import EffectIndex
    from repro.analysis.graph import ProjectGraph

# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One finding, attributed to a rule and a source location.

    ``path`` is stored relative to the project root (POSIX separators)
    so reports are stable across machines and checkouts.
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Module model
# ---------------------------------------------------------------------------

#: Path segments treated as package layers when they appear directly
#: under a ``repro`` package directory.
KNOWN_LAYERS = (
    "sql",
    "engine",
    "ports",
    "core",
    "bench",
    "workloads",
    "analysis",
    "serve",
)


@dataclass
class ModuleInfo:
    """A parsed module plus the metadata checkers key off."""

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    lines: List[str]
    layer: Optional[str]
    package_root: Optional[Path]

    @property
    def is_dunder_main(self) -> bool:
        return self.path.name == "__main__.py"

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree` in ``ast.walk`` order, walked
        once and shared by every checker."""
        return list(ast.walk(self.tree))

    @cached_property
    def comments(self) -> List[Tuple[int, str]]:
        """(lineno, text) for every real ``#`` comment in the source.

        Tokenized, not regex-scanned, so string literals that merely
        mention an annotation (docs, checker messages) never register
        as one.  Empty if the file fails to tokenize — the parse
        violation owns reporting that.
        """
        comments: List[Tuple[int, str]] = []
        try:
            for token in tokenize.generate_tokens(
                io.StringIO(self.source).readline
            ):
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.string))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return []
        return comments


def _locate_package(path: Path) -> Tuple[Optional[Path], Optional[str]]:
    """Return (repro package dir, layer) for *path*, if discernible.

    The layer is the first directory under the innermost ``repro``
    package in the path — e.g. ``.../repro/engine/planner.py`` has
    layer ``engine``.  Modules directly under the package root (like
    ``repro/lint.py``) have layer ``""``; files outside any ``repro``
    package have layer ``None``.
    """
    parts = path.parts
    for idx in range(len(parts) - 2, -1, -1):
        if parts[idx] == "repro":
            root = Path(*parts[: idx + 1])
            remainder = parts[idx + 1 : -1]
            layer = remainder[0] if remainder else ""
            return root, layer
    return None, None


def relative_path(path: Path, project_root: Optional[Path]) -> str:
    """*path* relative to *project_root* (POSIX), else as given."""
    if project_root is not None:
        try:
            return (
                path.resolve().relative_to(project_root.resolve()).as_posix()
            )
        except ValueError:
            pass
    return path.as_posix()


def load_module(path: Path, project_root: Optional[Path] = None) -> ModuleInfo:
    """Parse *path* into a :class:`ModuleInfo`.

    Raises :class:`SyntaxError` if the file does not parse; the runner
    converts that into a ``parse`` violation rather than crashing.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    package_root, layer = _locate_package(path)
    return ModuleInfo(
        path=path,
        rel_path=relative_path(path, project_root),
        source=source,
        tree=tree,
        lines=source.splitlines(),
        layer=layer,
        package_root=package_root,
    )


def analyze_snippet(source: str, virtual_path: str) -> List[Violation]:
    """Analyze in-memory *source* as if it lived at *virtual_path*.

    Used by the test fixtures: the virtual path controls the layer
    (e.g. ``src/repro/engine/mod.py``) without touching the disk.
    Checkers that need a package root on disk (exhaustiveness) skip
    modules without one.
    """
    path = Path(virtual_path)
    package_root, layer = _locate_package(path)
    info = ModuleInfo(
        path=path,
        rel_path=path.as_posix(),
        source=source,
        tree=ast.parse(source, filename=virtual_path),
        lines=source.splitlines(),
        layer=layer,
        package_root=None if package_root is None else package_root,
    )
    # A virtual package root does not exist on disk; drop it so disk
    # probes (sql/ast.py lookup) are skipped instead of erroring.
    if info.package_root is not None and not info.package_root.exists():
        info.package_root = None
    return analyze_module(info, all_checkers())


# ---------------------------------------------------------------------------
# Checker registry
# ---------------------------------------------------------------------------


class Checker(ABC):
    """Base class for all checkers.

    Subclasses set ``name`` (the rule id used in reports, ``--select``
    and suppressions) and ``description``, and implement
    :meth:`check`.  Register with :func:`register` so the CLI and
    :func:`all_checkers` can find them.  ``rationale`` and ``example``
    feed ``python -m repro.lint --explain <rule>``.
    """

    name: str = ""
    description: str = ""
    rationale: str = ""
    example: str = ""

    @abstractmethod
    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        """Yield violations for *module*."""


@dataclass
class ProjectContext:
    """Whole-program view handed to :class:`ProjectChecker` subclasses.

    ``modules`` maps project-relative path to the parsed module;
    ``graph`` and ``effects`` are the linked symbol/call graph and
    interprocedural effect index over exactly those modules.
    """

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    graph: Optional["ProjectGraph"] = None
    effects: Optional["EffectIndex"] = None


class ProjectChecker(Checker):
    """A checker that needs the whole program, not one module.

    Project checkers run in the interprocedural pass (``--scope
    project``) after every file has been summarised; their per-module
    :meth:`check` hook is a no-op so they can share the registry,
    ``--select`` and suppression machinery with per-file checkers.
    """

    def check(self, module: ModuleInfo) -> Iterable[Violation]:
        return ()

    @abstractmethod
    def check_project(self, ctx: ProjectContext) -> Iterable[Violation]:
        """Yield violations for the whole project."""


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding *cls* to the global checker registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} has no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate checker name: {cls.name}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_checkers() -> Dict[str, Type[Checker]]:
    _ensure_builtin_checkers()
    return dict(_REGISTRY)


def all_checkers(select: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate registered checkers, optionally only *select* names."""
    _ensure_builtin_checkers()
    if select is None:
        names = sorted(_REGISTRY)
    else:
        unknown = sorted(set(select) - set(_REGISTRY))
        if unknown:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(
                f"unknown checker(s): {', '.join(unknown)} (known: {known})"
            )
        names = sorted(set(select))
    return [_REGISTRY[name]() for name in names]


def _ensure_builtin_checkers() -> None:
    # Imported lazily to avoid a cycle (checkers import this module).
    from repro.analysis import checkers as _checkers  # noqa: F401


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------

#: ``# lint: ignore[rule-a,rule-b] -- reason`` — the reason is
#: mandatory; a bare ignore is itself reported (rule ``suppression``).
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore\[([A-Za-z0-9_,\- ]+)\]\s*(?:--\s*(\S.*))?"
)


@dataclass(frozen=True)
class Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str


def parse_suppressions(
    module: ModuleInfo,
) -> Tuple[List[Suppression], List[Violation]]:
    """Collect inline suppressions and flag reason-less ones."""
    suppressions: List[Suppression] = []
    problems: List[Violation] = []
    for lineno, text in enumerate(module.lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = (match.group(2) or "").strip()
        if not reason:
            problems.append(
                Violation(
                    rule="suppression",
                    path=module.rel_path,
                    line=lineno,
                    message=(
                        "suppression without a reason; write "
                        "'# lint: ignore[rule] -- why this is safe'"
                    ),
                )
            )
            continue
        suppressions.append(Suppression(lineno, rules, reason))
    return suppressions, problems


def _is_suppressed(
    violation: Violation, suppressions: Sequence[Suppression]
) -> bool:
    for sup in suppressions:
        # A suppression covers its own line and the line directly
        # below, so it can sit at the end of the offending line or on
        # a comment line immediately above it.
        if violation.line in (sup.line, sup.line + 1) and (
            violation.rule in sup.rules or "all" in sup.rules
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-module driver
# ---------------------------------------------------------------------------


def analyze_module(
    module: ModuleInfo, checkers: Sequence[Checker]
) -> List[Violation]:
    """Run *checkers* over *module* and apply inline suppressions."""
    suppressions, problems = parse_suppressions(module)
    collected: Set[Violation] = set(problems)
    for checker in checkers:
        for violation in checker.check(module):
            if not _is_suppressed(violation, suppressions):
                collected.add(violation)
    return sorted(
        collected, key=lambda v: (v.path, v.line, v.rule, v.message)
    )
