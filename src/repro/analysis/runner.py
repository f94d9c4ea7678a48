"""File discovery and the single serial analysis pass.

Every target module is loaded (read and parsed) exactly once; a file
that does not parse becomes a ``parse`` violation instead.  The same
:class:`~repro.analysis.core.ModuleInfo` list then feeds both passes:
the **per-file pass** runs each per-file checker over each module,
and the **project pass** extracts per-file effect summaries, links
them into a project graph, and hands the whole thing to each
:class:`~repro.analysis.core.ProjectChecker`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.core import (
    ModuleInfo,
    ProjectChecker,
    ProjectContext,
    Violation,
    _is_suppressed,
    all_checkers,
    analyze_module,
    load_module,
    parse_suppressions,
    relative_path,
)
from repro.analysis.effects import EffectIndex, extract_file_summary
from repro.analysis.graph import ProjectGraph

#: Valid values for the ``scope`` parameter / ``--scope`` flag.
SCOPES = ("file", "project", "all")


def discover_files(targets: Sequence[Path]) -> List[Path]:
    """Expand *targets* (files or directories) into sorted ``.py`` files."""
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(
                p
                for p in target.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif target.suffix == ".py":
            files.append(target)
    return sorted(set(files))


def _load_modules(
    files: Sequence[Path], project_root: Optional[Path]
) -> Tuple[List[ModuleInfo], List[Violation]]:
    """Parse every file once; syntax errors become ``parse`` findings."""
    modules: List[ModuleInfo] = []
    problems: List[Violation] = []
    for path in files:
        try:
            modules.append(load_module(path, project_root=project_root))
        except SyntaxError as exc:
            problems.append(
                Violation(
                    rule="parse",
                    path=relative_path(path, project_root),
                    line=exc.lineno or 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
    return modules, problems


def _analyze_project(
    modules: Sequence[ModuleInfo], checkers: Sequence[ProjectChecker]
) -> List[Violation]:
    summaries = [extract_file_summary(m.rel_path, m.tree) for m in modules]
    graph = ProjectGraph([s.symbols for s in summaries])
    ctx = ProjectContext(
        modules={m.rel_path: m for m in modules},
        graph=graph,
        effects=EffectIndex(graph, summaries),
    )
    suppressions = {
        m.rel_path: parse_suppressions(m)[0] for m in modules
    }
    violations: List[Violation] = []
    for checker in checkers:
        for violation in checker.check_project(ctx):
            module_sups = suppressions.get(violation.path, ())
            if not _is_suppressed(violation, module_sups):
                violations.append(violation)
    return violations


def analyze_paths(
    targets: Sequence[Path],
    project_root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    scope: str = "all",
) -> List[Violation]:
    """Analyze every ``.py`` file under *targets*, sorted by location.

    ``scope`` picks the per-file pass, the interprocedural project
    pass, or both (the default).
    """
    if scope not in SCOPES:
        raise KeyError(f"unknown scope: {scope} (known: {', '.join(SCOPES)})")
    checkers = all_checkers(select=select)
    file_checkers = [c for c in checkers if not isinstance(c, ProjectChecker)]
    project_checkers = [c for c in checkers if isinstance(c, ProjectChecker)]
    modules, violations = _load_modules(discover_files(targets), project_root)
    if scope in ("file", "all"):
        for module in modules:
            violations.extend(analyze_module(module, file_checkers))
    if scope in ("project", "all") and project_checkers:
        violations.extend(_analyze_project(modules, project_checkers))
    return sorted(
        set(violations),
        key=lambda v: (v.path, v.line, v.rule, v.message),
    )
