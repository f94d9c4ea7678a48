"""Command-line driver: ``python -m repro.lint [targets...]``.

Runs every registered checker over the target files/directories,
drops findings covered by an inline ``# lint: ignore[rule] -- reason``,
prints the rest, and exits non-zero if any are left.  Typical
invocations::

    PYTHONPATH=src python -m repro.lint src/repro
    PYTHONPATH=src python -m repro.lint --select determinism src/repro
    PYTHONPATH=src python -m repro.lint --scope file src/repro
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.core import registered_checkers
from repro.analysis.runner import SCOPES, analyze_paths


def _project_root(start: Path) -> Path:
    """Nearest ancestor containing ``pyproject.toml`` (else cwd)."""
    node = start.resolve()
    for candidate in [node, *node.parents]:
        if (candidate / "pyproject.toml").exists():
            return candidate
    return Path.cwd()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter for the repro codebase.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CHECKER",
        help="run only these checkers (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--scope",
        choices=SCOPES,
        default="all",
        help=(
            "run only the per-file checkers (file), only the "
            "interprocedural pass (project), or both (all, default)"
        ),
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's rationale and an example finding, then exit",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print registered checkers and exit",
    )
    return parser


def _explain(rule: str) -> int:
    checkers = registered_checkers()
    cls = checkers.get(rule)
    if cls is None:
        known = ", ".join(sorted(checkers))
        print(f"error: unknown rule: {rule} (known: {known})",
              file=sys.stderr)
        return 2
    print(f"{cls.name}: {cls.description}")
    if cls.rationale:
        print(f"\nrationale:\n{cls.rationale.strip()}")
    if cls.example:
        print(f"\nexample finding:\n{cls.example.strip()}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        for name, cls in sorted(registered_checkers().items()):
            print(f"{name}: {cls.description}")
        return 0

    if args.explain:
        return _explain(args.explain)

    targets: List[Path] = [Path(t) for t in args.targets]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"error: no such file or directory: {target}",
                  file=sys.stderr)
        return 2

    try:
        violations = analyze_paths(
            targets,
            project_root=_project_root(targets[0]),
            select=args.select,
            scope=args.scope,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "rule": v.rule,
                        "path": v.path,
                        "line": v.line,
                        "message": v.message,
                    }
                    for v in violations
                ],
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.render())
        print(f"{len(violations)} violation(s)")
    return 1 if violations else 0
