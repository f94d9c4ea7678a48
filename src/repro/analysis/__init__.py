"""AST-based invariant linting for the repro codebase.

The costing fast paths introduced by the delta-costing work rely on
invariants that nothing in the type system enforces: cache keys must
cover every input the cached computation reads, rollouts must draw
randomness from an explicit seeded RNG, cost/estimator code must not
read wall clocks, the layer DAG ``sql -> engine -> core -> bench``
must stay acyclic, and AST dispatchers must keep up with the node set
in ``repro.sql.ast``. This package checks all of that statically.

Architecture:

* :mod:`repro.analysis.core` — the framework: :class:`Violation`,
  :class:`ModuleInfo`, the checker registry, and inline-suppression
  parsing (``# lint: ignore[rule] -- reason``, the only way to accept
  a finding);
* :mod:`repro.analysis.graph` and :mod:`repro.analysis.effects` — the
  project symbol graph and interprocedural effect summaries;
* :mod:`repro.analysis.runner` — file discovery plus one serial pass
  that parses each module once for both the per-file and the project
  checkers;
* :mod:`repro.analysis.checkers` — the shipped checkers;
* :mod:`repro.analysis.cli` — the ``python -m repro.lint`` entry
  point (exits non-zero on any unsuppressed violation).

The package is deliberately stdlib-only (no numpy) so the lint can run
in environments where the engine's dependencies are absent.
"""

from repro.analysis.core import (
    Checker,
    ModuleInfo,
    Violation,
    all_checkers,
    analyze_module,
    analyze_snippet,
    load_module,
    register,
)
from repro.analysis.runner import analyze_paths, discover_files

__all__ = [
    "Checker",
    "ModuleInfo",
    "Violation",
    "all_checkers",
    "analyze_module",
    "analyze_paths",
    "analyze_snippet",
    "discover_files",
    "load_module",
    "register",
]
