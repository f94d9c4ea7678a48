"""Daemon-vs-library parity: the determinism contract, executable.

The headline guarantee of the serve layer is that moving from the
one-shot library path (``advisor.observe(...)`` + ``advisor.tune()``)
to the streaming daemon changes *when* rounds run, never *what* they
compute.  This module makes that checkable: :func:`replay_library_path`
re-runs a workload-seeded tenant's exact statement stream through a
fresh advisor using only library calls, and :func:`compare_surfaces`
diffs the two normalized surfaces —

* the per-round :meth:`~repro.core.pipeline.TuningReport.to_dict`
  sequence (timing-free),
* the template-store state,
* the applied index set,
* the benefit-ledger claims.

``python -m repro.serve verify`` drives this offline against a
tenant's checkpoint namespace; ``tests/serve/test_parity.py`` drives
it in-process against a live daemon.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.core import checkpoint
from repro.serve.config import TenantSpec, make_generator
from repro.serve.registry import SERVE_COMPONENT

__all__ = [
    "library_surface",
    "replay_library_path",
    "checkpoint_surface",
    "compare_surfaces",
]


def replay_library_path(
    spec: TenantSpec, statement_count: int
) -> dict:
    """Run a tenant's stream through the plain library path.

    Rebuilds the tenant world through the same
    :meth:`~repro.serve.config.TenantSpec.build` the daemon's registry
    uses, generates the same ``statement_count``-long query stream,
    and fires ``advisor.tune()`` at exactly the offsets the daemon's
    inline session fires rounds: every ``round_every`` pending statements,
    capped by the round budget.  Returns the normalized surface.
    """
    if spec.workload is None:
        raise ValueError(
            f"tenant {spec.tenant_id!r} has no workload; the library "
            "replay needs a regenerable stream"
        )
    backend, advisor = spec.build()
    generator = make_generator(spec.workload, seed=spec.workload_seed)
    queries = generator.queries(
        statement_count, seed=spec.workload_seed
    )
    reports = []
    pending = 0
    ingested = 0
    for query in queries:
        advisor.observe(query.sql)
        pending += 1
        ingested += 1
        budget_left = (
            spec.round_budget is None
            or len(reports) < spec.round_budget
        )
        if (
            pending >= spec.round_every
            and ingested >= spec.min_statements
            and budget_left
        ):
            reports.append(
                advisor.tune(
                    force=spec.force_rounds,
                    trigger_threshold=spec.trigger_threshold,
                )
            )
            pending = 0
    return library_surface(advisor, backend, reports)


def library_surface(advisor, backend, reports) -> dict:
    """Normalize an advisor/backend pair into the parity surface."""
    return {
        "reports": [report.to_dict() for report in reports],
        "templates": advisor.store.to_dict(),
        "applied_indexes": sorted(
            "|".join(map(str, d.key)) for d in backend.index_defs()
        ),
        "ledger": advisor.safety.ledger.to_dict(),
    }


def checkpoint_surface(
    root, tenant_id: str
) -> Optional[dict]:
    """Read a tenant's parity surface from its checkpoint namespace.

    Returns None when the namespace has no usable checkpoint.  The
    surface comes from the crash-safe components the daemon writes
    after every round: ``serve.json`` (spec, counters, reports,
    applied indexes), ``templates.json``, and ``safety.json``
    (which embeds the benefit ledger).
    """
    directory = checkpoint.tenant_namespace(root, tenant_id)
    manifest = checkpoint.read_manifest(directory)
    report = checkpoint.CheckpointLoadReport()

    def _json(blob: bytes):
        return json.loads(blob.decode("utf-8"))

    serve_state = checkpoint.read_component(
        directory, SERVE_COMPONENT, _json, manifest, report
    )
    if not isinstance(serve_state, dict):
        return None
    templates = checkpoint.read_component(
        directory, "templates.json", _json, manifest, report
    )
    safety_state = checkpoint.read_component(
        directory, "safety.json", _json, manifest, report
    )
    ledger = {}
    if isinstance(safety_state, dict):
        ledger = safety_state.get("safety", {}).get("ledger", {})
    return {
        "spec": serve_state.get("spec", {}),
        "counters": serve_state.get("counters", {}),
        "reports": serve_state.get("reports", []),
        "templates": templates if templates is not None else {},
        "applied_indexes": serve_state.get("applied_indexes", []),
        "ledger": ledger,
    }


def compare_surfaces(daemon_surface: dict, library: dict) -> List[str]:
    """Diff two parity surfaces; returns mismatch descriptions
    (empty == bit-identical on every compared component)."""
    mismatches: List[str] = []

    daemon_reports = daemon_surface.get("reports", [])
    library_reports = library.get("reports", [])
    if len(daemon_reports) != len(library_reports):
        mismatches.append(
            f"round count: daemon ran {len(daemon_reports)}, "
            f"library ran {len(library_reports)}"
        )
    for i, (ours, theirs) in enumerate(
        zip(daemon_reports, library_reports)
    ):
        if ours != theirs:
            keys = sorted(
                k
                for k in set(ours) | set(theirs)
                if ours.get(k) != theirs.get(k)
            )
            mismatches.append(
                f"round {i} report differs on: {', '.join(keys)}"
            )

    for component in ("templates", "applied_indexes", "ledger"):
        if daemon_surface.get(component) != library.get(component):
            mismatches.append(f"{component} state differs")

    return mismatches
