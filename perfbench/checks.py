"""Output verification, run after every workload.

Each check returns a list of problem strings (empty == green); the
run is ``correct`` only if every list is empty.  The decision digest
is not a check — no golden digests are committed, behaviour may
legitimately change in later PRs — it is printed so two same-code
runs can be compared exactly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.engine.index import IndexDef
from repro.ports.factory import create_backend
from repro.serve import parity

from perfbench.workloads import Batch, Plan, Tenant

__all__ = [
    "check_acks",
    "check_counters",
    "check_parity",
    "check_restart",
    "check_rounds",
    "cost_ratio",
    "decision_digest",
    "index_events",
    "observe_failures",
    "sent_per_tenant",
]

COST_SAMPLE = 2000
#: The tuner minimises its own estimate over the top templates of the
#: window it has seen; the ratio prices a later sample (it includes the
#: statements that arrived after the last round) with the planner, at
#: whatever batch the clock stopped the run.  On ``adhoc_churn`` it
#: sits at 0.86–0.99 and, swept over every stop point of 10 seeds,
#: reached 1.006 just after a phase change.  A few percent above 1 is
#: that sampling difference; beyond this limit it is mispricing.
COST_RATIO_LIMIT = 1.05


def check_acks(replies: Iterable[bytes]) -> Tuple[List[dict], List[str]]:
    """Parse ingest replies; every one must be ``ok``."""
    parsed = [json.loads(raw) for raw in replies]
    bad = [r for r in parsed if not r.get("ok")]
    problems = []
    if bad:
        problems.append(
            f"{len(bad)} of {len(parsed)} batches answered ok:false "
            f"(first: {bad[0].get('error')})"
        )
    return parsed, problems


def sent_per_tenant(batches: Iterable[Batch]) -> Dict[str, int]:
    sent: Dict[str, int] = {}
    for tenant_id, statements in batches:
        sent[tenant_id] = sent.get(tenant_id, 0) + len(statements)
    return sent


def check_counters(
    plan: Plan, status: dict, sent: Dict[str, int]
) -> List[str]:
    """Per tenant: everything sent was ingested, nothing failed to
    parse, and exactly ``⌊ingested / round_every⌋`` rounds ran."""
    problems = []
    for tenant in plan.tenants:
        tenant_id = tenant.spec.tenant_id
        counters = status["tenants"][tenant_id]
        expected = sent.get(tenant_id, 0)
        if counters["ingested"] != expected:
            problems.append(
                f"{tenant_id}: ingested {counters['ingested']}, "
                f"sent {expected}"
            )
        if counters["observe_failures"]:
            problems.append(
                f"{tenant_id}: {counters['observe_failures']} "
                "statements failed to parse"
            )
        rounds = expected // tenant.spec.round_every
        if counters["rounds_completed"] != rounds:
            problems.append(
                f"{tenant_id}: {counters['rounds_completed']} rounds, "
                f"expected {rounds}"
            )
    return problems


def observe_failures(status: dict) -> int:
    return sum(t["observe_failures"] for t in status["tenants"].values())


def check_rounds(rounds: Sequence[dict]) -> List[str]:
    """No round may be skipped for its budget or end degraded (a
    failed apply, revert or estimator)."""
    problems = []
    for record in rounds:
        reason = (
            record.get("reason") if record["skipped"]
            else record["report"]["degraded"]
        )
        if reason:
            problems.append(
                f"{record['tenant_id']} round {record['seq']}: {reason}"
            )
    return problems[:5]


_COUNTER_KEYS = ("ingested", "pending_statements", "rounds_completed")


def check_restart(before: dict, after: dict) -> List[str]:
    """A daemon restarted on the same checkpoint root must come back
    with every tenant's lifecycle counters intact."""
    problems = []
    for tenant_id, counters in before["tenants"].items():
        restored = after["tenants"].get(tenant_id, {})
        for key in _COUNTER_KEYS:
            if restored.get(key) != counters[key]:
                problems.append(
                    f"{tenant_id}: {key} {counters[key]} before "
                    f"restart, {restored.get(key)} after"
                )
    return problems


def decision_digest(root, plan: Plan) -> str:
    """SHA-256 over every tenant's round reports + applied indexes,
    read back from the checkpoints the daemon wrote."""
    digest = hashlib.sha256()
    for tenant in plan.tenants:
        surface = parity.checkpoint_surface(root, tenant.spec.tenant_id)
        decided = (
            None if surface is None
            else [surface["reports"], surface["applied_indexes"]]
        )
        digest.update(json.dumps(decided, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def check_parity(root, daemon) -> List[str]:
    """The daemon process's checkpoints against an in-process daemon
    fed the same batches: reports, templates, indexes and ledger."""
    problems = []
    for runtime in daemon.registry.runtimes():
        surface = parity.checkpoint_surface(root, runtime.tenant_id)
        if surface is None:
            problems.append(f"{runtime.tenant_id}: no checkpoint")
            continue
        library = parity.library_surface(
            runtime.advisor, runtime.backend,
            runtime.advisor.tuning_history,
        )
        problems.extend(
            f"{runtime.tenant_id}: {mismatch}"
            for mismatch in parity.compare_surfaces(surface, library)
        )
    return problems


# ---------------------------------------------------------------------------
# final cost ratio
# ---------------------------------------------------------------------------


def index_events(rounds: Sequence[dict]) -> Dict[str, list]:
    """Per tenant: ("drop" | "create", index dict) in applied order.

    A round's report lists its drops (reverts, then removals) and its
    creates; the daemon applies drops first.
    """
    events: Dict[str, list] = {}
    for record in rounds:
        if record["skipped"]:
            continue
        applied = events.setdefault(record["tenant_id"], [])
        report = record["report"]
        applied.extend(("drop", entry) for entry in report["dropped"])
        applied.extend(("create", entry) for entry in report["created"])
    return events


def _replay(initial: List[IndexDef], events: list) -> List[IndexDef]:
    config = {d.key: d for d in initial}
    for action, entry in events:
        definition = IndexDef.from_dict(entry)
        if action == "create":
            config[definition.key] = definition
        else:
            config.pop(definition.key, None)
    return list(config.values())


def cost_ratio(
    plan: Plan, rounds: Sequence[dict], sent: Sequence[Batch]
) -> Tuple[float, List[str]]:
    """What-if cost of each tenant's most recent statements under its
    final index set ÷ under its initial one, on fresh backends; the
    mean over tenants.

    Also checks the storage budget: the non-unique indexes of a
    budgeted tenant must fit it.
    """
    share = COST_SAMPLE // len(plan.tenants)
    recent: Dict[str, List[str]] = {}
    for tenant_id, statements in reversed(sent):
        have = recent.setdefault(tenant_id, [])
        if len(have) < share:
            have.extend(statements[-(share - len(have)):])
    events = index_events(rounds)
    problems: List[str] = []
    ratios = []
    for tenant_id, statements in recent.items():
        tenant: Tenant = plan.tenant(tenant_id)
        backend = create_backend(tenant.spec.backend.kind)
        tenant.generator().build(backend)
        initial = backend.index_defs()
        final = _replay(initial, events.get(tenant_id, []))
        parsed = [backend.parse_statement(sql) for sql in statements]
        before = sum(
            c.total for c in backend.whatif_cost_batch(parsed, initial)
        )
        after = sum(
            c.total for c in backend.whatif_cost_batch(parsed, final)
        )
        if before <= 0.0:
            problems.append(f"{tenant_id}: cost sample has zero cost")
            continue
        ratios.append(after / before)
        limit = tenant.spec.storage_budget
        if limit is not None:
            used = sum(
                backend.index_size_bytes(d) for d in final if not d.unique
            )
            if used > limit:
                problems.append(
                    f"{tenant_id}: {used} index bytes over the "
                    f"{limit} budget"
                )
    ratio = sum(ratios) / len(ratios) if ratios else 0.0
    if ratio > COST_RATIO_LIMIT:
        problems.append(
            f"final index sets cost {ratio:.4f}x the initial ones "
            f"(limit {COST_RATIO_LIMIT})"
        )
    return ratio, problems
