"""The per-layer table: trace totals + public counters → named metrics.

Times come from :class:`perfbench.trace.Tracer`; counts come from the
program's own public counters (``raw_cache_stats``, ``cache_stats``,
``plans_computed``, ``estimate_calls``, ``SearchResult.evaluations``,
``planner.access_paths_computed``, ``plan_cache_stats``,
``regret_summary``), read before and after the measured phase.  The
README's table says which end-to-end metric each one should move.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.serve.config import TenantSpec
from repro.serve.daemon import TuningDaemon
from repro.sql import parse
from repro.sql.fingerprint import parameterize
from repro.sql.normalize import raw_key

from perfbench.harness import LoopResult, percentile
from perfbench.trace import Tracer
from perfbench.workloads import Batch

__all__ = ["layer_metrics", "public_counters", "restore_ms"]

STAGES = ("observe", "diagnose", "candidates", "search", "shadow", "apply")
NORMALIZE_SAMPLE = 20000
FINGERPRINT_SAMPLE = 2000


def public_counters(daemon: TuningDaemon) -> Dict[str, float]:
    """The program's public counters (and two sizes), summed over
    tenants."""
    total: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    for runtime in daemon.registry.runtimes():
        advisor = runtime.advisor
        raw = advisor.store.raw_cache_stats()
        add("raw_hits", raw["hits"])
        add("raw_misses", raw["misses"])
        add("parity_checks", raw["parity_checks"])
        add("new_templates", advisor.store.total_new_templates)
        caches = advisor.estimator.cache_stats()
        add("cost_hits", caches["cost"].hits)
        add("cost_misses", caches["cost"].misses)
        add("feature_hits", caches["features"].hits)
        add("feature_misses", caches["features"].misses)
        add("plans", advisor.estimator.plans_computed)
        add("predict_calls", advisor.estimator.estimate_calls)
        planner = getattr(runtime.backend, "planner", None)
        if planner is not None:
            add("access_paths", planner.access_paths_computed)
            plan_cache = planner.plan_cache_stats()
            add("plan_cache_hits", plan_cache.hits)
            add("plan_cache_misses", plan_cache.misses)
        regret = advisor.regret_summary()
        add("gated_rounds", regret["gated_rounds"])
        # Sizes, not counters: read their end value, or their growth.
        add("open_claims", regret["pending"])
        add("store_size", len(advisor.store))
        add("candidates", sum(
            r.candidates_considered for r in advisor.tuning_history
        ))
        add("evaluations", sum(
            r.search.evaluations
            for r in advisor.tuning_history if r.search is not None
        ))
    return total


def restore_ms(tenants: List[dict], root) -> float:
    """Time ``TenantRuntime.restore`` for every tenant of ``root``.

    Restore needs no data (the daemon restores before it loads), so
    the tenants are created empty on a daemon without a checkpoint
    root and restored explicitly.
    """
    daemon = TuningDaemon(workers=0, checkpoint_root=None)
    total = 0.0
    for entry in tenants:
        spec = TenantSpec.from_dict(entry["spec"])
        daemon.add_tenant(spec)
        runtime = daemon.registry.get(spec.tenant_id)
        started = time.perf_counter()
        runtime.restore(root)
        total += time.perf_counter() - started
    return total * 1e3


def _us_per_call(fn, items: Sequence) -> float:
    started = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - started) * 1e6 / max(len(items), 1)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    trace: Tracer,
    loop: LoopResult,
    counters: Dict[str, float],
    at_end: Dict[str, float],
    counts: Dict[str, float],
    statements: Sequence[Batch],
) -> Dict[str, float]:
    """Everything the measured phase of a traced run can tell.

    ``trace``, ``counters`` and ``counts`` cover the measured phase
    only (the warm-up is subtracted); ``at_end`` is the counters' end
    value.  The caller adds the set-up, shutdown, restore, overhead
    and side-run numbers.
    """
    ms, self_ms, calls = trace.ms, trace.self_ms, trace.calls
    wall_ms = loop.wall_s * 1e3
    sample = [sql for _, batch in statements[-400:] for sql in batch]
    sample = sample[-NORMALIZE_SAMPLE:]
    parsed = [parse(sql) for sql in sample[-FINGERPRINT_SAMPLE:]]
    client_ms = sum(loop.latencies_ms())
    round_ms = trace.durations_ms("round")
    ddl_ms = {
        kind: ms(f"ddl.{kind}.create") + ms(f"ddl.{kind}.drop")
        for kind in ("memory", "sqlite")
    }
    metrics = {
        "sql.normalize.us_per_stmt": _us_per_call(raw_key, sample),
        "sql.fingerprint.us_per_stmt": _us_per_call(parameterize, parsed),
        "sql.parse.calls": calls("sql.parse"),
        "sql.parse.ms": ms("sql.parse"),
        "templates.observe.calls": calls("templates.observe"),
        "templates.observe.self_ms": self_ms("templates.observe"),
        "templates.raw_hit_rate": _ratio(
            counters["raw_hits"], counters["raw_misses"]
        ),
        "templates.parity_checks": counters["parity_checks"],
        "templates.size": at_end["store_size"],
        "templates.drift_events": calls("templates.drift"),
        "serve.framing.ms_per_batch": (
            (client_ms - ms("serve.dispatch")) / max(loop.batches, 1)
        ),
        "serve.dispatch.self_ms": self_ms("serve.dispatch"),
        "serve.ingest.self_us_per_stmt": (
            self_ms("serve.ingest") * 1e3 / max(loop.statements, 1)
        ),
        "scheduler.offers": calls("scheduler.offer"),
        "scheduler.admit_wait_ms": counts["admit_wait_s"] * 1e3,
        "round.count": len(round_ms),
        "round.ms_p50": percentile(round_ms, 50),
        "round.ms_p90": percentile(round_ms, 90),
        "round.ms_total": ms("round"),
        "round.share_of_wall": ms("round") / wall_ms,
        "diagnosis.diagnose.ms": ms("diagnosis.diagnose"),
        "diagnosis.check_applied.ms": ms("diagnosis.check_applied"),
        "candidates.generate.ms": ms("candidates.generate"),
        "candidates.count": counters["candidates"],
        "mcts.self_ms": self_ms("stage.search"),
        "mcts.evaluations": counters["evaluations"],
        "estimator.cost_delta.calls": calls("estimator.cost_delta"),
        "estimator.cost_delta.self_ms": (
            self_ms("estimator.cost_delta") + self_ms("estimator.costs")
        ),
        "estimator.cost_hit_rate": _ratio(
            counters["cost_hits"], counters["cost_misses"]
        ),
        "estimator.feature_hit_rate": _ratio(
            counters["feature_hits"], counters["feature_misses"]
        ),
        "estimator.plans": counters["plans"],
        "estimator.predict_calls": counters["predict_calls"],
        "model.predict.calls": calls("model.predict"),
        "model.predict.ms": ms("model.predict"),
        "whatif.calls": calls("whatif"),
        "whatif.ms": ms("whatif"),
        "whatif.us_per_plan": (
            ms("whatif") * 1e3 / counters["plans"] if counters["plans"] else 0.0
        ),
        "whatif.share_of_round": (
            ms("whatif") / ms("round") if ms("round") else 0.0
        ),
        "planner.access_paths": counters.get("access_paths", 0.0),
        "planner.plan_cache_hit_rate": _ratio(
            counters.get("plan_cache_hits", 0.0),
            counters.get("plan_cache_misses", 0.0),
        ),
        "shadow.ms": ms("estimator.shadow"),
        "safety.gated_rounds": counters["gated_rounds"],
        "ledger.open_claims": at_end["open_claims"],
        "ddl.create.calls": (
            calls("ddl.memory.create") + calls("ddl.sqlite.create")
        ),
        "ddl.create.ms": ms("ddl.memory.create") + ms("ddl.sqlite.create"),
        "ddl.drop.calls": calls("ddl.memory.drop") + calls("ddl.sqlite.drop"),
        "ddl.drop.ms": ms("ddl.memory.drop") + ms("ddl.sqlite.drop"),
        "ddl.memory.ms": ddl_ms["memory"],
        "ddl.sqlite.ms": ddl_ms["sqlite"],
        "checkpoint.save.calls": calls("checkpoint.save"),
        "checkpoint.save.ms": ms("checkpoint.save"),
    }
    for stage in STAGES:
        metrics[f"stage.{stage}.ms"] = ms(f"stage.{stage}")
    metrics["templates.evicted"] = (
        counters["new_templates"]
        - counts["drift_removed"]
        - counters["store_size"]
    )
    return metrics
