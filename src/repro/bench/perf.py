"""Performance benchmarks: MCTS costing modes and template ingest.

``python -m repro.bench --perf mcts`` times N MCTS iterations split
over several tuning rounds on TPC-C in three modes:

* **full** — the incremental machinery disabled: every evaluation
  re-costs the whole workload, no feature tier, no plan memoisation,
  per-statement what-if overlays (the pre-delta behaviour);
* **delta** — incremental re-costing with the per-statement scalar
  estimator path pinned (``vectorized=False``): the delta baseline as
  it shipped, before batch costing existed;
* **vectorized** — delta costing plus vectorized batch costing (one
  overlay window + one ``model.predict`` per evaluation batch).

The estimator caches are cleared between rounds in every mode,
emulating the model retrain that normally happens there. Because
delta and batch costs are bitwise-identical to full scalar
recomputation, all three modes follow the same search trajectory
under the same seed. ``identical_result`` asserts exactly that; the
comparison measures pure bookkeeping overhead, never different
searches.

``python -m repro.bench --perf ingest`` streams the same TPC-C query
batch through the observe-side hot path (SQL2Template matching plus a
periodic index-diagnosis pass) in three modes:

* **full** — the pre-fast-path behaviour: no raw-key cache (every
  statement runs lex → parse → parameterize) and the pinned
  full-scan diagnosis;
* **cached** — the zero-reparse fast path: a lex-only raw-key
  normalization resolves repeated statement shapes against a bounded
  LRU cache, diagnosis still full-scan;
* **cached_incremental** — fast path plus incremental diagnosis
  (dirty-shard snapshots, per-fingerprint extraction cache).

``identical_result`` asserts the three modes produced the same
template set, per-template statistics, shard layout, and diagnosis
reports — the fast path must be invisible except in wall time.

Writes ``BENCH_mcts.json`` / ``BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Dict, List

from repro.bench.harness import prepare_database
from repro.core.candidates import CandidateGenerator
from repro.core.diagnosis import IndexDiagnosis
from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector
from repro.core.templates import TemplateStore
from repro.workloads.tpcc import TpccWorkload


def _build_workload(observe_queries: int):
    """Fresh TPC-C database + observed templates + candidates."""
    generator = TpccWorkload(scale=1, seed=11)
    db = prepare_database(generator)
    store = TemplateStore()
    for query in generator.queries(observe_queries, seed=3):
        store.observe(query.sql, db.parse_statement(query.sql))
    templates = store.templates(top=120)
    candidates = CandidateGenerator(db).generate(templates)
    return db, templates, [c.definition for c in candidates]


def _run_mode(
    mode: str,
    iterations: int,
    rounds: int,
    seed: int,
    observe_queries: int,
) -> Dict:
    db, templates, candidates = _build_workload(observe_queries)
    if mode == "full":
        # Pre-delta behaviour: no feature tier, no plan memoisation,
        # per-statement overlays, every config costed from scratch.
        db.planner.plan_cache_enabled = False
        estimator = BenefitEstimator(
            db, feature_cache_size=0, vectorized=False
        )
        delta = False
    elif mode == "delta":
        # The delta baseline as shipped: incremental re-costing with
        # the scalar per-statement estimator path pinned.
        estimator = BenefitEstimator(db, vectorized=False)
        delta = True
    elif mode == "vectorized":
        estimator = BenefitEstimator(db)
        delta = True
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown bench mode {mode!r}")
    selector = MctsIndexSelector(
        estimator,
        iterations=max(iterations // rounds, 1),
        rollouts=2,
        patience=10**9,  # never stop early: fixed work per round
        rng=random.Random(seed),
        delta_costing=delta,
    )
    existing = db.index_defs()
    protected = [d for d in existing if d.unique]

    results = []
    start = time.perf_counter()
    for _ in range(rounds):
        result = selector.search(
            existing=existing,
            candidates=candidates,
            templates=templates,
            protected=protected,
        )
        results.append(result)
        # Between rounds the model is normally retrained; the cost
        # tier dies with the old model either way.
        estimator.clear_cache()
    wall_seconds = time.perf_counter() - start

    stats = estimator.cache_stats()
    return {
        "mode": mode,
        "wall_seconds": wall_seconds,
        "plans_computed": estimator.plans_computed,
        "model_predictions": estimator.estimate_calls,
        "evaluations": sum(r.evaluations for r in results),
        "best_benefit": results[-1].best_benefit,
        "best_config": [str(d) for d in results[-1].best_config],
        "cost_cache": stats["cost"].as_dict(),
        "feature_cache": stats["features"].as_dict(),
        "planner_access_paths": db.planner.access_paths_computed,
        "plan_cache": db.planner.plan_cache_stats().as_dict(),
    }


def run_mcts_perf(
    iterations: int = 200,
    rounds: int = 6,
    out_path: str = "BENCH_mcts.json",
    seed: int = 17,
    observe_queries: int = 400,
) -> Dict:
    """Time the three costing modes and write the comparison JSON."""
    full = _run_mode("full", iterations, rounds, seed, observe_queries)
    delta = _run_mode("delta", iterations, rounds, seed, observe_queries)
    vectorized = _run_mode(
        "vectorized", iterations, rounds, seed, observe_queries
    )

    identical = (
        full["best_benefit"]
        == delta["best_benefit"]
        == vectorized["best_benefit"]
        and full["best_config"]
        == delta["best_config"]
        == vectorized["best_config"]
    )
    report = {
        "benchmark": "mcts-costing-modes",
        "workload": "tpcc scale=1",
        "iterations": iterations,
        "rounds": rounds,
        "seed": seed,
        "machine": {"cpu_count": os.cpu_count() or 1},
        "full": full,
        "delta": delta,
        "vectorized": vectorized,
        "speedup_wall": _ratio(
            full["wall_seconds"], delta["wall_seconds"]
        ),
        "speedup_vectorized": _ratio(
            delta["wall_seconds"], vectorized["wall_seconds"]
        ),
        "speedup_vectorized_vs_full": _ratio(
            full["wall_seconds"], vectorized["wall_seconds"]
        ),
        "plan_reduction": _ratio(
            full["plans_computed"], delta["plans_computed"]
        ),
        "prediction_reduction": _ratio(
            full["model_predictions"], delta["model_predictions"]
        ),
        "identical_result": identical,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def _ratio(full: float, delta: float) -> float:
    return float(full) / max(float(delta), 1e-12)


def render_mcts_perf(report: Dict) -> List[str]:
    """Human-readable lines for the CLI."""
    lines = [
        f"workload: {report['workload']}  "
        f"iterations: {report['iterations']} over "
        f"{report['rounds']} rounds",
        f"machine: {report['machine']['cpu_count']} cores",
    ]
    for mode in ("full", "delta", "vectorized"):
        m = report[mode]
        lines.append(
            f"{mode:10s} {m['wall_seconds']:8.2f}s  "
            f"plans={m['plans_computed']:<6d} "
            f"predictions={m['model_predictions']:<6d} "
            f"cost-cache hit rate="
            f"{m['cost_cache']['hit_rate']:.2f}"
        )
    lines.append(
        f"speedup: full/delta {report['speedup_wall']:.2f}x, "
        f"delta/vectorized {report['speedup_vectorized']:.2f}x, "
        f"full/vectorized {report['speedup_vectorized_vs_full']:.2f}x"
    )
    lines.append(
        "identical result: " + ("yes" if report["identical_result"]
                                else "NO (investigate)")
    )
    return lines


# ---------------------------------------------------------------------------
# ingest: SQL2Template + diagnosis throughput
# ---------------------------------------------------------------------------


def _serialize_report(problems) -> Dict:
    """Canonical JSON-comparable form of an IndexProblemReport."""
    return {
        "missing_beneficial": [
            str(d) for d in problems.missing_beneficial
        ],
        "rarely_used": [str(d) for d in problems.rarely_used],
        "negative": [str(d) for d in problems.negative],
        "considered": problems.considered,
        "regression": problems.regression,
        "auto_revert": [str(d) for d in problems.auto_revert],
    }


def _run_ingest_mode(
    mode: str,
    batch,
    generator,
    diagnosis_every: int,
) -> Dict:
    """One timed ingest pass in one of three configurations.

    * **full** — the pre-fast-path behaviour: no raw-key cache
      (every statement parses) and the pinned full-scan diagnosis;
    * **cached** — raw-key fast path on, diagnosis still full-scan;
    * **cached_incremental** — fast path plus incremental diagnosis
      (dirty-shard snapshots, per-fingerprint extraction cache).
    """
    db = prepare_database(generator)
    raw_cache = 0 if mode == "full" else 4096
    store = TemplateStore(
        raw_cache_size=raw_cache, parse_fn=db.parse_statement
    )
    diagnosis = IndexDiagnosis(
        db,
        store,
        CandidateGenerator(db),
        incremental=(mode == "cached_incremental"),
    )

    reports = []
    start = time.perf_counter()
    for i, query in enumerate(batch, 1):
        store.observe(query.sql)
        if i % diagnosis_every == 0:
            reports.append(_serialize_report(diagnosis.diagnose()))
    wall_seconds = time.perf_counter() - start

    shard_stats = store.shard_stats()
    return {
        "mode": mode,
        "wall_seconds": wall_seconds,
        "queries_per_second": len(batch) / max(wall_seconds, 1e-12),
        "diagnosis_passes": len(reports),
        "templates": sum(shard_stats.values()),
        "shards": len(shard_stats),
        "largest_shard": max(shard_stats.values(), default=0),
        "shard_stats": shard_stats,
        "raw_cache": store.raw_cache_stats(),
        # Comparison payloads (popped before writing the JSON).
        "_template_state": {
            t.fingerprint: (
                t.frequency,
                t.window_frequency,
                t.last_seen,
                t.sample_sql,
            )
            for t in store.templates()
        },
        "_reports": reports,
    }


def run_ingest_perf(
    queries: int = 4000,
    out_path: str = "BENCH_ingest.json",
    seed: int = 17,
    diagnosis_every: int = 1000,
) -> Dict:
    """Measure observe-side throughput and write ``BENCH_ingest.json``.

    The timed loop is exactly the online ingest path: resolve each
    statement against the sharded template store (SQL2Template), and
    every ``diagnosis_every`` queries run an index-diagnosis pass
    (usage classification + candidate generation) — the cadence at
    which the monitor would evaluate whether to trigger tuning. Three
    modes (full-parse / cached / cached+incremental) run the same
    query batch; ``identical_result`` asserts the template set,
    per-template statistics, shard layout, and every diagnosis report
    are equal across all three.
    """
    generator = TpccWorkload(scale=1, seed=11)
    batch = list(generator.queries(queries, seed=seed))

    from repro.sql.normalize import NORMALIZER_VERSION

    full = _run_ingest_mode("full", batch, generator, diagnosis_every)
    cached = _run_ingest_mode(
        "cached", batch, generator, diagnosis_every
    )
    incremental = _run_ingest_mode(
        "cached_incremental", batch, generator, diagnosis_every
    )

    identical = (
        full["_template_state"]
        == cached["_template_state"]
        == incremental["_template_state"]
        and full["shard_stats"]
        == cached["shard_stats"]
        == incremental["shard_stats"]
        and full["_reports"]
        == cached["_reports"]
        == incremental["_reports"]
    )
    for mode_result in (full, cached, incremental):
        mode_result.pop("_template_state")
        mode_result.pop("_reports")

    report = {
        "benchmark": "ingest-sql2template-diagnosis",
        "workload": "tpcc scale=1",
        "queries": queries,
        "seed": seed,
        "diagnosis_every": diagnosis_every,
        "normalizer_version": NORMALIZER_VERSION,
        # Single-threaded bench, but throughput still depends on the
        # machine: record enough to keep the numbers honest.
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "full": full,
        "cached": cached,
        "cached_incremental": incremental,
        "speedup_cached": _ratio(
            full["wall_seconds"], cached["wall_seconds"]
        ),
        "speedup_incremental": _ratio(
            cached["wall_seconds"], incremental["wall_seconds"]
        ),
        "speedup_total": _ratio(
            full["wall_seconds"], incremental["wall_seconds"]
        ),
        "identical_result": identical,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def render_ingest_perf(report: Dict) -> List[str]:
    """Human-readable lines for the CLI."""
    lines = [
        f"workload: {report['workload']}  "
        f"queries: {report['queries']}  "
        f"(diagnosis every {report['diagnosis_every']})",
    ]
    for mode in ("full", "cached", "cached_incremental"):
        m = report[mode]
        cache = m["raw_cache"]
        lines.append(
            f"{mode:18s} {m['queries_per_second']:9.0f} q/s  "
            f"({m['wall_seconds']:.2f}s wall, "
            f"cache {cache['hits']}h/{cache['misses']}m, "
            f"{cache['parity_checks']} parity checks)"
        )
    m = report["cached_incremental"]
    lines.append(
        f"store: {m['templates']} templates across "
        f"{m['shards']} shards (largest {m['largest_shard']})"
    )
    lines.append(
        f"speedup: full/cached {report['speedup_cached']:.2f}x, "
        f"cached/incremental {report['speedup_incremental']:.2f}x, "
        f"full/incremental {report['speedup_total']:.2f}x"
    )
    lines.append(
        "identical result: " + ("yes" if report["identical_result"]
                                else "NO (investigate)")
    )
    return lines
