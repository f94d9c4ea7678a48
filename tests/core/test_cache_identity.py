"""Exact oracle for the what-if cache keys: cached equals uncached.

The estimator's cost and feature tiers and the planner's access-path
memo key on ``data_version`` plus ``index_identity``, so index DDL
flushes nothing. This suite runs the library path twice on twin
databases — once as shipped, once with every index-set-keyed cache
switched off (``BenefitEstimator(..., cache_size=0)`` re-plans every
lookup; the planner memo is disabled) — and requires the two runs to
decide the same thing. Only the three work counters may differ.

The sequences create and drop indexes, execute writes between rounds
(so stats go stale and freshly built indexes get a real shape that
differs from their estimate: the tagged identity), refresh stats
with no write in between (so only the data version marks cached plans
stale), tune twice in a
row without writes (so the second round reuses entries across the
first round's DDL), and, in one case, inject ``index.build`` faults
that roll changes back.
"""

from __future__ import annotations

import pytest

from repro.core.advisor import AutoIndexAdvisor
from repro.core.estimator import DEFAULT_CACHE_SIZE, BenefitEstimator
from repro.engine.faults import FaultError, FaultPlan
from repro.engine.metrics import LruCache
from repro.ports import create_backend
from repro.workloads.banking import BankingWorkload
from repro.workloads.tpcc import TpccWorkload
from tests.ports.conftest import selected_backends

#: Round-report fields that count work, not decisions.
WORK_COUNTERS = ("plans_computed", "estimator_calls", "cache_hit_rate")


def _generator(workload: str):
    if workload == "banking":
        return BankingWorkload(accounts=300, txn_rows=900, product_rows=40)
    return TpccWorkload(scale=1, seed=11)


def _uncache(advisor: AutoIndexAdvisor) -> BenefitEstimator:
    """Swap in an estimator whose results depend on no index-set key."""
    db = advisor.db
    estimator = BenefitEstimator(db, cache_size=0)
    # The parsed-sample cache is keyed by fingerprint alone, not by an
    # index set, and it pins the first sample it parsed (see
    # test_sample_pinning.py). Give the uncached side the same pinned
    # samples so the two runs price the same statements.
    estimator._sample_cache = LruCache(DEFAULT_CACHE_SIZE)
    advisor.estimator = estimator
    advisor.selector.estimator = estimator
    db.planner.plan_cache_enabled = False
    return estimator


def _run(backend: str, workload: str, cached: bool, faults: bool):
    """Tune through a fixed statement sequence; return the surfaces."""
    db = create_backend(backend)
    generator = _generator(workload)
    generator.build(db)
    if faults:
        injector = FaultPlan.chaos(
            seed=5, rate=0.2, points=("index.build",)
        ).injector()
        db.faults = injector
        db.planner.faults = injector
    advisor = AutoIndexAdvisor(
        db, mcts_iterations=20, rollouts=2, seed=3, storage_budget=None
    )
    if not cached:
        _uncache(advisor)
    reports = []
    for phase in range(3):
        for query in generator.queries(150, seed=phase):
            try:
                db.execute(query.sql)
            except FaultError:
                continue
            advisor.observe(query.sql)
        # Two rounds per phase: the second sees no new data, so its
        # lookups cross the first round's creates and drops.
        for _ in range(2):
            reports.append(advisor.tune().to_dict())
        if phase == 1:
            # New stats under unchanged index shapes: only the data
            # version tells the cached plans are stale.
            db.analyze()
            reports.append(advisor.tune().to_dict())
    return {
        "reports": reports,
        "applied": sorted(d.key for d in db.index_defs()),
        "ledger": advisor.safety.ledger.to_dict(),
        "rolled_back": sum(r["rolled_back"] for r in reports),
        "plans": sum(r["plans_computed"] for r in reports),
    }


def _decisions(run):
    return [
        {k: v for k, v in report.items() if k not in WORK_COUNTERS}
        for report in run["reports"]
    ]


CASES = [
    (backend, workload, False)
    for backend in selected_backends()
    for workload in ("banking", "tpcc")
] + [(backend, "banking", True) for backend in selected_backends()]


@pytest.mark.parametrize("backend,workload,faults", CASES)
def test_cached_run_equals_uncached_run(backend, workload, faults):
    cached = _run(backend, workload, cached=True, faults=faults)
    uncached = _run(backend, workload, cached=False, faults=faults)
    assert _decisions(cached) == _decisions(uncached)
    assert cached["applied"] == uncached["applied"]
    assert cached["ledger"] == uncached["ledger"]
    # The runs really exercised DDL, and the caches really saved work.
    if faults:
        assert cached["rolled_back"] > 0
    else:
        assert any(r["created"] for r in cached["reports"])
    assert cached["plans"] < uncached["plans"]
