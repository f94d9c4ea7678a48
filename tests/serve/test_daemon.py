"""Daemon behaviour: admission, budgets, skewed multi-tenant load."""

from __future__ import annotations

import pytest

from repro.serve.config import make_generator, parse_tenant_spec
from repro.serve.daemon import TuningDaemon


def banking_statements(count, seed=5):
    generator = make_generator("banking", seed=5)
    return [q.sql for q in generator.queries(count, seed=seed)]


def test_round_budget_limits_rounds():
    daemon = TuningDaemon(workers=0)
    daemon.add_tenant(
        parse_tenant_spec(
            "a,workload=banking,round-every=40,round-budget=1,"
            "mcts-iterations=20"
        )
    )
    result = daemon.ingest("a", banking_statements(120))
    assert result["rounds_run"] == 1
    assert result["round_budget_remaining"] == 0
    assert daemon.status()["rounds_completed"] == 1


def test_round_log_is_in_admission_order():
    daemon = TuningDaemon(workers=0)
    for tenant in ("a", "b"):
        daemon.add_tenant(
            parse_tenant_spec(
                f"{tenant},workload=banking,round-every=20,"
                "round-budget=1,mcts-iterations=20"
            )
        )
    statements = banking_statements(20)
    daemon.ingest("a", statements)
    daemon.ingest("b", statements)
    log = daemon.round_log()
    assert [(r["tenant_id"], r["seq"]) for r in log] == [
        ("a", 0),
        ("b", 1),
    ]
    assert daemon.round_log("b") == [log[1]]


def test_threaded_workers_complete_rounds():
    """Background workers drain the scheduler; shutdown drains what
    is queued and checkpoints."""
    daemon = TuningDaemon(workers=2, max_concurrent_rounds=2)
    for tenant in ("a", "b"):
        daemon.add_tenant(
            parse_tenant_spec(
                f"{tenant},workload=banking,round-every=30,"
                "round-budget=1,mcts-iterations=20"
            )
        )
    daemon.start()
    statements = banking_statements(30)
    daemon.ingest("a", statements)
    daemon.ingest("b", statements)
    result = daemon.shutdown(drain=True)
    assert result["rounds_completed"] == 2
    for tenant in ("a", "b"):
        runtime = daemon.registry.get(tenant)
        assert runtime.session.rounds_completed == 1


def test_shutdown_without_drain_leaves_queue():
    daemon = TuningDaemon(workers=0)
    daemon.add_tenant(
        parse_tenant_spec(
            "a,workload=banking,round-every=10,mcts-iterations=20"
        )
    )
    runtime = daemon.registry.get("a")
    # Make the tenant due without letting inline pump fire: bypass
    # ingest and offer manually.
    for sql in banking_statements(10):
        runtime.session.ingest(sql)
    daemon.scheduler.offer("a")
    result = daemon.shutdown(drain=False)
    assert result["rounds_completed"] == 0
    assert daemon.scheduler.queued() == ["a"]


def test_review_flow_through_daemon():
    """A review-mode tenant queues instead of applying; the daemon's
    review op records the verdict and applies it."""
    daemon = TuningDaemon(workers=0)
    daemon.add_tenant(
        parse_tenant_spec(
            "a,workload=banking,round-every=40,apply-mode=review,"
            "mcts-iterations=20"
        )
    )
    daemon.ingest("a", banking_statements(40))
    pending = daemon.recommendations("a")
    if not pending:  # the round may legitimately find nothing
        pytest.skip("round produced no recommendation to review")
    before = set(daemon.registry.get("a").applied_index_keys())
    verdict = daemon.resolve_review(
        "a", pending[0]["rec_id"], accept=True, note="looks right"
    )
    assert verdict["status"] == "accepted"
    after = set(daemon.registry.get("a").applied_index_keys())
    assert after != before


def test_skewed_tenants_bounded_memory_and_independent_budgets():
    """The N-tenant skew scenario: 50 tenants, one of them (the 1%)
    receiving 90% of traffic.  Per-tenant memory stays bounded by
    the template-store capacity, budgets and regret ledgers are
    enforced per tenant, and cold tenants are untouched by the hot
    tenant's rounds."""
    CAPACITY = 32
    N = 50
    daemon = TuningDaemon(workers=0)
    for i in range(N):
        daemon.add_tenant(
            parse_tenant_spec(
                f"t{i:02d},workload=banking,capacity={CAPACITY},"
                "round-every=300,round-budget=2,mcts-iterations=20"
            )
        )

    hot = "t00"
    hot_stream = banking_statements(900, seed=5)
    cold_stream = banking_statements(2, seed=6)
    daemon.ingest(hot, hot_stream)
    for i in range(1, N):
        daemon.ingest(f"t{i:02d}", cold_stream)

    status = daemon.status()
    # Only the hot tenant became due; its budget capped it at 2.
    assert status["rounds_completed"] == 2
    hot_runtime = daemon.registry.get(hot)
    assert hot_runtime.session.rounds_completed == 2
    assert hot_runtime.session.budget.exhausted()

    for i in range(N):
        runtime = daemon.registry.get(f"t{i:02d}")
        # Memory bound: the store never exceeds its capacity even
        # under 90%-of-traffic pressure.
        assert len(runtime.advisor.store) <= CAPACITY
        if runtime.tenant_id != hot:
            assert runtime.session.rounds_completed == 0
            assert not runtime.session.budget.exhausted()
            # Independent ledgers: cold tenants carry no claims from
            # the hot tenant's applies.
            assert runtime.advisor.safety.ledger.to_dict()["arms"] == []
    # Fifty advisors coexist with distinct template stores.
    stores = {
        id(daemon.registry.get(f"t{i:02d}").advisor.store)
        for i in range(N)
    }
    assert len(stores) == N


def test_status_reports_cache_counters_across_ddl():
    """Feature-tier entries survive a round that applied DDL.

    Read-only statements leave the data version alone, so the second
    round reuses what the first planned, before and after its index
    changes.
    """
    daemon = TuningDaemon(workers=0)
    daemon.add_tenant(
        parse_tenant_spec(
            "a,workload=banking,round-every=60,mcts-iterations=20"
        )
    )
    reads = [
        sql for sql in banking_statements(400) if sql.startswith("SELECT")
    ][:120]
    daemon.ingest("a", reads[:60])
    first = daemon.status()["tenants"]["a"]["caches"]
    applied = daemon.registry.get("a").advisor.tuning_history[-1]
    assert applied.created or applied.dropped
    daemon.ingest("a", reads[60:])
    second = daemon.status()["tenants"]["a"]["caches"]
    assert set(second) == {
        "estimator_cost",
        "estimator_features",
        "planner",
        "plans_computed",
    }
    for tier in ("estimator_cost", "estimator_features", "planner"):
        assert set(second[tier]) >= {"hits", "misses", "size", "maxsize"}
    features = second["estimator_features"]
    assert features["hits"] > first["estimator_features"]["hits"]
    assert features["size"] >= first["estimator_features"]["size"] > 0
    assert second["plans_computed"] >= first["plans_computed"] > 0
    assert daemon.status()["rounds_completed"] == 2
