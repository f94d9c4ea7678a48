"""Tenant registry: isolation, lifecycle counters, restore."""

from __future__ import annotations

import random

import pytest

from repro.core import checkpoint
from repro.core.safety import SafetyPolicy
from repro.core.templates import DEFAULT_TEMPLATE_CAPACITY
from repro.ports.factory import BackendSpec
from repro.serve import parity
from repro.serve.config import TenantSpec, make_generator, parse_tenant_spec
from repro.serve.registry import TenantRegistry


def banking_statements(count):
    generator = make_generator("banking", seed=5)
    return [q.sql for q in generator.queries(count, seed=5)]


def test_duplicate_tenant_id_rejected():
    registry = TenantRegistry()
    registry.create(parse_tenant_spec("alpha,workload=banking"))
    with pytest.raises(ValueError, match="already exists"):
        registry.create(parse_tenant_spec("alpha,workload=banking"))


def test_unknown_tenant_lookup():
    registry = TenantRegistry()
    with pytest.raises(KeyError, match="unknown tenant"):
        registry.get("ghost")


def test_tenants_pin_different_backends_in_one_registry():
    registry = TenantRegistry()
    mem = registry.create(
        parse_tenant_spec("m,backend=memory,workload=banking")
    )
    sql = registry.create(
        parse_tenant_spec("s,backend=sqlite,seed=11,workload=banking")
    )
    assert mem.backend.name == "memory"
    assert sql.backend.name == "sqlite"
    assert sql.advisor.rng.getstate() == random.Random(11).getstate()
    assert type(mem.backend) is not type(sql.backend)
    assert registry.tenant_ids() == ["m", "s"]


def test_capacity_flows_from_spec_to_template_store():
    registry = TenantRegistry()
    runtime = registry.create(
        parse_tenant_spec("a,workload=banking,capacity=32")
    )
    assert runtime.advisor.store.capacity == 32


def advisor_knobs(advisor):
    safety = advisor.safety
    return {
        "capacity": advisor.store.capacity,
        "storage_budget": advisor.storage_budget,
        "top_templates": advisor.top_templates,
        "iterations": advisor.selector.iterations,
        "rollouts": advisor.selector.rollouts,
        "rng": advisor.rng.getstate(),
        "safety": (
            safety.apply_mode,
            safety.regret_bound,
            safety.regret_headroom,
            safety.gate_min_observations,
        ),
    }


def test_spec_build_is_the_one_tenant_constructor(monkeypatch):
    unset = TenantSpec(tenant_id="plain")
    _backend, advisor = unset.build()
    assert advisor.store.capacity == DEFAULT_TEMPLATE_CAPACITY

    policy = SafetyPolicy(
        apply_mode="review",
        regret_bound=250.0,
        regret_headroom=2.5,
        gate_min_observations=4,
    )
    spec = TenantSpec(
        tenant_id="knobs",
        backend=BackendSpec(kind="memory", seed=9, shard_budget=64),
        safety=policy,
        workload="banking",
        storage_budget=1 << 20,
        mcts_iterations=7,
        rollouts=2,
        top_templates=11,
    )
    built = []
    build = TenantSpec.build

    def recording_build(self):
        pair = build(self)
        built.append(pair[1])
        return pair

    monkeypatch.setattr(TenantSpec, "build", recording_build)
    TenantRegistry().create(spec)
    parity.replay_library_path(spec, 0)
    registry_advisor, replay_advisor = built
    knobs = advisor_knobs(registry_advisor)
    assert knobs == advisor_knobs(replay_advisor)
    assert knobs == {
        "capacity": 64,
        "storage_budget": 1 << 20,
        "top_templates": 11,
        "iterations": 7,
        "rollouts": 2,
        "rng": random.Random(9).getstate(),
        "safety": ("review", 250.0, 2.5, 4),
    }


def test_safety_controllers_are_independent():
    registry = TenantRegistry()
    one = registry.create(
        parse_tenant_spec("one,workload=banking,regret-bound=100")
    )
    two = registry.create(
        parse_tenant_spec("two,workload=banking,regret-bound=100")
    )
    assert one.advisor.safety is not two.advisor.safety
    assert one.advisor.safety.ledger is not two.advisor.safety.ledger


def test_save_creates_tenant_namespace(tmp_path):
    registry = TenantRegistry(checkpoint_root=tmp_path)
    runtime = registry.create(
        parse_tenant_spec(
            "alpha,workload=banking,round-every=40,mcts-iterations=20"
        )
    )
    for sql in banking_statements(40):
        runtime.session.ingest(sql)
    runtime.session.run_round()
    assert registry.save_all() == 1
    assert checkpoint.list_tenant_namespaces(tmp_path) == ["alpha"]
    namespace = checkpoint.tenant_namespace(tmp_path, "alpha")
    assert (namespace / "serve.json").exists()
    assert (namespace / "templates.json").exists()


def test_restore_resumes_lifecycle_counters(tmp_path):
    """A restarted registry must not re-fire rounds for statements
    already tuned against."""
    spec = parse_tenant_spec(
        "alpha,workload=banking,round-every=40,mcts-iterations=20"
    )
    registry = TenantRegistry(checkpoint_root=tmp_path)
    runtime = registry.create(spec)
    for sql in banking_statements(40):
        runtime.session.ingest(sql)
    runtime.session.run_round()
    registry.save_all()

    fresh = TenantRegistry(checkpoint_root=tmp_path)
    restored = fresh.create(spec)
    assert restored.session.ingested == 40
    assert restored.session.rounds_completed == 1
    assert restored.session.pending_statements() == 0
    assert not restored.session.due()
    # The restored template store carries the observed workload.
    assert len(restored.advisor.store) == len(runtime.advisor.store)
