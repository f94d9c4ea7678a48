"""Delta-costing engine tests: cache tiers, delta==full, MCTS wiring."""

import random

import numpy as np
import pytest

from repro.core.candidates import CandidateGenerator
from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector
from repro.core.templates import TemplateStore
from repro.ports.memory import MemoryBackend
from repro.engine.index import IndexDef
from repro.engine.metrics import LruCache
from repro.workloads.banking import BankingWorkload
from repro.workloads.tpcc import TpccWorkload


def _observed(db, generator, count, seed=3):
    store = TemplateStore()
    for query in generator.queries(count, seed=seed):
        store.observe(query.sql, db.parse_statement(query.sql))
    return store.templates(top=80)


def _build(generator, count=150):
    db = MemoryBackend()
    generator.build(db)
    templates = _observed(db, generator, count)
    candidates = [
        c.definition
        for c in CandidateGenerator(db).generate(templates)
    ]
    return db, templates, candidates


@pytest.fixture(scope="module")
def tpcc():
    return _build(TpccWorkload(scale=1, seed=11))


@pytest.fixture(scope="module")
def banking():
    return _build(
        BankingWorkload(accounts=300, txn_rows=900, product_rows=40)
    )


class TestLruCache:
    def test_size_is_bounded_and_evictions_counted(self):
        cache = LruCache(maxsize=3)
        for i in range(10):
            cache.put(i, i * 10)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert cache.stats().evictions == 7

    def test_get_refreshes_recency(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "a" in cache
        assert "b" not in cache

    def test_hit_and_miss_counters(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("nope") is None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_zero_maxsize_disables_caching(self):
        cache = LruCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_estimator_cache_is_bounded(self, tpcc):
        db, templates, _candidates = tpcc
        estimator = BenefitEstimator(db, cache_size=4)
        defs = db.index_defs()
        for template in templates:
            estimator.query_cost(template, defs)
        assert len(estimator._cache) <= 4
        if len(templates) > 4:
            assert estimator._cache.evictions > 0


class TestRelevantConfigSharing:
    def test_irrelevant_index_shares_cache_entry(self, tpcc):
        """Configs differing only on an unreferenced table share the
        same cost-cache entry (and cost)."""
        db, templates, _candidates = tpcc
        estimator = BenefitEstimator(db)
        template = next(
            t for t in templates if "customer" in t.fingerprint
        )
        config = db.index_defs()
        # TPC-C customer statements never touch the item table.
        extra = config + [IndexDef(table="item", columns=("i_price",))]
        first = estimator.query_cost(template, config)
        calls = estimator.estimate_calls
        plans = estimator.plans_computed
        second = estimator.query_cost(template, extra)
        assert second == first
        assert estimator.estimate_calls == calls  # cache hit
        assert estimator.plans_computed == plans


def _random_config(rng, candidates, existing):
    base = list(existing)
    picked = rng.sample(
        candidates, k=rng.randint(0, min(6, len(candidates)))
    )
    seen = {d.key for d in base}
    return base + [d for d in picked if d.key not in seen]


def _mutate(rng, config, candidates, protected):
    """A child config: up to 2 additions and 1 removal."""
    child = {d.key: d for d in config}
    for d in rng.sample(candidates, k=min(2, len(candidates))):
        child.setdefault(d.key, d)
    removable = [k for k in child if k not in protected]
    if removable and rng.random() < 0.7:
        child.pop(rng.choice(sorted(removable)))
    return list(child.values())


class TestDeltaEqualsFull:
    @pytest.mark.parametrize("workload", ["tpcc", "banking"])
    def test_delta_is_bitwise_identical_to_full(
        self, workload, request
    ):
        db, templates, candidates = request.getfixturevalue(workload)
        estimator = BenefitEstimator(db)
        existing = db.index_defs()
        protected = {d.key for d in existing if d.unique}
        rng = random.Random(97)
        for _ in range(25):
            parent = _random_config(rng, candidates, existing)
            child = _mutate(rng, parent, candidates, protected)
            parent_costs = estimator.workload_costs(templates, parent)
            total, costs = estimator.workload_cost_delta(
                parent_costs, templates, parent, child
            )
            full_costs = estimator.workload_costs(templates, child)
            assert np.array_equal(costs, full_costs)
            assert total == float(full_costs.sum())

    def test_delta_matches_fresh_estimator(self, tpcc):
        """Bitwise equality holds even against an estimator that never
        saw the parent (no shared cache state)."""
        db, templates, candidates = tpcc
        existing = db.index_defs()
        rng = random.Random(5)
        parent = _random_config(rng, candidates, existing)
        child = _mutate(rng, parent, candidates, set())
        warm = BenefitEstimator(db)
        parent_costs = warm.workload_costs(templates, parent)
        total, costs = warm.workload_cost_delta(
            parent_costs, templates, parent, child
        )
        cold = BenefitEstimator(db)
        assert np.array_equal(
            costs, cold.workload_costs(templates, child)
        )
        assert total == cold.workload_cost(templates, child)

    def test_unchanged_config_reuses_parent_costs(self, tpcc):
        db, templates, candidates = tpcc
        estimator = BenefitEstimator(db)
        config = db.index_defs()
        parent_costs = estimator.workload_costs(templates, config)
        plans = estimator.plans_computed
        total, costs = estimator.workload_cost_delta(
            parent_costs, templates, config, list(config)
        )
        assert costs is parent_costs  # verbatim reuse, no copy
        assert total == float(parent_costs.sum())
        assert estimator.plans_computed == plans

    def test_mismatched_parent_costs_rejected(self, tpcc):
        db, templates, _candidates = tpcc
        estimator = BenefitEstimator(db)
        config = db.index_defs()
        with pytest.raises(ValueError):
            estimator.workload_cost_delta(
                np.zeros(len(templates) + 1), templates, config, config
            )


class TestFeatureTierSurvivesRetrain:
    def test_clear_cache_keeps_planned_features(self, tpcc):
        db, templates, candidates = tpcc
        estimator = BenefitEstimator(db)
        config = db.index_defs() + candidates[:3]
        estimator.workload_cost(templates, config)
        plans = estimator.plans_computed
        calls = estimator.estimate_calls
        estimator.clear_cache()  # what train() does on a model swap
        estimator.workload_cost(templates, config)
        assert estimator.plans_computed == plans  # nothing re-planned
        assert estimator.estimate_calls > calls  # but re-predicted

    def test_include_features_flushes_both_tiers(self, tpcc):
        db, templates, _candidates = tpcc
        estimator = BenefitEstimator(db)
        config = db.index_defs()
        estimator.workload_cost(templates, config)
        plans = estimator.plans_computed
        estimator.clear_cache(include_features=True)
        estimator.workload_cost(templates, config)
        assert estimator.plans_computed > plans

    def test_data_change_invalidates_costs(self):
        generator = TpccWorkload(scale=1, seed=11)
        db = MemoryBackend()
        generator.build(db)
        templates = _observed(db, generator, 60)
        estimator = BenefitEstimator(db)
        config = db.index_defs()
        before = estimator.workload_cost(templates, config)
        plans = estimator.plans_computed
        for query in generator.queries(120, seed=8):
            db.execute(query.sql)
        db.analyze()
        estimator.workload_cost(templates, config)
        # The catalog version moved, so both tiers were flushed and
        # the statements were re-planned against the new stats.
        assert estimator.plans_computed > plans
        after_costs = estimator.workload_costs(templates, config)
        assert after_costs.shape == (len(templates),)
        assert before > 0


class TestMctsDeltaWiring:
    def _search(self, tpcc, estimator=None, **kwargs):
        db, templates, candidates = tpcc
        if estimator is None:
            estimator = BenefitEstimator(db)
        selector = MctsIndexSelector(
            estimator, iterations=40, rollouts=2, **kwargs
        )
        existing = db.index_defs()
        return selector.search(
            existing=existing,
            candidates=candidates,
            templates=templates,
            protected=[d for d in existing if d.unique],
        )

    def test_delta_and_full_find_identical_result(self, tpcc, monkeypatch):
        on = self._search(tpcc, seed=23)
        # Reference: every delta evaluation recomputed in full.
        full = BenefitEstimator(tpcc[0])

        def full_delta(parent_costs, templates, parent_config,
                       child_config, changed_tables=None):
            costs = full.workload_costs(templates, child_config)
            return float(costs.sum()), costs

        monkeypatch.setattr(full, "workload_cost_delta", full_delta)
        off = self._search(tpcc, estimator=full, seed=23)
        assert on.best_benefit == off.best_benefit
        assert [d.key for d in on.best_config] == [
            d.key for d in off.best_config
        ]
        assert on.evaluations == off.evaluations

    def test_explicit_rng_reproduces_search(self, tpcc):
        a = self._search(tpcc, rng=random.Random(41))
        b = self._search(tpcc, rng=random.Random(41))
        assert a.best_benefit == b.best_benefit
        assert [d.key for d in a.best_config] == [
            d.key for d in b.best_config
        ]

    def test_search_result_carries_cache_stats(self, tpcc):
        result = self._search(tpcc, seed=7)
        assert result.plans_computed > 0
        assert set(result.cache_stats) == {"cost", "features"}
        assert result.cache_stats["cost"].lookups > 0
