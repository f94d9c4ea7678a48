"""SQL2Template store tests: matching, eviction, decay, drift."""

import pytest

from repro.core.templates import QueryTemplate, TemplateStore


class TestMatching:
    def test_same_shape_matches(self):
        store = TemplateStore()
        a = store.observe("SELECT a FROM t WHERE b = 1")
        b = store.observe("SELECT a FROM t WHERE b = 2")
        assert a is b
        assert len(store) == 1
        assert a.frequency == 2.0

    def test_different_shapes_create_templates(self):
        store = TemplateStore()
        store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT a FROM t WHERE c = 1")
        assert len(store) == 2

    def test_sample_sql_is_latest(self):
        store = TemplateStore()
        store.observe("SELECT a FROM t WHERE b = 1")
        template = store.observe("SELECT a FROM t WHERE b = 99")
        assert template.sample_sql.endswith("99")

    def test_write_flag(self):
        store = TemplateStore()
        read = store.observe("SELECT a FROM t WHERE b = 1")
        write = store.observe("UPDATE t SET a = 1 WHERE b = 2")
        assert not read.is_write
        assert write.is_write

    def test_tables_property(self):
        store = TemplateStore()
        select = store.observe("SELECT a FROM t1, t2 WHERE t1.x = t2.y")
        update = store.observe("UPDATE t3 SET a = 1")
        assert set(select.tables) == {"t1", "t2"}
        assert update.tables == ("t3",)

    def test_total_counters(self):
        store = TemplateStore()
        for i in range(5):
            store.observe(f"SELECT a FROM t WHERE b = {i}")
        store.observe("SELECT z FROM u")
        assert store.total_observed == 6
        assert store.total_new_templates == 2


class TestCapacity:
    def test_eviction_at_capacity(self):
        store = TemplateStore(capacity=3)
        for i in range(5):
            store.observe(f"SELECT c{i} FROM t")
        assert len(store) == 3

    def test_eviction_prefers_low_frequency(self):
        store = TemplateStore(capacity=2)
        for _ in range(5):
            store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT b FROM t")
        store.observe("SELECT c FROM t")  # evicts one of the singletons
        assert store.get("SELECT a FROM t WHERE b = $1") is not None


class TestOrdering:
    def test_templates_sorted_by_frequency(self):
        store = TemplateStore()
        for _ in range(3):
            store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT z FROM u")
        ordered = store.templates()
        assert ordered[0].frequency == 3.0

    def test_top_limits(self):
        store = TemplateStore()
        for i in range(10):
            store.observe(f"SELECT c{i} FROM t")
        assert len(store.templates(top=4)) == 4


class TestWindows:
    def test_window_frequency_tracks_recent(self):
        store = TemplateStore()
        store.observe("SELECT a FROM t WHERE b = 1")
        store.begin_tuning_window()
        template = store.observe("SELECT a FROM t WHERE b = 2")
        assert template.frequency == 2.0
        assert template.window_frequency == 1.0

    def test_weight_prefers_recent(self):
        old = QueryTemplate(
            fingerprint="x", statement=None, frequency=100.0,
            window_frequency=0.0,
        )
        fresh = QueryTemplate(
            fingerprint="y", statement=None, frequency=20.0,
            window_frequency=20.0,
        )
        assert fresh.weight > old.weight


class TestDrift:
    def test_drift_detected_on_novel_flood(self):
        store = TemplateStore(drift_window=50, drift_miss_ratio=0.5)
        for i in range(60):
            store.observe(f"SELECT c{i} FROM t")
        assert store.drift_detected()

    def test_no_drift_on_stable_workload(self):
        store = TemplateStore(drift_window=50)
        store.observe("SELECT a FROM t WHERE b = 0")
        for i in range(60):
            store.observe(f"SELECT a FROM t WHERE b = {i}")
        assert not store.drift_detected()

    def test_handle_drift_decays_and_drops(self):
        store = TemplateStore(decay_factor=0.5, cold_threshold=1.0)
        hot = store.observe("SELECT a FROM t WHERE b = 1")
        for _ in range(7):
            store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT z FROM u")  # freq 1 -> decays to 0.5 -> cold
        removed = store.handle_drift()
        assert removed == 1
        assert hot.frequency == 4.0
        assert len(store) == 1

    def test_drift_window_resets_after_handling(self):
        store = TemplateStore(drift_window=10, drift_miss_ratio=0.5)
        for i in range(12):
            store.observe(f"SELECT c{i} FROM t")
        assert store.drift_detected()
        store.handle_drift()
        assert not store.drift_detected()


class TestSharding:
    def test_shard_per_primary_table(self):
        store = TemplateStore()
        store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT a FROM u WHERE b = 1")
        store.observe("SELECT c FROM u")
        assert store.shard_stats() == {"t": 1, "u": 2}

    def test_eviction_charges_largest_shard(self):
        store = TemplateStore(capacity=4)
        for i in range(4):
            store.observe(f"SELECT c{i} FROM big")
        store.observe("SELECT a FROM small")
        # The overflowing template lands; the over-budget shard pays.
        assert len(store) == 4
        stats = store.shard_stats()
        assert stats["small"] == 1
        assert stats["big"] == 3

    def test_shard_budget_splits_capacity(self):
        store = TemplateStore(capacity=10)
        store.observe("SELECT a FROM t")
        store.observe("SELECT a FROM u")
        assert store.shard_budget() == 5

    def test_removal_cleans_empty_shard(self):
        store = TemplateStore(decay_factor=0.5, cold_threshold=1.0)
        store.observe("SELECT a FROM t WHERE b = 1")
        store.observe("SELECT z FROM u")
        for _ in range(7):
            store.observe("SELECT a FROM t WHERE b = 1")
        store.handle_drift()  # the cold u template is dropped
        assert "u" not in store.shard_stats()
