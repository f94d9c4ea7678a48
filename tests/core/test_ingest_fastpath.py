"""Ingest fast path: raw-key cache, coherence, and incremental
diagnosis parity.

The contract under test is *bit-identical outputs*: with the fast
path on, the store's templates, statistics, shard layout, and every
diagnosis decision must equal what the full-parse pipeline produces —
the cache and the incremental caches may only change wall time.
"""

import pytest

from repro.bench.harness import prepare_database
from repro.core.advisor import AutoIndexAdvisor
from repro.core.candidates import CandidateGenerator
from repro.core.diagnosis import IndexDiagnosis
from repro.core.templates import TemplateStore
from repro.engine.index import IndexDef
from repro.sql import parse
from repro.sql.lexer import SqlSyntaxError
from repro.sql.normalize import raw_key
from repro.workloads.tpcc import TpccWorkload


def counting_parse():
    """A parse_fn that counts invocations."""
    calls = {"n": 0}

    def parse_fn(sql):
        calls["n"] += 1
        return parse(sql)

    return parse_fn, calls


def template_state(store):
    return {
        t.fingerprint: (
            t.frequency,
            t.window_frequency,
            t.last_seen,
            t.sample_sql,
            t.is_write,
        )
        for t in store.templates()
    }


class TestRawCacheFastPath:
    def test_repeated_shape_skips_parse(self):
        parse_fn, calls = counting_parse()
        store = TemplateStore(parse_fn=parse_fn)
        for i in range(10):
            store.observe(f"SELECT id FROM t WHERE a = {i}")
        assert calls["n"] == 1
        stats = store.raw_cache_stats()
        assert stats == {
            "hits": 9, "misses": 1, "size": 1, "parity_checks": 0,
        }

    def test_disabled_cache_always_parses(self):
        parse_fn, calls = counting_parse()
        store = TemplateStore(raw_cache_size=0, parse_fn=parse_fn)
        for i in range(5):
            store.observe(f"SELECT id FROM t WHERE a = {i}")
        assert calls["n"] == 5
        assert store.raw_cache_stats()["size"] == 0

    def test_cached_state_identical_to_full_parse(self):
        batch = [
            f"SELECT id FROM t WHERE a = {i % 3} AND b = 'v{i}'"
            for i in range(40)
        ] + [
            f"INSERT INTO t (a, b) VALUES ({i}, 'x')" for i in range(10)
        ]
        full = TemplateStore(raw_cache_size=0)
        cached = TemplateStore()
        for sql in batch:
            full.observe(sql)
            cached.observe(sql)
        assert template_state(full) == template_state(cached)
        assert full.shard_stats() == cached.shard_stats()
        assert full.total_observed == cached.total_observed
        assert full.total_new_templates == cached.total_new_templates

    def test_preparsed_statement_bypasses_cache(self):
        store = TemplateStore()
        sql = "SELECT id FROM t WHERE a = 1"
        store.observe(sql, parse(sql))
        stats = store.raw_cache_stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["size"] == 0

    def test_error_raised_before_counters_move(self):
        store = TemplateStore()
        with pytest.raises(SqlSyntaxError):
            store.observe("SELECT id FROM t WHERE a = 'oops")
        assert store.total_observed == 0
        assert len(store) == 0

    def test_observe_raw_fast_path(self):
        parse_fn, calls = counting_parse()
        store = TemplateStore(parse_fn=parse_fn)
        sql = "SELECT id FROM t WHERE a = 1"
        for _ in range(4):
            store.observe_raw(sql)
        assert calls["n"] == 1
        # A different literal is a different raw "template" here.
        store.observe_raw("SELECT id FROM t WHERE a = 2")
        assert calls["n"] == 2

    def test_parity_check_trips_on_poisoned_cache(self):
        store = TemplateStore(parity_check_every=1)
        sql_a = "SELECT id FROM t WHERE a = 1"
        sql_b = "SELECT name FROM u WHERE b = 2"
        store.observe(sql_a)
        template_b = store.observe(sql_b)
        # Corrupt the mapping: shape A now resolves to B's template.
        store._raw_cache[raw_key(sql_a)] = template_b.fingerprint
        with pytest.raises(AssertionError, match="parity violation"):
            store.observe(sql_a)


class TestCacheCoherence:
    """Satellite (a): no stale-fingerprint resurrection, ever."""

    def _cache_is_coherent(self, store):
        for key, fingerprint in store._raw_cache.items():
            assert fingerprint in store, (
                f"raw key {key!r} resolves to dead fingerprint "
                f"{fingerprint!r}"
            )

    def test_eviction_past_lru_budget_invalidates(self):
        parse_fn, calls = counting_parse()
        store = TemplateStore(capacity=4, parse_fn=parse_fn)
        shapes = [
            f"SELECT id FROM t{i} WHERE a = {{v}}" for i in range(10)
        ]
        for i, shape in enumerate(shapes):
            store.observe(shape.format(v=i))
        assert len(store) <= 4
        self._cache_is_coherent(store)
        # Re-observe an evicted shape: must take the miss path and
        # create a fresh template, not resurrect the dead fingerprint.
        evicted = shapes[0]
        parses_before = calls["n"]
        template = store.observe(evicted.format(v=99))
        assert calls["n"] == parses_before + 1
        assert template.frequency == 1.0
        self._cache_is_coherent(store)

    def test_raw_cache_respects_its_own_budget(self):
        store = TemplateStore(raw_cache_size=3)
        for i in range(8):
            store.observe(f"SELECT id FROM t{i} WHERE a = 1")
        stats = store.raw_cache_stats()
        assert stats["size"] <= 3
        # Reverse index shrinks with the cache: no unbounded growth.
        assert sum(len(v) for v in store._raw_keys.values()) == (
            stats["size"]
        )
        self._cache_is_coherent(store)

    def test_drift_cleanup_invalidates(self):
        parse_fn, calls = counting_parse()
        store = TemplateStore(parse_fn=parse_fn)
        sql = "SELECT id FROM t WHERE a = 1"
        store.observe(sql)
        removed = store.handle_drift()  # frequency 1 * 0.5 < 1.0: cold
        assert removed == 1
        self._cache_is_coherent(store)
        template = store.observe(sql)
        assert calls["n"] == 2  # re-parsed, not served from the cache
        assert template.frequency == 1.0

    def test_stale_entry_without_remove_is_dropped(self):
        # A store rebuilt from a checkpoint may carry cache entries
        # whose template never existed in this instance.
        store = TemplateStore()
        sql = "SELECT id FROM t WHERE a = 1"
        key = raw_key(sql)
        store._raw_cache[key] = "SELECT ghost FROM nowhere"
        store._raw_keys.setdefault("SELECT ghost FROM nowhere", {})[
            key
        ] = None
        template = store.observe(sql)
        assert template.frequency == 1.0
        self._cache_is_coherent(store)


def ingest(db, diagnosis, store, statements, every=25, top_templates=100):
    reports = []
    for i, sql in enumerate(statements, 1):
        db.execute(sql)
        store.observe(sql)
        if i % every == 0:
            reports.append(
                diagnosis.diagnose(
                    protected=[
                        d for d in db.index_defs() if d.unique
                    ],
                    top_templates=top_templates,
                )
            )
    return reports


def report_tuple(report):
    return (
        sorted(str(d) for d in report.missing_beneficial),
        sorted(str(d) for d in report.rarely_used),
        sorted(str(d) for d in report.negative),
        report.considered,
        report.regression,
        sorted(str(d) for d in report.auto_revert),
    )


STATEMENTS = [
    f"SELECT id FROM people WHERE community = {i % 7} "
    f"AND status = 's{i % 3}'"
    for i in range(60)
] + [
    "INSERT INTO people (id, name, community, temperature, status) "
    f"VALUES ({50000 + i}, 'n', {i % 7}, 36.6, 'healthy')"
    for i in range(20)
] + [
    f"UPDATE people SET temperature = 37.0 WHERE id = {i}"
    for i in range(20)
]

#: A dynamic workload: the hot template moves from ``community`` to
#: ``name`` after the first diagnosis, inside the same table shard.
PHASE_SHIFT = [
    f"SELECT id FROM people WHERE community = {i % 20}"
    for i in range(25)
] + [
    f"SELECT id FROM people WHERE name = 'person_{i}'"
    for i in range(75)
]


class TestIncrementalDiagnosisParity:
    def test_reports_identical_to_full_scan(self, people_db, people_db2):
        unused = IndexDef(table="people", columns=("name",))
        for db in (people_db, people_db2):
            db.create_index(unused)

        full_store = TemplateStore(raw_cache_size=0)
        full = IndexDiagnosis(
            people_db,
            full_store,
            CandidateGenerator(people_db),
            incremental=False,
        )
        inc_store = TemplateStore()
        inc = IndexDiagnosis(
            people_db2,
            inc_store,
            CandidateGenerator(people_db2),
            incremental=True,
        )
        full_reports = ingest(
            people_db, full, full_store, STATEMENTS
        )
        inc_reports = ingest(
            people_db2, inc, inc_store, STATEMENTS
        )
        assert len(full_reports) == len(inc_reports) > 0
        for a, b in zip(full_reports, inc_reports):
            assert report_tuple(a) == report_tuple(b)

    def test_phase_shift_reranks_hot_templates(self, people_db, people_db2):
        """A shard whose version moved must be re-read: with one hot
        template allowed, the report has to follow the phase shift."""
        full_store = TemplateStore(raw_cache_size=0)
        full = IndexDiagnosis(
            people_db,
            full_store,
            CandidateGenerator(people_db),
            incremental=False,
        )
        inc_store = TemplateStore()
        inc = IndexDiagnosis(
            people_db2,
            inc_store,
            CandidateGenerator(people_db2),
        )
        full_reports = ingest(
            people_db, full, full_store, PHASE_SHIFT, top_templates=1
        )
        inc_reports = ingest(
            people_db2, inc, inc_store, PHASE_SHIFT, top_templates=1
        )
        assert [ordered_report(r) for r in full_reports] == [
            ordered_report(r) for r in inc_reports
        ]
        first, last = full_reports[0], full_reports[-1]
        assert "community" in str(first.missing_beneficial)
        assert "name" in str(last.missing_beneficial)

    def test_quiet_pass_reuses_classification(self, people_db):
        store = TemplateStore()
        diagnosis = IndexDiagnosis(
            people_db, store, CandidateGenerator(people_db)
        )
        for sql in STATEMENTS[:60]:
            people_db.execute(sql)
            store.observe(sql)
        first = diagnosis.diagnose()
        second = diagnosis.diagnose()  # nothing moved in between
        assert report_tuple(first) == report_tuple(second)

    def test_usage_reset_invalidates_classification(self, people_db):
        unused = IndexDef(table="people", columns=("name",))
        people_db.create_index(unused)
        store = TemplateStore()
        diagnosis = IndexDiagnosis(
            people_db, store, CandidateGenerator(people_db)
        )
        for sql in STATEMENTS[:60]:
            people_db.execute(sql)
            store.observe(sql)
        first = diagnosis.diagnose()
        assert unused in first.rarely_used
        people_db.reset_index_usage()
        people_db.execute(STATEMENTS[0])
        # total_queries moved and the epoch moved; the classification
        # must be recomputed, not replayed.
        second = diagnosis.diagnose()
        assert unused in second.rarely_used


def ordered_report(report):
    """Every field of a report, list order kept."""
    return (
        [str(d) for d in report.missing_beneficial],
        [str(d) for d in report.rarely_used],
        [str(d) for d in report.negative],
        report.considered,
        report.regression,
        [str(d) for d in report.auto_revert],
    )


def stream_tpcc(raw_cache_size, incremental, queries=300, every=100):
    """Observe a TPC-C stream, diagnosing every ``every`` queries."""
    generator = TpccWorkload(scale=1, seed=11)
    db = prepare_database(generator)
    kwargs = {} if raw_cache_size is None else {
        "raw_cache_size": raw_cache_size
    }
    store = TemplateStore(parse_fn=db.parse_statement, **kwargs)
    diagnosis = IndexDiagnosis(
        db, store, CandidateGenerator(db), incremental=incremental
    )
    reports = []
    for i, query in enumerate(generator.queries(queries, seed=17), 1):
        store.observe(query.sql)
        if i % every == 0:
            reports.append(ordered_report(diagnosis.diagnose()))
    return store, reports


class TestTpccIngestParity:
    """The fast paths on TPC-C equal full parse plus full scan."""

    @pytest.mark.parametrize("incremental", [False, True])
    def test_fast_paths_identical_to_full_parse_and_scan(
        self, incremental
    ):
        full_store, full_reports = stream_tpcc(
            raw_cache_size=0, incremental=False
        )
        store, reports = stream_tpcc(
            raw_cache_size=None, incremental=incremental
        )
        assert store.raw_cache_stats()["hits"] > 0
        assert full_store.raw_cache_stats()["hits"] == 0
        assert template_state(store) == template_state(full_store)
        assert store.shard_stats() == full_store.shard_stats()
        assert len(reports) == 3
        assert reports == full_reports


class TestCheckpointRoundTrip:
    """Satellite (f): caches are rebuildable, decisions survive."""

    def _drive(self, advisor, db):
        for sql in STATEMENTS:
            db.execute(sql)
            advisor.observe(sql)

    def test_restore_produces_identical_diagnosis(
        self, people_db, people_db2, tmp_path
    ):
        advisor = AutoIndexAdvisor(people_db, seed=3)
        self._drive(advisor, people_db)
        expected = report_tuple(advisor.diagnose())
        advisor.save_state(tmp_path)

        # Crash: a fresh advisor on a twin database restores the
        # checkpoint. The raw cache and diagnosis caches are pure
        # derivatives — never serialized — and must rebuild to the
        # same decisions.
        twin = AutoIndexAdvisor(people_db2, seed=3)
        for sql in STATEMENTS:
            people_db2.execute(sql)
        report = twin.load_state(tmp_path)
        assert report.manifest_found
        assert template_state(twin.store) == template_state(
            advisor.store
        )
        assert report_tuple(twin.diagnose()) == expected
        # The restored store's raw cache starts empty and repopulates
        # through the miss path.
        assert twin.store.raw_cache_stats()["size"] == 0
        twin.store.observe(STATEMENTS[0])
        assert twin.store.raw_cache_stats()["misses"] >= 1

    def test_restored_store_fast_path_still_sound(
        self, people_db, people_db2, tmp_path
    ):
        advisor = AutoIndexAdvisor(people_db, seed=3)
        self._drive(advisor, people_db)
        advisor.save_state(tmp_path)
        twin = AutoIndexAdvisor(people_db2, seed=3)
        twin.load_state(tmp_path)
        # Every observe after restore re-enters through the raw-key
        # cache with parity checks on every hit.
        twin.store.parity_check_every = 1
        for i in range(5):
            twin.store.observe(
                f"SELECT id FROM people WHERE community = {i} "
                f"AND status = 's0'"
            )
        assert twin.store.raw_cache_stats()["parity_checks"] >= 4
