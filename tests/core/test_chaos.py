"""Resilience under injected faults: the chaos invariants.

The acceptance invariant for the resilient runtime: with 10–30% fault
rates on estimator predictions and index builds, every tuning round
completes without an unhandled exception, the catalog is never left
partially applied, and with faults disabled behaviour is identical to
a database without the fault machinery at all.
"""

import random
import tempfile

import pytest

from repro.core.advisor import AutoIndexAdvisor
from repro.core.changeset import IndexChangeSet
from repro.core.estimator import (
    BenefitEstimator,
    DeepIndexEstimator,
    EstimatorUnavailable,
    WhatIfCostModel,
)
from repro.core.templates import TemplateStore
from repro.ports.memory import MemoryBackend
from repro.engine.faults import (
    FAULT_POINTS,
    FaultError,
    FaultPlan,
    PERMANENT,
    TRANSIENT,
)
from repro.engine.index import IndexDef
from repro.engine.schema import ColumnType as T
from repro.engine.schema import table

READS = [
    f"SELECT id FROM people WHERE community = {i % 10} "
    "AND status = 'suspect'"
    for i in range(40)
]
UPDATES = [
    "UPDATE people SET status = 'healthy', community = 2 "
    f"WHERE id = {i}"
    for i in range(300)
]


def make_people_db() -> MemoryBackend:
    """A fresh copy of the conftest ``people_db`` (for twin-run tests)."""
    db = MemoryBackend()
    db.create_table(
        table(
            "people",
            [
                ("id", T.INT),
                ("name", T.TEXT),
                ("community", T.INT),
                ("temperature", T.FLOAT),
                ("status", T.TEXT),
            ],
            primary_key=["id"],
        )
    )
    rng = random.Random(7)
    db.load_rows(
        "people",
        [
            (
                i,
                f"person_{i}",
                rng.randrange(20),
                round(36.0 + rng.random() * 5.0, 1),
                rng.choice(("healthy", "suspect", "confirmed")),
            )
            for i in range(2000)
        ],
    )
    db.analyze()
    return db


def attach(db: MemoryBackend, plan: FaultPlan):
    """Install a fault injector on an already-built database."""
    injector = plan.injector()
    db.faults = injector
    db.planner.faults = injector
    return injector


def run_round(db, advisor, queries):
    """Execute + observe a batch, tune once, and assert atomicity."""
    for sql in queries:
        try:
            db.execute(sql)
        except FaultError:
            continue
        advisor.observe(sql)
    before = {d.key for d in db.index_defs()}
    report = advisor.tune()
    after = {d.key for d in db.index_defs()}
    expected = (before - {d.key for d in report.dropped}) | {
        d.key for d in report.created
    }
    assert after == expected, "catalog partially applied"
    return report


class TestChaosInvariant:
    @pytest.mark.parametrize(
        "seed,rate,kind",
        [
            (11, 0.10, TRANSIENT),
            (23, 0.20, TRANSIENT),
            (47, 0.30, PERMANENT),
        ],
    )
    def test_rounds_survive_faults(self, seed, rate, kind):
        db = make_people_db()
        attach(
            db,
            FaultPlan.chaos(
                seed=seed,
                rate=rate,
                points=("estimator.predict", "index.build"),
                kind=kind,
            ),
        )
        advisor = AutoIndexAdvisor(db, mcts_iterations=25, seed=seed)
        for queries in (READS, UPDATES, READS):
            run_round(db, advisor, queries)  # asserts atomicity
        assert len(advisor.tuning_history) == 3

    def test_chaos_run_replays_bitwise(self):
        def one_run():
            db = make_people_db()
            attach(
                db,
                FaultPlan.chaos(
                    seed=23,
                    rate=0.25,
                    points=("estimator.predict", "index.build"),
                ),
            )
            advisor = AutoIndexAdvisor(db, mcts_iterations=25, seed=5)
            reports = [
                run_round(db, advisor, q) for q in (READS, UPDATES)
            ]
            return [
                (
                    sorted(str(d) for d in r.created),
                    sorted(str(d) for d in r.dropped),
                    r.estimated_benefit,
                    r.retries,
                    r.fallbacks,
                    r.rolled_back,
                    r.degraded,
                )
                for r in reports
            ]

        assert one_run() == one_run()

    def test_faults_off_identical_to_no_injector(self):
        """Zero-rate rules on every point must not perturb anything."""

        def one_run(with_machinery: bool):
            db = make_people_db()
            if with_machinery:
                attach(db, FaultPlan.chaos(seed=99, rate=0.0))
            advisor = AutoIndexAdvisor(db, mcts_iterations=40, seed=5)
            reports = [
                run_round(db, advisor, q) for q in (READS, UPDATES)
            ]
            return [
                (
                    sorted(str(d) for d in r.created),
                    sorted(str(d) for d in r.dropped),
                    r.estimated_benefit,
                    r.baseline_cost,
                    r.estimator_calls,
                    r.plans_computed,
                )
                for r in reports
            ]

        assert one_run(True) == one_run(False)
        # And the disabled machinery reports zero interference.
        assert FaultPlan.chaos(seed=99, rate=0.0).injector().total_fired() == 0


class TestDegradationLadder:
    def observed_template(self, db, sql=READS[0]):
        store = TemplateStore()
        return store.observe(sql, db.parse_statement(sql))

    def test_transient_fault_retried(self, people_db):
        people_db.faults = FaultPlan(seed=0).add(
            "estimator.predict", schedule=[1]
        ).injector()
        estimator = BenefitEstimator(people_db)
        template = self.observed_template(people_db)
        cost = estimator.query_cost(template, people_db.index_defs())
        assert cost > 0
        assert estimator.retries == 1
        assert estimator.fallbacks == 0
        assert estimator.clock.now() > 0  # backoff on the virtual clock

    def test_transient_exhaustion_demotes_model(self, people_db):
        people_db.faults = FaultPlan(seed=0).add(
            "estimator.predict", schedule=[1, 2, 3, 4]
        ).injector()
        estimator = BenefitEstimator(
            people_db, model=DeepIndexEstimator()
        )
        template = self.observed_template(people_db)
        cost = estimator.query_cost(template, people_db.index_defs())
        assert cost > 0
        assert estimator.retries == 3
        assert estimator.fallbacks == 1
        assert isinstance(estimator.model, WhatIfCostModel)
        assert "exhausted retries" in estimator.degraded_reason

    def test_permanent_fault_demotes_without_retry(self, people_db):
        people_db.faults = FaultPlan(seed=0).add(
            "estimator.predict", schedule=[1], kind=PERMANENT
        ).injector()
        estimator = BenefitEstimator(
            people_db, model=DeepIndexEstimator()
        )
        template = self.observed_template(people_db)
        assert estimator.query_cost(template, people_db.index_defs()) > 0
        assert estimator.retries == 0
        assert estimator.fallbacks == 1

    def test_unusable_fallback_raises_estimator_unavailable(
        self, people_db
    ):
        people_db.faults = FaultPlan(seed=0).add(
            "estimator.predict", probability=1.0, kind=PERMANENT
        ).injector()
        estimator = BenefitEstimator(people_db)  # what-if already
        template = self.observed_template(people_db)
        with pytest.raises(EstimatorUnavailable):
            estimator.query_cost(template, people_db.index_defs())

    def test_advisor_skips_round_when_estimator_unusable(
        self, people_db
    ):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=25)
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        attach(
            people_db,
            FaultPlan(seed=0).add(
                "estimator.predict", probability=1.0, kind=PERMANENT
            ),
        )
        advisor.estimator.faults = people_db.faults
        before = {d.key for d in people_db.index_defs()}
        report = advisor.tune()  # must not raise
        assert report.skipped
        assert "unusable" in report.degraded
        assert {d.key for d in people_db.index_defs()} == before
        assert "degraded" in report.render()

    def test_resilience_stats_surface_counters(self, people_db):
        people_db.faults = FaultPlan(seed=0).add(
            "estimator.predict", schedule=[1]
        ).injector()
        estimator = BenefitEstimator(people_db)
        template = self.observed_template(people_db)
        estimator.query_cost(template, people_db.index_defs())
        stats = estimator.resilience_stats()
        assert stats["retries"] == 1
        assert stats["backoff_virtual_seconds"] > 0


class TestPlaceholderFallback:
    def test_unparsable_sample_counted_not_swallowed(self, people_db):
        estimator = BenefitEstimator(people_db)
        store = TemplateStore()
        template = store.observe(
            READS[0], people_db.parse_statement(READS[0])
        )
        template.sample_sql = "THIS IS NOT SQL"
        cost = estimator.query_cost(template, people_db.index_defs())
        assert cost > 0  # placeholder form still estimates
        assert estimator.placeholder_fallbacks == 1
        assert estimator.resilience_stats()["placeholder_fallbacks"] == 1


class TestGuardedApply:
    IDX_A = IndexDef(table="people", columns=("community", "status"))
    IDX_B = IndexDef(table="people", columns=("temperature",))

    def test_rollback_restores_snapshot_on_failed_create(
        self, people_db
    ):
        attach(
            people_db,
            FaultPlan(seed=0).add("index.build", schedule=[2]),
        )
        changeset = IndexChangeSet(people_db)
        with pytest.raises(FaultError):
            changeset.apply(creates=[self.IDX_A, self.IDX_B])
        assert people_db.has_index(self.IDX_A)  # first one landed
        assert changeset.rollback() == 1
        assert changeset.matches_snapshot()
        assert not people_db.has_index(self.IDX_A)
        assert not people_db.has_index(self.IDX_B)

    def test_rollback_recreates_dropped_indexes(self, people_db):
        people_db.create_index(self.IDX_A)  # before injection starts
        attach(
            people_db,
            # Drops check index.build too now, so the drop is visit 1
            # and the create is visit 2.
            FaultPlan(seed=0).add("index.build", schedule=[2]),
        )
        changeset = IndexChangeSet(people_db)
        with pytest.raises(FaultError):
            # The drop succeeds, the create faults (visit 2).
            changeset.apply(drops=[self.IDX_A], creates=[self.IDX_B])
        assert changeset.rollback() == 1
        assert changeset.matches_snapshot()
        assert people_db.has_index(self.IDX_A)

    def test_rollback_is_idempotent(self, people_db):
        changeset = IndexChangeSet(people_db)
        changeset.apply(creates=[self.IDX_A])
        assert changeset.rollback() == 1
        assert changeset.rollback() == 0

    def test_tune_rolls_back_on_build_failure(self, people_db):
        attach(
            people_db,
            FaultPlan(seed=0).add("index.build", probability=1.0),
        )
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        before = {d.key for d in people_db.index_defs()}
        report = advisor.tune()  # must not raise
        assert report.created == []
        assert "apply failed" in report.degraded
        assert {d.key for d in people_db.index_defs()} == before


class TestAutoRevert:
    def test_regressing_index_reverted_next_round(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        first = advisor.tune()
        created = {d.columns for d in first.created}
        assert ("community", "status") in created
        assert advisor.diagnosis.watched_indexes()

        for sql in UPDATES:
            people_db.execute(sql)
            advisor.observe(sql)
        report = advisor.tune()
        assert ("community", "status") in {
            d.columns for d in report.dropped
        }
        assert report.rolled_back >= 1
        assert not people_db.has_index(
            IndexDef(table="people", columns=("community", "status"))
        )

    def test_healthy_index_survives_window(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        advisor.tune()
        target = IndexDef(
            table="people", columns=("community", "status")
        )
        assert people_db.has_index(target)
        # Keep the workload read-heavy: the index stays useful.
        for _ in range(2):
            for sql in READS:
                people_db.execute(sql)
                advisor.observe(sql)
            report = advisor.tune()
            assert target.key not in {d.key for d in report.dropped}
        assert people_db.has_index(target)
        # Its window (2 passes) is exhausted: no longer observed.
        assert target.key not in {
            d.key for d in advisor.diagnosis.watched_indexes()
        }

    def test_preview_does_not_consume_window(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        advisor.tune()
        watched = {d.key for d in advisor.diagnosis.watched_indexes()}
        assert watched
        for _ in range(5):
            advisor.diagnosis.check_applied(consume=False)
        assert {
            d.key for d in advisor.diagnosis.watched_indexes()
        } == watched


class TestAnytimeSearch:
    def test_max_evaluations_bounds_search(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        advisor.selector.max_evaluations = 1
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        report = advisor.tune()  # must return best-so-far, not crash
        assert report.deadline_hit
        assert report.search.deadline_hit
        assert "deadline" in report.render()

    def test_zero_deadline_returns_immediately(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=40)
        advisor.selector.max_evaluations = 0
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        report = advisor.tune()
        assert report.deadline_hit
        assert report.created == []  # no budget to find anything

    def test_no_deadline_by_default(self, people_db):
        advisor = AutoIndexAdvisor(people_db, mcts_iterations=25)
        for sql in READS[:10]:
            people_db.execute(sql)
            advisor.observe(sql)
        assert not advisor.tune().deadline_hit


class TestRobustObserve:
    def test_unparsable_statement_counted_not_raised(self, people_db):
        advisor = AutoIndexAdvisor(people_db)
        assert advisor.observe("THIS IS NOT SQL") is None
        assert advisor.observe_failures == 1
        assert len(advisor.store) == 0

    def test_parser_fault_counted_not_raised(self, people_db):
        attach(
            people_db,
            FaultPlan(seed=0).add("parser.parse", schedule=[1]),
        )
        advisor = AutoIndexAdvisor(people_db)
        assert advisor.observe(READS[0]) is None
        assert advisor.observe_failures == 1
        # Next observation (no fault scheduled) works normally.
        assert advisor.observe(READS[0]) is not None


class TestQueryLevelAblation:
    def test_first_observation_counted_once(self, people_db):
        advisor = AutoIndexAdvisor(people_db, use_templates=False)
        advisor.observe(READS[0])
        assert advisor.store.get(READS[0]).frequency == 1.0
        advisor.observe(READS[0])
        advisor.observe(READS[0])
        assert advisor.store.get(READS[0]).frequency == 3.0

    def test_statements_analyzed_per_statement(self, people_db):
        advisor = AutoIndexAdvisor(people_db, use_templates=False)
        for sql in READS:
            advisor.observe(sql)
        assert advisor.statements_analyzed == len(READS)
        # 10 distinct literal bindings -> 10 raw-text "templates".
        assert len(advisor.store) == 10

    def test_observe_raw_shares_store_clock(self):
        store = TemplateStore()
        store.observe_raw("SELECT id FROM people WHERE community = 1")
        store.observe_raw("SELECT id FROM people WHERE community = 2")
        assert store.total_observed == 2
        assert len(store) == 2  # no parameterization collapse

    def test_observe_raw_capacity_evicts(self):
        store = TemplateStore(capacity=2)
        for i in range(4):
            store.observe_raw(
                f"SELECT id FROM people WHERE community = {i}"
            )
        assert len(store) == 2


def test_all_fault_points_reachable(people_db):
    """Every declared fault point is actually visited by the stack."""
    injector = attach(people_db, FaultPlan(seed=0))
    advisor = AutoIndexAdvisor(people_db, mcts_iterations=25)
    for sql in READS:
        people_db.execute(sql)
        advisor.observe(sql)
    people_db.analyze()
    advisor.tune()
    with tempfile.TemporaryDirectory() as tmp:
        advisor.save_state(tmp)
        advisor.load_state(tmp)
    assert set(injector.visits) == set(FAULT_POINTS)
