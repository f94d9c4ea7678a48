"""DBA-in-the-loop review mode, end to end.

The acceptance scenario: with a ``SafetyPolicy(apply_mode="review")``
the advisor
never touches the catalog on its own; recommendations queue with an
explanation, a rejected recommendation is *never* applied while its
verdict lands in the estimator's training data, and an accepted one
is applied with the same transactional guarantees as an autonomous
round. The offline flow (review CLI editing a checkpoint the advisor
later restores) is covered in-process via :func:`repro.review.main`.
"""

import pytest

from repro import review
from repro.core.advisor import AutoIndexAdvisor
from repro.core.safety import SafetyPolicy
from repro.engine.faults import FaultError, FaultPlan

from .test_chaos import READS, attach


REVIEW = SafetyPolicy(apply_mode="review")


def reviewed_advisor(db, **kwargs):
    advisor = AutoIndexAdvisor(
        db, mcts_iterations=40, seed=3, safety=REVIEW, **kwargs
    )
    for sql in READS:
        db.execute(sql)
        advisor.observe(sql)
    return advisor


class TestGatedRounds:
    def test_review_round_queues_instead_of_applying(self, people_db):
        advisor = reviewed_advisor(people_db)
        before = {d.key for d in people_db.index_defs()}
        report = advisor.tune()
        assert report.gated
        assert "review" in report.gate_reason
        assert report.created == []
        assert {d.key for d in people_db.index_defs()} == before
        pending = advisor.pending_recommendations()
        assert report.queued == pending[0].rec_id
        assert pending[0].additions

    def test_explanation_names_templates_and_tables(self, people_db):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        assert rec.explanation.affected_tables == ["people"]
        assert rec.explanation.per_template
        rendered = rec.render()
        assert "gated because" in rendered
        assert "people" in rendered

    def test_repeated_rounds_dedup_the_same_change(self, people_db):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        for _ in range(2):
            for sql in READS:
                people_db.execute(sql)
                advisor.observe(sql)
            advisor.tune()
        assert len(advisor.pending_recommendations()) == 1


class TestVerdicts:
    def test_rejection_is_never_applied_and_trains(self, people_db):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        added_keys = {d.key for d in rec.additions}
        history_before = len(advisor.estimator.history)

        advisor.reject_recommendation(rec.rec_id, note="too risky")

        # Never applied — not now, and not by later rounds either.
        assert not added_keys & {
            d.key for d in people_db.index_defs()
        }
        for sql in READS:
            people_db.execute(sql)
            advisor.observe(sql)
        advisor.tune()
        assert not added_keys & {
            d.key for d in people_db.index_defs()
        }
        # The verdict became labelled training data.
        assert len(advisor.estimator.history) > history_before
        assert rec.consumed and rec.status == "rejected"

    def test_acceptance_applies_and_opens_a_ledger_claim(
        self, people_db
    ):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]

        advisor.accept_recommendation(rec.rec_id, note="ship it")

        applied = {d.key for d in people_db.index_defs()}
        assert {d.key for d in rec.additions} <= applied
        watched = {d.key for d in advisor.diagnosis.watched_indexes()}
        assert {d.key for d in rec.additions} <= watched
        assert all(
            advisor.safety.ledger.has_pending(d)
            for d in rec.additions
        )
        assert not advisor.pending_recommendations()

    def test_faulted_acceptance_rolls_back_and_stays_retryable(
        self, people_db
    ):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        before = {d.key for d in people_db.index_defs()}
        attach(
            people_db,
            FaultPlan(seed=0).add("index.build", probability=1.0),
        )
        with pytest.raises(FaultError):
            advisor.accept_recommendation(rec.rec_id)
        # Catalog untouched; the verdict survives for a retry.
        assert {d.key for d in people_db.index_defs()} == before
        assert rec.status == "accepted" and not rec.consumed

        people_db.faults = None
        people_db.planner.faults = None
        processed = advisor.process_review_verdicts()
        assert [r.rec_id for r in processed] == [rec.rec_id]
        assert {d.key for d in rec.additions} <= {
            d.key for d in people_db.index_defs()
        }


class TestOfflineReviewCli:
    def test_cli_reject_round_trips_through_a_checkpoint(
        self, people_db, tmp_path
    ):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        added_keys = {d.key for d in rec.additions}
        advisor.save_state(tmp_path)

        assert review.main([str(tmp_path), "list"]) == 0
        assert review.main([str(tmp_path), "show", str(rec.rec_id)]) == 0
        assert (
            review.main(
                [
                    str(tmp_path),
                    "reject",
                    str(rec.rec_id),
                    "--note",
                    "write-heavy table",
                ]
            )
            == 0
        )

        # The advisor process restarts and acts on the verdict.
        fresh = AutoIndexAdvisor(
            people_db, mcts_iterations=40, seed=3, safety=REVIEW
        )
        report = fresh.load_state(tmp_path)
        assert report.loaded("safety.json")
        history_before = len(fresh.estimator.history)
        processed = fresh.process_review_verdicts()
        assert [r.rec_id for r in processed] == [rec.rec_id]
        assert processed[0].verdict_note == "write-heavy table"
        assert len(fresh.estimator.history) > history_before
        assert not added_keys & {
            d.key for d in people_db.index_defs()
        }

    def test_cli_accept_applies_on_next_restore(
        self, people_db, tmp_path
    ):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        advisor.save_state(tmp_path)

        assert (
            review.main(
                [str(tmp_path), "accept", str(rec.rec_id)]
            )
            == 0
        )

        fresh = AutoIndexAdvisor(
            people_db, mcts_iterations=40, seed=3, safety=REVIEW
        )
        fresh.load_state(tmp_path)
        fresh.process_review_verdicts()
        assert {d.key for d in rec.additions} <= {
            d.key for d in people_db.index_defs()
        }
        assert all(
            fresh.safety.ledger.has_pending(d) for d in rec.additions
        )

    def test_cli_rejects_unknown_ids_and_double_verdicts(
        self, people_db, tmp_path
    ):
        advisor = reviewed_advisor(people_db)
        advisor.tune()
        rec = advisor.pending_recommendations()[0]
        advisor.save_state(tmp_path)
        assert review.main([str(tmp_path), "show", "999"]) == 2
        assert review.main([str(tmp_path), "reject", str(rec.rec_id)]) == 0
        # Already resolved: the second verdict must not overwrite.
        assert review.main([str(tmp_path), "accept", str(rec.rec_id)]) == 2

    def test_cli_refuses_a_non_checkpoint_directory(self, tmp_path):
        assert review.main([str(tmp_path / "nope"), "list"]) == 2
