"""The AutoIndex advisor: the orchestrating system of the paper.

Wires the pipeline together exactly as Section III describes:

    workload → SQL2Template → candidate generation → MCTS index
    update (add/remove under a storage budget) → apply to the DB,

with the index-benefit estimator (static what-if model until enough
history is recorded, then the trained one-layer deep regression)
supplying every cost evaluated inside MCTS, and the diagnosis module
deciding when tuning is worthwhile.

The runtime is resilient by construction: DDL goes through a
transactional :class:`~repro.core.changeset.IndexChangeSet` (full
rollback on mid-apply failure), freshly-applied indexes sit in a
post-apply observation window and are auto-reverted if they regress,
an unusable estimator degrades the round to a skipped report instead
of an exception, and checkpoints are crash-safe (atomic writes,
previous-generation fallback on load).
"""

from __future__ import annotations

import io
import json
import random
from typing import List, Optional, Sequence

from repro.core import checkpoint
from repro.core.lifecycle import run_round
from repro.core.candidates import CandidateGenerator
from repro.core.changeset import IndexChangeSet
from repro.core.diagnosis import IndexDiagnosis, IndexProblemReport
from repro.core.estimator import (
    BenefitEstimator,
    DeepIndexEstimator,
    EstimatorUnavailable,
)
from repro.core.mcts import MctsIndexSelector
from repro.core.safety import PendingRecommendation, SafetyPolicy
from repro.core.pipeline import (
    TuningContext,
    TuningPipeline,
    TuningReport,
)
from repro.core.templates import (
    DEFAULT_TEMPLATE_CAPACITY,
    QueryTemplate,
    TemplateStore,
)
from repro.engine.faults import FaultError
from repro.engine.index import IndexDef
from repro.ports.backend import TuningBackend
from repro.sql.lexer import SqlSyntaxError

__all__ = ["AutoIndexAdvisor", "TuningReport"]


class AutoIndexAdvisor:
    """Incremental index management for one database.

    Typical use::

        advisor = AutoIndexAdvisor(db, storage_budget=50 * MiB)
        for q in workload:
            db.execute(q.sql)
            advisor.observe(q.sql)
        advisor.tune()          # diagnose → candidates → MCTS → apply

    Parameters mirror the paper's knobs: template capacity, the MCTS
    exploration constant gamma, and the storage budget. ``safety``
    is the apply policy (see :class:`~repro.core.safety.SafetyPolicy`):
    the default applies freely, ``SafetyPolicy(apply_mode="review")``
    queues every change for a DBA, and a ``regret_bound`` gates
    applies on the benefit ledger.
    """

    def __init__(
        self,
        db: TuningBackend,
        storage_budget: Optional[int] = None,
        template_capacity: int = DEFAULT_TEMPLATE_CAPACITY,
        gamma: float = 0.4,
        mcts_iterations: int = 60,
        rollouts: int = 3,
        top_templates: int = 120,
        use_templates: bool = True,
        seed: int = 17,
        safety: Optional[SafetyPolicy] = None,
    ):
        self.db = db
        self.storage_budget = storage_budget
        self.top_templates = top_templates
        self.use_templates = use_templates
        # The store parses through the backend on raw-cache misses,
        # keeping the engine's statement cache and injected parser
        # faults on the miss path.
        self.store = TemplateStore(
            capacity=template_capacity,
            parse_fn=db.parse_statement,
        )
        self.generator = CandidateGenerator(db)
        self.estimator = BenefitEstimator(db)
        # One seeded stream shared by the whole advisor; the context
        # hands it to every stage so a round's randomness is a single
        # reproducible sequence.
        self.rng = random.Random(seed)
        self.selector = MctsIndexSelector(
            self.estimator,
            gamma=gamma,
            iterations=mcts_iterations,
            rollouts=rollouts,
            seed=seed,
            rng=self.rng,
        )
        self.diagnosis = IndexDiagnosis(db, self.store, self.generator)
        self.pipeline = TuningPipeline()
        # The regret-bounded apply layer: benefit ledger, shadow
        # gate, and the DBA review queue. With the default policy
        # (apply_mode="auto", no regret_bound) the gate never holds a
        # change back — the ledger still records, so enabling a bound
        # later starts from real history.
        policy = safety if safety is not None else SafetyPolicy()
        self.safety = policy.controller()
        self.statements_analyzed = 0
        self.observe_failures = 0
        self._observed_since_training = 0
        self.tuning_history: List[TuningReport] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def observe(self, sql: str) -> Optional[QueryTemplate]:
        """Feed one executed query into SQL2Template.

        With ``use_templates=False`` (the Figure 8 query-level
        ablation) every distinct statement text is analysed
        individually — no workload compression.

        A statement that cannot be parsed (syntax error, or an
        injected parser fault) is dropped and counted in
        ``observe_failures`` — observation is on the hot path of the
        serving workload and must never take it down.

        The store owns the parse now (via its raw-key fast path):
        repeated statement shapes resolve through a lex-only
        normalization and never reach the parser; only cache misses
        parse, through ``db.parse_statement`` with its statement
        cache and fault points intact.
        """
        if self.use_templates:
            try:
                template = self.store.observe(sql)
            except (SqlSyntaxError, FaultError):
                self.observe_failures += 1
                return None
            if template.frequency <= 1.0:
                # Only brand-new templates cost analysis work.
                self.statements_analyzed += 1
            if self.store.drift_detected():
                self.store.handle_drift()
            return template
        # Query-level ablation: no compression, every statement is
        # analysed individually (raw SQL text is the store key).
        try:
            template = self.store.observe_raw(sql)
        except (SqlSyntaxError, FaultError):
            self.observe_failures += 1
            return None
        self.statements_analyzed += 1
        return template

    def observe_queries(self, queries: Sequence) -> None:
        """Observe a batch (items may be Query objects or SQL strings)."""
        for query in queries:
            sql = getattr(query, "sql", query)
            self.observe(sql)

    def record_execution(self, sql: str, actual_cost: float) -> None:
        """Log a (features, measured-cost) training pair.

        Call with a sample of executed queries (the paper samples
        0.01% of the banking workload); the recorded history trains
        the deep estimator on :meth:`train_estimator`.
        """
        statement = self.db.parse_statement(sql)
        self.estimator.record_execution(statement, actual_cost)
        self._observed_since_training += 1

    def train_estimator(self):
        """Fit the deep regression on recorded history (if any)."""
        if not self.estimator.history:
            return None
        metrics = self.estimator.train()
        self._observed_since_training = 0
        return metrics

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save_state(self, directory) -> dict:
        """Persist advisor state (templates + trained estimator).

        Crash-safe: every component is written atomically (temp file
        + fsync + rename), the previous generation is retained under
        ``.prev``, and a checksummed manifest lands last — see
        :mod:`repro.core.checkpoint`. A crash at any point leaves a
        checkpoint :meth:`load_state` can restore. Returns the
        manifest written.

        The policy tree itself is rebuilt cheaply from the saved
        templates on the next tuning round; what must survive a
        restart is the workload knowledge and the learned weights.
        """
        components = {
            "templates.json": json.dumps(self.store.to_dict()).encode(
                "utf-8"
            ),
            # Safety layer + observation window: the benefit ledger's
            # open claims and the post-apply watch list must survive a
            # crash, or a pending auto-revert (and the regret
            # accounting behind the bound) is silently forgotten.
            "safety.json": json.dumps(
                {
                    "safety": self.safety.to_dict(),
                    "watched": self.diagnosis.watched_state(),
                }
            ).encode("utf-8"),
        }
        if isinstance(self.estimator.model, DeepIndexEstimator) and (
            self.estimator.model.trained
        ):
            buffer = io.BytesIO()
            self.estimator.model.save(buffer)
            components["estimator.npz"] = buffer.getvalue()
        return checkpoint.write_checkpoint(
            directory, components, faults=self.db.faults
        )

    def load_state(self, directory) -> checkpoint.CheckpointLoadReport:
        """Restore state saved with :meth:`save_state`.

        Tolerant of truncated, corrupt, or partially-written
        checkpoints: each component independently falls back to its
        previous generation, and a component with no loadable copy is
        skipped (the in-memory state is kept). Never raises; the
        returned report says what was restored from where.
        """
        faults = self.db.faults
        report = checkpoint.CheckpointLoadReport()
        manifest = checkpoint.read_manifest(directory, faults=faults)
        report.manifest_found = manifest is not None
        store = checkpoint.read_component(
            directory,
            "templates.json",
            lambda blob: TemplateStore.from_dict(
                json.loads(blob.decode("utf-8"))
            ),
            manifest,
            report,
            faults=faults,
        )
        if store is not None:
            # The checkpoint carries no raw-key cache (it is a pure
            # derivative); rebind the backend parser for misses and
            # drop the diagnosis caches, which reference the old
            # store's shard versions.
            store.parse_fn = self.db.parse_statement
            self.store = store
            self.diagnosis.store = store
            self.diagnosis.invalidate_caches()
        model = checkpoint.read_component(
            directory,
            "estimator.npz",
            lambda blob: DeepIndexEstimator.load(io.BytesIO(blob)),
            manifest,
            report,
            faults=faults,
        )
        if model is not None:
            self.estimator.model = model
            self.estimator.degraded_reason = None
            self.estimator.clear_cache()
        state = checkpoint.read_component(
            directory,
            "safety.json",
            lambda blob: json.loads(blob.decode("utf-8")),
            manifest,
            report,
            faults=faults,
        )
        if state is not None:
            self.safety.restore(state.get("safety", {}))
            self.diagnosis.restore_watched(state.get("watched", ()))
        return report

    # ------------------------------------------------------------------
    # tuning
    # ------------------------------------------------------------------

    def diagnose(self) -> IndexProblemReport:
        return self.diagnosis.diagnose(
            protected=self.protected_indexes(),
            top_templates=self.top_templates,
        )

    def protected_indexes(self) -> List[IndexDef]:
        """Primary-key / unique indexes are never dropped."""
        return [d for d in self.db.index_defs() if d.unique]

    def make_context(
        self,
        force: bool = True,
        trigger_threshold: float = 0.1,
    ) -> TuningContext:
        """Assemble the shared context for one tuning round."""
        return TuningContext(
            backend=self.db,
            store=self.store,
            generator=self.generator,
            estimator=self.estimator,
            selector=self.selector,
            diagnosis=self.diagnosis,
            rng=self.rng,
            faults=getattr(self.db, "faults", None),
            storage_budget=self.storage_budget,
            top_templates=self.top_templates,
            protected=self.protected_indexes(),
            force=force,
            trigger_threshold=trigger_threshold,
            safety=self.safety,
        )

    # ------------------------------------------------------------------
    # review mode (DBA in the loop)
    # ------------------------------------------------------------------

    def pending_recommendations(self) -> List[PendingRecommendation]:
        """Gated recommendations awaiting a DBA verdict."""
        return self.safety.queue.pending()

    def accept_recommendation(
        self, rec_id: int, note: str = ""
    ) -> PendingRecommendation:
        """DBA accepts: apply the queued change transactionally.

        The apply goes through the same :class:`IndexChangeSet`
        guarantees as an autonomous round (full rollback on
        mid-apply failure, post-apply observation window, benefit
        ledger claim), so an accepted recommendation is exactly as
        accountable as an automatic one.
        """
        rec = self.safety.queue.resolve(rec_id, accept=True, note=note)
        self._apply_accepted(rec)
        return rec

    def reject_recommendation(
        self, rec_id: int, note: str = ""
    ) -> PendingRecommendation:
        """DBA rejects: the change is never applied, and the verdict
        becomes estimator training data (the affected templates are
        labelled with their *current* cost under the rejected
        configuration — "no improvement")."""
        rec = self.safety.queue.resolve(
            rec_id, accept=False, note=note
        )
        self._train_on_rejection(rec)
        return rec

    def process_review_verdicts(self) -> List[PendingRecommendation]:
        """Act on verdicts recorded out of process.

        The review CLI resolves recommendations directly against a
        checkpoint directory; after :meth:`load_state` those arrive
        as accepted/rejected-but-unconsumed entries. Accepted changes
        are applied, rejections are folded into training data.
        """
        processed: List[PendingRecommendation] = []
        for rec in self.safety.queue.unconsumed_verdicts():
            if rec.status == "accepted":
                self._apply_accepted(rec)
            else:
                self._train_on_rejection(rec)
            processed.append(rec)
        return processed

    def regret_summary(self) -> dict:
        """Ledger counters plus the gate's current posture."""
        summary = self.safety.ledger.summary()
        summary["gated_rounds"] = self.safety.gated_rounds
        summary["shadow_only"] = self.safety.shadow_only()
        summary["regret_bound"] = self.safety.regret_bound
        return summary

    def _apply_accepted(self, rec: PendingRecommendation) -> None:
        changeset = IndexChangeSet(self.db)
        try:
            changeset.apply(drops=rec.removals, creates=rec.additions)
        except Exception:
            # Catalog restored; the verdict stays unconsumed so the
            # apply can be retried once the fault clears.
            changeset.rollback()
            raise
        self.diagnosis.register_applied(rec.additions)
        watchable = [d for d in rec.additions if not d.unique]
        for definition in watchable:
            self.safety.ledger.record_prediction(
                definition, rec.predicted_benefit / len(watchable)
            )
        if rec.additions or rec.removals:
            self.db.reset_index_usage()
        rec.consumed = True

    def _train_on_rejection(self, rec: PendingRecommendation) -> None:
        existing = self.db.index_defs()
        removed = {d.key for d in rec.removals}
        candidate = [d for d in existing if d.key not in removed]
        candidate.extend(rec.additions)
        tables = set(rec.explanation.affected_tables) | {
            d.table for d in rec.additions
        } | {d.table for d in rec.removals}
        samples = 0
        for template in self.store.templates(top=self.top_templates):
            if tables and not (set(template.tables) & tables):
                continue
            try:
                current = self.estimator.query_cost(
                    template, existing
                )
                self.estimator.record_template_feedback(
                    template, candidate, current
                )
            except EstimatorUnavailable:
                continue
            samples += 1
        self._observed_since_training += samples
        rec.consumed = True

    def tune(
        self,
        force: bool = True,
        trigger_threshold: float = 0.1,
    ) -> TuningReport:
        """Run one incremental tuning round and apply the result.

        With ``force=False`` the round is skipped unless the diagnosis
        module reports enough index problems (the paper's monitored
        trigger).

        The round runs the staged pipeline (Observe → Diagnose →
        Candidates → Search → Apply; see
        :mod:`repro.core.pipeline`) and is guarded end to end:
        recently-applied indexes whose observation window shows
        regression are reverted first; an unusable estimator turns
        the round into a skipped report with a ``degraded`` reason;
        and the apply itself is transactional — a failure
        mid-sequence rolls the catalog back to exactly the pre-apply
        configuration.

        This facade delegates to :func:`repro.core.lifecycle.run_round`
        — the same entry point the serving daemon's per-tenant
        sessions use — so the library path and the daemon path are
        one code path.
        """
        return run_round(
            self, force=force, trigger_threshold=trigger_threshold
        )
