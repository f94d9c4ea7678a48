"""The staged tuning pipeline: Observe → Diagnose → Candidates → Search → Apply.

One tuning round used to be a single monolithic ``tune()`` method;
here it is decomposed into explicit, composable stages sharing a
:class:`TuningContext`. The context carries everything a round needs —
the backend, the advisor's components, the seeded rng, the fault
plan, the storage budget, the safety controller, and the resilience
counters — so stages stay stateless, and per-shard sessions can later
run whole pipelines concurrently, one context each.

Stage contract: ``run(ctx)`` mutates the context (and the report
inside it) and may set ``ctx.done = True`` to short-circuit the rest
of the round; the pipeline always leaves finalisation (round-delta
counters, history) to the caller via :meth:`TuningContext.finalize`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.candidates import CandidateGenerator, CandidateIndex
from repro.core.changeset import IndexChangeSet
from repro.core.diagnosis import IndexDiagnosis, IndexProblemReport
from repro.core.estimator import BenefitEstimator, EstimatorUnavailable
from repro.core.mcts import MctsIndexSelector, SearchResult
from repro.core.safety import (
    Explanation,
    SafetyController,
    ShadowReport,
    evaluate_shadow,
    explain_change,
)
from repro.core.templates import QueryTemplate, TemplateStore
from repro.engine.faults import FaultInjector
from repro.engine.index import IndexDef
from repro.engine.metrics import Stopwatch
from repro.ports.backend import TuningBackend


@dataclass
class TuningReport:
    """What one tuning round did and what it cost."""

    created: List[IndexDef] = field(default_factory=list)
    dropped: List[IndexDef] = field(default_factory=list)
    estimated_benefit: float = 0.0
    baseline_cost: float = 0.0
    templates_used: int = 0
    candidates_considered: int = 0
    estimator_calls: int = 0
    plans_computed: int = 0
    cache_hit_rate: float = 0.0
    statements_analyzed: int = 0
    elapsed_seconds: float = 0.0
    search: Optional[SearchResult] = None
    skipped: bool = False
    # Resilience counters for the round: estimator predict retries,
    # model→what-if fallbacks, index changes undone (changeset
    # rollback + observation-window auto-reverts), and whether the
    # MCTS evaluation cap cut the search short.
    retries: int = 0
    fallbacks: int = 0
    rolled_back: int = 0
    deadline_hit: bool = False
    degraded: Optional[str] = None
    # Safety layer (regret-bounded apply): whether the shadow gate
    # held this round's change back, why, the review-queue id it was
    # parked under, the analytic shadow margin, and the ledger's
    # cumulative regret after the round.
    gated: bool = False
    gate_reason: str = ""
    queued: Optional[int] = None
    shadow_margin: Optional[float] = None
    cumulative_regret: Optional[float] = None

    @property
    def changed(self) -> bool:
        return bool(self.created or self.dropped)

    def to_dict(self) -> dict:
        """Normalized, timing-free form of the report.

        This is the bit-identical surface of a round: everything a
        round *decided* (index changes, benefits, counters, gate
        outcome) with the two things that legitimately differ between
        replays of the same decision stripped out — wall-clock
        ``elapsed_seconds`` and the in-memory ``search`` object (whose
        decision content is already summarized in the scalar fields).
        The daemon persists this per round, and the serve parity suite
        compares it across the daemon and library paths.
        """
        return {
            "created": [d.to_dict() for d in self.created],
            "dropped": [d.to_dict() for d in self.dropped],
            "estimated_benefit": self.estimated_benefit,
            "baseline_cost": self.baseline_cost,
            "templates_used": self.templates_used,
            "candidates_considered": self.candidates_considered,
            "estimator_calls": self.estimator_calls,
            "plans_computed": self.plans_computed,
            "cache_hit_rate": self.cache_hit_rate,
            "statements_analyzed": self.statements_analyzed,
            "skipped": self.skipped,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "rolled_back": self.rolled_back,
            "deadline_hit": self.deadline_hit,
            "degraded": self.degraded,
            "gated": self.gated,
            "gate_reason": self.gate_reason,
            "queued": self.queued,
            "shadow_margin": self.shadow_margin,
            "cumulative_regret": self.cumulative_regret,
        }

    def render(self) -> str:
        """Human-readable one-round summary (for logs and examples)."""
        if self.skipped:
            if self.degraded:
                return f"tuning skipped (degraded: {self.degraded})"
            return "tuning skipped (no index problems detected)"
        lines = []
        if self.created:
            lines.append(
                "created: " + ", ".join(str(d) for d in self.created)
            )
        if self.dropped:
            lines.append(
                "dropped: " + ", ".join(str(d) for d in self.dropped)
            )
        if not self.changed:
            lines.append("no index changes")
        if self.baseline_cost > 0:
            lines.append(
                f"estimated benefit: {self.estimated_benefit:,.1f} "
                f"of {self.baseline_cost:,.1f} "
                f"({100 * self.estimated_benefit / self.baseline_cost:.1f}%)"
            )
        lines.append(
            f"analysed {self.templates_used} templates, "
            f"{self.candidates_considered} candidates, "
            f"{self.estimator_calls} estimator calls "
            f"({self.plans_computed} plans, "
            f"{100 * self.cache_hit_rate:.0f}% cost-cache hits) "
            f"in {self.elapsed_seconds:.2f}s"
        )
        resilience = []
        if self.retries:
            resilience.append(f"{self.retries} retries")
        if self.fallbacks:
            resilience.append(f"{self.fallbacks} estimator fallbacks")
        if self.rolled_back:
            resilience.append(f"{self.rolled_back} changes rolled back")
        if self.deadline_hit:
            resilience.append("search deadline hit")
        if resilience:
            lines.append("resilience: " + ", ".join(resilience))
        if self.gated:
            target = (
                f" (queued as recommendation #{self.queued})"
                if self.queued is not None
                else ""
            )
            lines.append(f"gated: {self.gate_reason}{target}")
        if self.degraded:
            lines.append(f"degraded: {self.degraded}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CounterSnapshot:
    """Estimator counters at round start (deltas fill the report)."""

    estimate_calls: int = 0
    plans_computed: int = 0
    retries: int = 0
    fallbacks: int = 0

    @classmethod
    def of(cls, estimator: BenefitEstimator) -> "CounterSnapshot":
        return cls(
            estimate_calls=estimator.estimate_calls,
            plans_computed=estimator.plans_computed,
            retries=estimator.retries,
            fallbacks=estimator.fallbacks,
        )


@dataclass
class TuningContext:
    """Everything one tuning round shares across its stages.

    Components (backend, template store, generator, estimator,
    selector, diagnosis) are references to the advisor's long-lived
    objects; the round-scoped state — report, timer, counter
    snapshot, intermediate stage products — lives only here, which is
    what lets several contexts run pipelines side by side later.
    """

    # Long-lived components.
    backend: TuningBackend
    store: TemplateStore
    generator: CandidateGenerator
    estimator: BenefitEstimator
    selector: MctsIndexSelector
    diagnosis: IndexDiagnosis
    #: The regret-bounded apply layer: ledger, gate and review queue.
    safety: SafetyController
    # Round configuration: randomness, faults, budget.
    rng: random.Random = field(default_factory=lambda: random.Random(17))
    faults: Optional[FaultInjector] = None
    storage_budget: Optional[int] = None
    top_templates: int = 120
    protected: List[IndexDef] = field(default_factory=list)
    force: bool = True
    trigger_threshold: float = 0.1
    # Round state.
    report: TuningReport = field(default_factory=TuningReport)
    timer: Stopwatch = field(default_factory=Stopwatch)
    counters: Optional[CounterSnapshot] = None
    templates: Sequence[QueryTemplate] = ()
    candidates: Sequence[CandidateIndex] = ()
    existing: List[IndexDef] = field(default_factory=list)
    problems: Optional[IndexProblemReport] = None
    result: Optional[SearchResult] = None
    shadow: Optional[ShadowReport] = None
    done: bool = False

    def __post_init__(self) -> None:
        if self.counters is None:
            self.counters = CounterSnapshot.of(self.estimator)

    def finalize(self, statements_analyzed: int = 0) -> TuningReport:
        """Fill round-delta counters; returns the finished report."""
        report = self.report
        counters = self.counters
        report.estimator_calls = (
            self.estimator.estimate_calls - counters.estimate_calls
        )
        report.plans_computed = (
            self.estimator.plans_computed - counters.plans_computed
        )
        report.retries = self.estimator.retries - counters.retries
        report.fallbacks = self.estimator.fallbacks - counters.fallbacks
        if report.fallbacks and report.degraded is None:
            report.degraded = self.estimator.degraded_reason
        report.statements_analyzed = statements_analyzed
        report.elapsed_seconds = self.timer.elapsed()
        report.cumulative_regret = self.safety.ledger.cumulative_regret
        return report


class ObserveStage:
    """Settle the observation window before planning anything new.

    Recently-applied indexes whose post-apply window shows regression
    are reverted (the paper's guarded-apply loop). Before any revert
    DDL runs, every window that closed this pass settles its benefit
    ledger claim — the observed benefit is measured with the arm
    still in the catalog. The revert itself goes through a
    transactional changeset (``ddl-create`` in the contract is the
    rollback's re-create): a fault during the revert's own DDL rolls
    the catalog back to exactly the pre-revert state and the
    regressed indexes are re-watched so the revert retries next
    round instead of stranding a half-reverted catalog.
    """

    name = "observe"
    # effect: allows[ddl-drop, ddl-create, cache-invalidate]

    def run(self, ctx: TuningContext) -> None:
        reverted = ctx.diagnosis.check_applied()
        closed = ctx.diagnosis.pop_closed()
        if closed:
            self._settle_ledger(ctx, closed)
        if reverted:
            changeset = IndexChangeSet(ctx.backend)
            try:
                changeset.apply(drops=reverted, creates=[])
            except Exception as exc:
                undone = changeset.rollback()
                ctx.report.rolled_back += undone
                ctx.diagnosis.rewatch(reverted)
                ctx.report.degraded = (
                    f"auto-revert failed after {undone} changes, "
                    f"rolled back: {exc}"
                )
            else:
                ctx.report.dropped.extend(reverted)
                ctx.report.rolled_back += len(reverted)
        ctx.templates = ctx.store.templates(top=ctx.top_templates)

    def _settle_ledger(self, ctx: TuningContext, closed) -> None:
        """Settle benefit-ledger claims for windows that just closed.

        Observed benefit of an arm is the analytic shadow cost of the
        current workload *without* the arm minus the cost *with* it —
        measured before any revert DDL, so both configurations are
        what-if only. Arms without an open claim (e.g. re-watched
        after a failed revert, or applied before the safety layer
        existed) are skipped; an arm that disappeared outside the
        advisor's control has nothing measurable and its claim is
        withdrawn.
        """
        ledger = ctx.safety.ledger
        measurable = []
        for definition, how in closed:
            if not ledger.has_pending(definition):
                continue
            if how == "disappeared":
                ledger.drop_pending(definition)
                continue
            measurable.append(definition)
        if not measurable:
            return
        templates = ctx.store.templates(top=ctx.top_templates)
        config = ctx.backend.index_defs()
        try:
            with_cost = ctx.estimator.shadow_workload_cost(
                templates, config
            )
            for definition in measurable:
                without = [
                    d for d in config if d.key != definition.key
                ]
                without_cost = ctx.estimator.shadow_workload_cost(
                    templates, without
                )
                ledger.record_observation(
                    definition, without_cost - with_cost
                )
        except EstimatorUnavailable:
            # Shadow costing is down (planner faults): settle at face
            # value — predicted == observed charges no regret and
            # records no error, the neutral outcome.
            for definition in measurable:
                predicted = ledger.pending_prediction(definition)
                if predicted is not None:
                    ledger.record_observation(definition, predicted)


class DiagnoseStage:
    """The monitored trigger: skip the round unless problems warrant it."""

    name = "diagnose"
    # effect: allows[]

    def run(self, ctx: TuningContext) -> None:
        if ctx.force:
            return
        problems = ctx.diagnosis.diagnose(
            protected=ctx.protected, top_templates=ctx.top_templates
        )
        ctx.problems = problems
        if not problems.should_tune(ctx.trigger_threshold):
            ctx.report.skipped = True
            ctx.done = True


class CandidateStage:
    """Template-driven candidate generation plus the current index set."""

    name = "candidates"
    # effect: allows[]

    def run(self, ctx: TuningContext) -> None:
        ctx.candidates = ctx.generator.generate(ctx.templates)
        ctx.existing = ctx.backend.index_defs()


class SearchStage:
    """MCTS over add/remove actions under the storage budget.

    An estimator whose degradation ladder is exhausted turns the
    round into a skipped report instead of an exception.
    """

    name = "search"
    # effect: allows[rng]

    def run(self, ctx: TuningContext) -> None:
        try:
            ctx.result = ctx.selector.search(
                existing=ctx.existing,
                candidates=[c.definition for c in ctx.candidates],
                templates=ctx.templates,
                budget_bytes=ctx.storage_budget,
                protected=ctx.protected,
            )
        except EstimatorUnavailable as exc:
            ctx.report.skipped = True
            ctx.report.degraded = str(exc)
            ctx.done = True


def _fill_search_summary(ctx: TuningContext, result) -> None:
    """Round-summary fields shared by the shadow gate and the apply."""
    report = ctx.report
    report.estimated_benefit = result.best_benefit
    report.baseline_cost = result.baseline_cost
    report.templates_used = len(ctx.templates)
    report.candidates_considered = len(ctx.candidates)
    report.cache_hit_rate = result.cache_stats["cost"].hit_rate
    report.search = result
    report.deadline_hit = result.deadline_hit


class ShadowStage:
    """Shadow evaluation: judge the candidate before any DDL exists.

    Costs the current and candidate configurations on the round's
    template stream through hypothetical what-if indexes only —
    nothing here touches the catalog, which is exactly what the empty
    effect contract proves. When the :class:`SafetyController` gates
    the change (margin below historical estimator error, regret
    budget exhausted, or review/shadow mode), the recommendation is
    parked in the review queue with a per-template explanation and
    the round ends without applying; a gated round deliberately does
    not reset the store's tuning window, since the workload the
    recommendation was judged against is still the one awaiting a
    verdict.
    """

    name = "shadow"
    # effect: allows[]

    def run(self, ctx: TuningContext) -> None:
        result = ctx.result
        assert result is not None, "SearchStage must run before ShadowStage"
        safety = ctx.safety
        if not result.additions and not result.removals:
            return  # nothing to gate; ApplyStage finishes the report
        try:
            shadow = evaluate_shadow(
                ctx.estimator,
                ctx.templates,
                ctx.existing,
                result.additions,
                result.removals,
            )
        except EstimatorUnavailable as exc:
            shadow = ShadowReport(unavailable=True, note=str(exc))
        ctx.shadow = shadow
        report = ctx.report
        if not shadow.unavailable:
            report.shadow_margin = shadow.margin
        decision = safety.decide(shadow)
        if decision.action == "apply":
            return
        if shadow.unavailable:
            # Costing is down; the queue entry still names the change
            # and its tables so the DBA sees what was held back.
            explanation = Explanation(
                affected_tables=sorted(
                    {d.table for d in result.additions}
                    | {d.table for d in result.removals}
                )
            )
        else:
            explanation = explain_change(
                ctx.estimator,
                ctx.templates,
                ctx.existing,
                result.additions,
                result.removals,
            )
        rec = safety.queue.submit(
            additions=result.additions,
            removals=result.removals,
            predicted_benefit=(
                shadow.predicted_benefit
                if not shadow.unavailable
                else result.best_benefit
            ),
            shadow_margin=(
                shadow.margin if not shadow.unavailable else None
            ),
            reason=decision.reason,
            explanation=explanation,
        )
        safety.gated_rounds += 1
        report.gated = True
        report.gate_reason = decision.reason
        report.queued = rec.rec_id
        _fill_search_summary(ctx, result)
        ctx.done = True


class ApplyStage:
    """Transactional DDL apply with full rollback on mid-apply failure."""

    name = "apply"
    # effect: allows[ddl-create, ddl-drop, cache-invalidate, usage-reset, store-write]

    def run(self, ctx: TuningContext) -> None:
        result = ctx.result
        report = ctx.report
        assert result is not None, "SearchStage must run before ApplyStage"
        changeset = IndexChangeSet(ctx.backend)
        try:
            changeset.apply(
                drops=result.removals, creates=result.additions
            )
        except Exception as exc:
            # Any DDL failure (including injected index-build faults)
            # must leave the catalog in exactly the before state.
            undone = changeset.rollback()
            report.rolled_back += undone
            report.degraded = (
                f"apply failed after {undone} changes, rolled back: {exc}"
            )
        else:
            report.created = list(result.additions)
            report.dropped.extend(result.removals)
            ctx.diagnosis.register_applied(result.additions)
            self._open_claims(ctx, result)
            if result.additions or result.removals:
                ctx.backend.reset_index_usage()

        _fill_search_summary(ctx, result)
        ctx.store.begin_tuning_window()

    def _open_claims(self, ctx: TuningContext, result) -> None:
        """Record each applied arm's predicted benefit in the ledger.

        The per-arm split comes from the shadow evaluation when it
        ran; without one (nothing to gate, or costing down) the
        search's total benefit is split evenly across the
        additions — deterministic, and settled against real
        observations either way. Unique (constraint) indexes never
        enter the observation window, so no claim is opened for them.
        """
        ledger = ctx.safety.ledger
        watchable = [d for d in result.additions if not d.unique]
        if not watchable:
            return
        per_arm = {}
        if ctx.shadow is not None and not ctx.shadow.unavailable:
            per_arm = {
                d.key: benefit for d, benefit in ctx.shadow.per_arm
            }
        fallback = result.best_benefit / len(watchable)
        for definition in watchable:
            ledger.record_prediction(
                definition, per_arm.get(definition.key, fallback)
            )


class TuningPipeline:
    """Run the paper's round stage by stage, in order, stopping early
    when a stage ends the round."""

    def __init__(self) -> None:
        self.stages: List = [
            ObserveStage(),
            DiagnoseStage(),
            CandidateStage(),
            SearchStage(),
            ShadowStage(),
            ApplyStage(),
        ]

    def run(self, ctx: TuningContext) -> TuningContext:
        for stage in self.stages:
            if ctx.done:
                break
            stage.run(ctx)
        return ctx
