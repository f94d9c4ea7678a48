"""The regret-bounded apply layer: ledger, shadow gate, review queue.

The paper's tuner applies DDL whenever the estimator predicts benefit;
the post-apply observation window (auto-revert) is the only defense
against a wrong prediction. This module adds the accounting that makes
every apply *regret-bounded*, in the DBA-bandits sense: each applied
index is a bandit arm, the estimator's predicted benefit is the arm's
claimed reward, and the benefit actually observed over the arm's
observation window settles the claim.

Three pieces cooperate:

* :class:`BenefitLedger` — persistent per-arm accounting of predicted
  vs. observed benefit, empirical |error|, and a cumulative-regret
  counter (regret = benefit claimed but not delivered). It survives
  crash/restore through the advisor's checkpoint machinery.
* :class:`SafetyController` — the gate. Before any DDL, the shadow
  evaluation (:func:`evaluate_shadow`) costs the current and candidate
  configurations on the recent template stream via hypothetical
  what-if indexes; the controller queues (instead of applies) any
  change whose shadow margin is smaller than the ledger's historical
  error for similar arms, and degrades the advisor to shadow-only —
  recommend, never apply — once cumulative regret plus worst-case
  pending exposure would exceed the configured bound.
* :class:`ReviewQueue` — the DBA-in-the-loop half. Gated
  recommendations are queued with an :class:`Explanation` (per-template
  benefit breakdown, write-cost delta, affected tables) behind an
  accept/reject API; verdicts feed back into the estimator's training
  history.

Gating is active only when the advisor is configured for it
(``apply_mode != "auto"`` or a ``regret_bound`` is set); the ledger
itself always records, so switching a long-running advisor into a
bounded mode starts from real history rather than from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import BenefitEstimator
from repro.core.templates import QueryTemplate
from repro.engine.index import IndexDef

__all__ = [
    "ArmStats",
    "BenefitLedger",
    "Explanation",
    "GateDecision",
    "PendingRecommendation",
    "ReviewQueue",
    "SafetyController",
    "SafetyPolicy",
    "ShadowReport",
    "TemplateImpact",
    "evaluate_shadow",
    "explain_change",
]


# ---------------------------------------------------------------------------
# per-tenant policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafetyPolicy:
    """Per-tenant apply/regret configuration.

    The serving daemon maps every tenant to its own policy; each
    tenant then gets an *independent* :class:`SafetyController` — its
    own ledger, its own review queue, its own regret budget — so one
    tenant burning through its bound can never gate another tenant's
    applies, and a DBA verdict on one tenant's queue never leaks into
    a neighbour's training data.  The library path passes one to
    :class:`~repro.core.advisor.AutoIndexAdvisor` the same way.
    """

    apply_mode: str = "auto"
    regret_bound: Optional[float] = None
    regret_headroom: float = 1.0
    gate_min_observations: int = 1

    def controller(self) -> "SafetyController":
        """A fresh, independent controller honouring this policy."""
        return SafetyController(
            apply_mode=self.apply_mode,
            regret_bound=self.regret_bound,
            regret_headroom=self.regret_headroom,
            gate_min_observations=self.gate_min_observations,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "apply_mode": self.apply_mode,
            "regret_bound": self.regret_bound,
            "regret_headroom": self.regret_headroom,
            "gate_min_observations": self.gate_min_observations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SafetyPolicy":
        bound = data.get("regret_bound")
        return cls(
            apply_mode=str(data.get("apply_mode", "auto")),
            regret_bound=(
                float(bound) if bound is not None else None  # type: ignore[arg-type]
            ),
            regret_headroom=float(data.get("regret_headroom", 1.0)),  # type: ignore[arg-type]
            gate_min_observations=int(
                data.get("gate_min_observations", 1)  # type: ignore[arg-type]
            ),
        )


# ---------------------------------------------------------------------------
# benefit ledger (bandit arms)
# ---------------------------------------------------------------------------


@dataclass
class ArmStats:
    """Settled accounting for one bandit arm (one applied index)."""

    definition: IndexDef
    samples: int = 0
    predicted_total: float = 0.0
    observed_total: float = 0.0
    abs_error_total: float = 0.0
    regret_total: float = 0.0

    @property
    def mean_abs_error(self) -> float:
        return self.abs_error_total / max(self.samples, 1)

    def to_dict(self) -> Dict[str, object]:
        return {
            "definition": self.definition.to_dict(),
            "samples": self.samples,
            "predicted_total": self.predicted_total,
            "observed_total": self.observed_total,
            "abs_error_total": self.abs_error_total,
            "regret_total": self.regret_total,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArmStats":
        return cls(
            definition=IndexDef.from_dict(data["definition"]),  # type: ignore[arg-type]
            samples=int(data["samples"]),  # type: ignore[arg-type]
            predicted_total=float(data["predicted_total"]),  # type: ignore[arg-type]
            observed_total=float(data["observed_total"]),  # type: ignore[arg-type]
            abs_error_total=float(data["abs_error_total"]),  # type: ignore[arg-type]
            regret_total=float(data["regret_total"]),  # type: ignore[arg-type]
        )


class BenefitLedger:
    """Predicted-vs-observed benefit accounting, per applied index.

    ``record_prediction`` opens a claim when an index is applied;
    ``record_observation`` settles it when the index's observation
    window closes. The per-arm |predicted − observed| history is what
    the shadow gate compares margins against, with an arm → same-table
    → global fallback so a brand-new arm is judged by the closest
    history available.
    """

    # cache-keys: fields[_arms, _pending] invalidator[_touch]

    def __init__(self) -> None:
        #: arm key → settled stats.
        self._arms: Dict[Tuple, ArmStats] = {}
        #: arm key → (definition, predicted benefit awaiting settle).
        self._pending: Dict[Tuple, Tuple[IndexDef, float]] = {}
        self._version = 0
        #: derived error lookups, keyed on the fallback level; any
        #: write to the accounting fields flushes it via ``_touch``.
        self._error_memo: Dict[Tuple, Optional[float]] = {}

    def _touch(self) -> None:
        self._version += 1
        self._error_memo.clear()

    # -- recording -----------------------------------------------------------

    def record_prediction(
        self, definition: IndexDef, predicted: float
    ) -> None:
        """Open a claim: ``definition`` was applied expecting benefit."""
        self._pending[definition.key] = (definition, float(predicted))
        self._touch()

    def record_observation(
        self, definition: IndexDef, observed: float
    ) -> float:
        """Settle a claim with the benefit actually observed.

        Returns the regret charged for this arm: the part of the
        predicted benefit that did not materialise, never negative —
        an index that over-delivers earns no credit to gamble with
        later.
        """
        key = definition.key
        _, predicted = self._pending.pop(key, (definition, 0.0))
        arm = self._arms.get(key)
        if arm is None:
            arm = ArmStats(definition=definition)
            self._arms[key] = arm
        arm.samples += 1
        arm.predicted_total += predicted
        arm.observed_total += float(observed)
        arm.abs_error_total += abs(predicted - float(observed))
        regret = max(predicted - float(observed), 0.0)
        arm.regret_total += regret
        self._touch()
        return regret

    def drop_pending(self, definition: IndexDef) -> None:
        """Withdraw a claim (the index disappeared unobserved)."""
        self._pending.pop(definition.key, None)
        self._touch()

    # -- queries -------------------------------------------------------------

    def has_pending(self, definition: IndexDef) -> bool:
        return definition.key in self._pending

    def pending_prediction(
        self, definition: IndexDef
    ) -> Optional[float]:
        entry = self._pending.get(definition.key)
        return entry[1] if entry is not None else None

    def pending_exposure(self) -> float:
        """Worst-case regret still open: sum of unsettled claims."""
        return sum(
            max(predicted, 0.0)
            for _, predicted in self._pending.values()
        )

    @property
    def cumulative_regret(self) -> float:
        return sum(
            arm.regret_total for arm in self._arms.values()
        )

    @property
    def observations(self) -> int:
        return sum(arm.samples for arm in self._arms.values())

    def error_for(self, definition: IndexDef) -> Optional[float]:
        """Historical |predicted − observed| for the closest arms.

        Fallback ladder: this exact arm → arms on the same table →
        all arms; ``None`` when the ledger has no settled history at
        all (a fresh ledger must not gate anything).
        """
        memo_key = ("arm", definition.key)
        if memo_key in self._error_memo:
            return self._error_memo[memo_key]
        arm = self._arms.get(definition.key)
        if arm is not None and arm.samples > 0:
            result: Optional[float] = arm.mean_abs_error
        else:
            result = self._pooled_error(definition.table)
            if result is None:
                result = self._pooled_error(None)
        self._error_memo[memo_key] = result
        return result

    def _pooled_error(self, table: Optional[str]) -> Optional[float]:
        total = 0.0
        samples = 0
        for arm in self._arms.values():
            if table is not None and arm.definition.table != table:
                continue
            total += arm.abs_error_total
            samples += arm.samples
        if samples == 0:
            return None
        return total / samples

    def summary(self) -> Dict[str, object]:
        """Counters for reports and bench output."""
        return {
            "arms": len(self._arms),
            "observations": self.observations,
            "pending": len(self._pending),
            "pending_exposure": self.pending_exposure(),
            "cumulative_regret": self.cumulative_regret,
        }

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "arms": [arm.to_dict() for arm in self._arms.values()],
            "pending": [
                {
                    "definition": definition.to_dict(),
                    "predicted": predicted,
                }
                for definition, predicted in self._pending.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenefitLedger":
        ledger = cls()
        for entry in data.get("arms", ()):  # type: ignore[union-attr]
            arm = ArmStats.from_dict(entry)
            ledger._arms[arm.definition.key] = arm
        for entry in data.get("pending", ()):  # type: ignore[union-attr]
            definition = IndexDef.from_dict(entry["definition"])
            ledger._pending[definition.key] = (
                definition,
                float(entry["predicted"]),
            )
        ledger._touch()
        return ledger


# ---------------------------------------------------------------------------
# shadow evaluation
# ---------------------------------------------------------------------------


@dataclass
class ShadowReport:
    """What the pre-DDL shadow evaluation saw.

    ``current_cost`` / ``candidate_cost`` are *analytic* what-if
    workload costs (model-independent: planned features summed with
    the paper's static formula), so the margin is judged with a
    yardstick the trained model cannot bend. ``model_*`` are the
    estimator's own predictions; their difference, split per added
    arm in ``per_arm``, is what the ledger records as each claim.
    """

    current_cost: float = 0.0
    candidate_cost: float = 0.0
    model_current: float = 0.0
    model_candidate: float = 0.0
    #: (definition, model-predicted marginal benefit) per added index.
    per_arm: List[Tuple[IndexDef, float]] = field(default_factory=list)
    unavailable: bool = False
    note: str = ""

    @property
    def margin(self) -> float:
        """Analytic benefit of the candidate over the current config."""
        return self.current_cost - self.candidate_cost

    @property
    def predicted_benefit(self) -> float:
        """Model-predicted benefit of the whole change."""
        return self.model_current - self.model_candidate


def evaluate_shadow(
    estimator: BenefitEstimator,
    templates: Sequence[QueryTemplate],
    existing: Sequence[IndexDef],
    additions: Sequence[IndexDef],
    removals: Sequence[IndexDef],
) -> ShadowReport:
    """Cost current vs. candidate configs before any DDL runs.

    Everything here goes through hypothetical what-if indexes (the
    planner never sees a real B+Tree build), so the evaluation is
    read-only and safe to run on every round. Raises
    :class:`~repro.core.estimator.EstimatorUnavailable` when planning
    itself is down; callers decide whether that gates or waves through.
    """
    removed = {d.key for d in removals}
    candidate = [d for d in existing if d.key not in removed]
    candidate.extend(additions)
    report = ShadowReport(
        current_cost=estimator.shadow_workload_cost(templates, existing),
        candidate_cost=estimator.shadow_workload_cost(
            templates, candidate
        ),
        model_current=estimator.workload_cost(templates, existing),
        model_candidate=estimator.workload_cost(templates, candidate),
    )
    for definition in additions:
        without = [d for d in candidate if d.key != definition.key]
        report.per_arm.append(
            (
                definition,
                estimator.workload_cost(templates, without)
                - report.model_candidate,
            )
        )
    return report


# ---------------------------------------------------------------------------
# explanations (what the DBA sees in the review queue)
# ---------------------------------------------------------------------------


@dataclass
class TemplateImpact:
    """Per-template cost shift of a recommended change."""

    fingerprint: str
    sample_sql: str
    is_write: bool
    current_cost: float
    candidate_cost: float

    @property
    def delta(self) -> float:
        return self.current_cost - self.candidate_cost

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "sample_sql": self.sample_sql,
            "is_write": self.is_write,
            "current_cost": self.current_cost,
            "candidate_cost": self.candidate_cost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TemplateImpact":
        return cls(
            fingerprint=str(data["fingerprint"]),
            sample_sql=str(data["sample_sql"]),
            is_write=bool(data["is_write"]),
            current_cost=float(data["current_cost"]),  # type: ignore[arg-type]
            candidate_cost=float(data["candidate_cost"]),  # type: ignore[arg-type]
        )


@dataclass
class Explanation:
    """Why the advisor recommends a change (per-template breakdown)."""

    per_template: List[TemplateImpact] = field(default_factory=list)
    write_cost_delta: float = 0.0
    affected_tables: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "per_template": [t.to_dict() for t in self.per_template],
            "write_cost_delta": self.write_cost_delta,
            "affected_tables": list(self.affected_tables),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Explanation":
        return cls(
            per_template=[
                TemplateImpact.from_dict(entry)
                for entry in data.get("per_template", ())  # type: ignore[union-attr]
            ],
            write_cost_delta=float(data.get("write_cost_delta", 0.0)),  # type: ignore[arg-type]
            affected_tables=list(data.get("affected_tables", ())),  # type: ignore[arg-type]
        )

    def render(self, top: int = 8) -> str:
        lines = [
            "affected tables: "
            + (", ".join(self.affected_tables) or "(none)"),
            f"write-cost delta: {self.write_cost_delta:+,.1f}",
        ]
        impacts = sorted(
            self.per_template,
            key=lambda t: abs(t.delta),
            reverse=True,
        )[:top]
        for impact in impacts:
            kind = "write" if impact.is_write else "read"
            lines.append(
                f"  {impact.delta:+12,.1f}  [{kind}] "
                f"{impact.sample_sql[:70]}"
            )
        return "\n".join(lines)


def explain_change(
    estimator: BenefitEstimator,
    templates: Sequence[QueryTemplate],
    existing: Sequence[IndexDef],
    additions: Sequence[IndexDef],
    removals: Sequence[IndexDef],
    top: int = 16,
) -> Explanation:
    """Per-template benefit breakdown for a recommended change."""
    removed = {d.key for d in removals}
    candidate = [d for d in existing if d.key not in removed]
    candidate.extend(additions)
    current = estimator.workload_costs(templates, existing)
    future = estimator.workload_costs(templates, candidate)
    impacts: List[TemplateImpact] = []
    write_delta = 0.0
    for i, template in enumerate(templates):
        cur, cand = float(current[i]), float(future[i])
        if template.is_write:
            write_delta += cand - cur
        if cur == cand:
            continue
        impacts.append(
            TemplateImpact(
                fingerprint=template.fingerprint,
                sample_sql=template.sample_sql or template.fingerprint,
                is_write=template.is_write,
                current_cost=cur,
                candidate_cost=cand,
            )
        )
    impacts.sort(key=lambda t: abs(t.delta), reverse=True)
    tables = sorted(
        {d.table for d in additions} | {d.table for d in removals}
    )
    return Explanation(
        per_template=impacts[:top],
        write_cost_delta=write_delta,
        affected_tables=tables,
    )


# ---------------------------------------------------------------------------
# review queue (DBA in the loop)
# ---------------------------------------------------------------------------


@dataclass
class PendingRecommendation:
    """One gated recommendation awaiting (or carrying) a DBA verdict."""

    rec_id: int
    additions: List[IndexDef]
    removals: List[IndexDef]
    predicted_benefit: float
    shadow_margin: Optional[float]
    reason: str
    explanation: Explanation
    status: str = "pending"  # pending | accepted | rejected
    verdict_note: str = ""
    #: set once the advisor has acted on the verdict (applied the
    #: accepted change / trained on the rejected one).
    consumed: bool = False

    @property
    def change_key(self) -> Tuple:
        return (
            tuple(sorted(d.key for d in self.additions)),
            tuple(sorted(d.key for d in self.removals)),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rec_id": self.rec_id,
            "additions": [d.to_dict() for d in self.additions],
            "removals": [d.to_dict() for d in self.removals],
            "predicted_benefit": self.predicted_benefit,
            "shadow_margin": self.shadow_margin,
            "reason": self.reason,
            "explanation": self.explanation.to_dict(),
            "status": self.status,
            "verdict_note": self.verdict_note,
            "consumed": self.consumed,
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, object]
    ) -> "PendingRecommendation":
        margin = data.get("shadow_margin")
        return cls(
            rec_id=int(data["rec_id"]),  # type: ignore[arg-type]
            additions=[
                IndexDef.from_dict(d)
                for d in data.get("additions", ())  # type: ignore[union-attr]
            ],
            removals=[
                IndexDef.from_dict(d)
                for d in data.get("removals", ())  # type: ignore[union-attr]
            ],
            predicted_benefit=float(data.get("predicted_benefit", 0.0)),  # type: ignore[arg-type]
            shadow_margin=(
                float(margin) if margin is not None else None  # type: ignore[arg-type]
            ),
            reason=str(data.get("reason", "")),
            explanation=Explanation.from_dict(
                data.get("explanation", {})  # type: ignore[arg-type]
            ),
            status=str(data.get("status", "pending")),
            verdict_note=str(data.get("verdict_note", "")),
            consumed=bool(data.get("consumed", False)),
        )

    def render(self) -> str:
        heading = [
            f"recommendation #{self.rec_id} [{self.status}]",
            "  create: "
            + (", ".join(str(d) for d in self.additions) or "(none)"),
            "  drop:   "
            + (", ".join(str(d) for d in self.removals) or "(none)"),
            f"  predicted benefit: {self.predicted_benefit:,.1f}"
            + (
                f", shadow margin: {self.shadow_margin:,.1f}"
                if self.shadow_margin is not None
                else ""
            ),
            f"  gated because: {self.reason}",
        ]
        body = self.explanation.render()
        return "\n".join(heading) + "\n" + body


class ReviewQueue:
    """Accept/reject queue for gated recommendations."""

    def __init__(self) -> None:
        self._items: Dict[int, PendingRecommendation] = {}
        self._next_id = 1

    def submit(
        self,
        additions: Sequence[IndexDef],
        removals: Sequence[IndexDef],
        predicted_benefit: float,
        shadow_margin: Optional[float],
        reason: str,
        explanation: Explanation,
    ) -> PendingRecommendation:
        """Queue a recommendation; identical pending changes dedup."""
        rec = PendingRecommendation(
            rec_id=self._next_id,
            additions=list(additions),
            removals=list(removals),
            predicted_benefit=predicted_benefit,
            shadow_margin=shadow_margin,
            reason=reason,
            explanation=explanation,
        )
        for existing in self._items.values():
            if (
                existing.status == "pending"
                and existing.change_key == rec.change_key
            ):
                existing.reason = reason
                existing.predicted_benefit = predicted_benefit
                existing.shadow_margin = shadow_margin
                existing.explanation = explanation
                return existing
        self._items[rec.rec_id] = rec
        self._next_id += 1
        return rec

    def get(self, rec_id: int) -> PendingRecommendation:
        if rec_id not in self._items:
            raise KeyError(f"no recommendation #{rec_id}")
        return self._items[rec_id]

    def pending(self) -> List[PendingRecommendation]:
        return [
            rec
            for rec in self._items.values()
            if rec.status == "pending"
        ]

    def all_items(self) -> List[PendingRecommendation]:
        return list(self._items.values())

    def resolve(
        self, rec_id: int, accept: bool, note: str = ""
    ) -> PendingRecommendation:
        rec = self.get(rec_id)
        if rec.status != "pending":
            raise ValueError(
                f"recommendation #{rec_id} already {rec.status}"
            )
        rec.status = "accepted" if accept else "rejected"
        rec.verdict_note = note
        return rec

    def unconsumed_verdicts(self) -> List[PendingRecommendation]:
        """Resolved recommendations the advisor has not acted on yet."""
        return [
            rec
            for rec in self._items.values()
            if rec.status != "pending" and not rec.consumed
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "next_id": self._next_id,
            "items": [
                rec.to_dict() for rec in self._items.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReviewQueue":
        queue = cls()
        for entry in data.get("items", ()):  # type: ignore[union-attr]
            rec = PendingRecommendation.from_dict(entry)
            queue._items[rec.rec_id] = rec
        queue._next_id = int(data.get("next_id", 1))  # type: ignore[arg-type]
        if queue._items:
            queue._next_id = max(
                queue._next_id, max(queue._items) + 1
            )
        return queue


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateDecision:
    action: str  # "apply" | "queue"
    reason: str = ""


class SafetyController:
    """Decides, per round, whether a recommended change may be applied.

    ``apply_mode``:

    * ``"auto"`` — apply freely; with a ``regret_bound`` set, the
      budget check and the margin-vs-historical-error gate activate.
    * ``"review"`` — never apply autonomously; every recommendation
      is queued for a DBA verdict.
    * ``"shadow"`` — observe and recommend only, applies disabled.

    The budget check is conservative: an apply is allowed only if the
    regret already settled, plus the worst case of every still-open
    claim, plus this change's own claim (padded by the historical
    error of its arms), stays under the bound. Once that fails the
    advisor behaves shadow-only until claims settle in its favour.
    """

    def __init__(
        self,
        apply_mode: str = "auto",
        regret_bound: Optional[float] = None,
        regret_headroom: float = 1.0,
        gate_min_observations: int = 1,
    ) -> None:
        if apply_mode not in ("auto", "review", "shadow"):
            raise ValueError(
                f"apply_mode must be auto, review, or shadow; "
                f"got {apply_mode!r}"
            )
        self.apply_mode = apply_mode
        self.regret_bound = regret_bound
        self.regret_headroom = regret_headroom
        self.gate_min_observations = gate_min_observations
        self.ledger = BenefitLedger()
        self.queue = ReviewQueue()
        self.gated_rounds = 0

    def gating_active(self) -> bool:
        return self.apply_mode != "auto" or self.regret_bound is not None

    def shadow_only(self) -> bool:
        """True when no apply can currently fit the regret budget."""
        if self.apply_mode == "shadow":
            return True
        if self.regret_bound is None:
            return False
        spent = (
            self.ledger.cumulative_regret
            + self.ledger.pending_exposure()
        )
        return spent >= self.regret_bound

    def decide(self, shadow: ShadowReport) -> GateDecision:
        if self.apply_mode == "review":
            return GateDecision("queue", "review mode: DBA approval required")
        if self.apply_mode == "shadow":
            return GateDecision("queue", "shadow-only mode: applies disabled")
        if self.regret_bound is None:
            return GateDecision("apply")
        if shadow.unavailable:
            return GateDecision(
                "queue",
                f"shadow evaluation unavailable ({shadow.note}); "
                "not gambling under a regret bound",
            )
        spent = (
            self.ledger.cumulative_regret
            + self.ledger.pending_exposure()
        )
        charge = 0.0
        for definition, predicted in shadow.per_arm:
            error = self.ledger.error_for(definition)
            charge += max(predicted, 0.0)
            charge += self.regret_headroom * (error or 0.0)
        if spent + charge > self.regret_bound:
            return GateDecision(
                "queue",
                f"regret budget: settled+pending {spent:,.1f} plus "
                f"worst-case charge {charge:,.1f} exceeds bound "
                f"{self.regret_bound:,.1f}",
            )
        threshold = self._margin_threshold(shadow)
        if threshold is not None and shadow.margin < threshold:
            return GateDecision(
                "queue",
                f"shadow margin {shadow.margin:,.1f} below historical "
                f"estimator error {threshold:,.1f} for similar arms",
            )
        return GateDecision("apply")

    def _margin_threshold(
        self, shadow: ShadowReport
    ) -> Optional[float]:
        """Combined historical error of the arms being applied."""
        if self.ledger.observations < self.gate_min_observations:
            return None
        errors = [
            self.ledger.error_for(definition)
            for definition, _ in shadow.per_arm
        ]
        known = [e for e in errors if e is not None]
        if not known:
            return None
        return sum(known)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "apply_mode": self.apply_mode,
            "regret_bound": self.regret_bound,
            "ledger": self.ledger.to_dict(),
            "queue": self.queue.to_dict(),
            "gated_rounds": self.gated_rounds,
        }

    def restore(self, data: Dict[str, object]) -> None:
        """Adopt persisted ledger/queue state (mode knobs stay as
        constructed — a restart may deliberately change them)."""
        self.ledger = BenefitLedger.from_dict(
            data.get("ledger", {})  # type: ignore[arg-type]
        )
        self.queue = ReviewQueue.from_dict(
            data.get("queue", {})  # type: ignore[arg-type]
        )
        self.gated_rounds = int(data.get("gated_rounds", 0))  # type: ignore[arg-type]
