"""Round lifecycle: who owns a tuning round, and when rounds fire.

:mod:`repro.core.pipeline` owns round *orchestration* — the staged
Observe → Diagnose → Candidates → Search → Apply walk over one shared
:class:`~repro.core.pipeline.TuningContext`.  This module owns the
round *lifecycle*: the decision that a round is due, the accounting of
how many rounds an owner may still spend, and the act of running one
round against an advisor's components.

Two callers share it:

* the library path — :meth:`AutoIndexAdvisor.tune` delegates to
  :func:`run_round`, so a hand-driven advisor and a daemon-driven one
  execute byte-for-byte the same orchestration;
* the serving daemon — :class:`repro.serve.registry.TenantRegistry`
  wraps each tenant's advisor in a :class:`TuningSession`, whose
  :class:`RoundPolicy` decides *when* rounds fire from the ingest
  stream and whose :class:`RoundBudget` caps how many rounds the
  tenant may consume.

The split is what makes the daemon's determinism contract provable:
a session that fires rounds at the same statement offsets as a manual
``observe()``/``tune()`` loop produces identical reports, because the
only thing the session adds is the firing decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.pipeline import TuningReport
from repro.core.templates import QueryTemplate

if TYPE_CHECKING:
    from repro.core.advisor import AutoIndexAdvisor

__all__ = [
    "RoundBudget",
    "RoundPolicy",
    "TuningSession",
    "run_round",
]


def run_round(
    advisor: "AutoIndexAdvisor",
    force: bool = True,
    trigger_threshold: float = 0.1,
) -> TuningReport:
    """Run one tuning round against an advisor's components.

    This is the single place a round is born: assemble the shared
    context from the advisor's long-lived components, run the staged
    pipeline over it, finalize the report, and record it in the
    advisor's history.  Both the library ``tune()`` facade and the
    daemon's per-tenant sessions call through here, which is the
    parity guarantee between the two paths.
    """
    ctx = advisor.make_context(
        force=force, trigger_threshold=trigger_threshold
    )
    advisor.pipeline.run(ctx)
    report = ctx.finalize(advisor.statements_analyzed)
    advisor.tuning_history.append(report)
    return report


@dataclass(frozen=True)
class RoundPolicy:
    """When does a round fire for a continuously-ingesting owner?

    ``every_statements`` fires a round each time that many statements
    have been ingested since the last round; ``min_statements`` holds
    the very first round back until the store has seen enough of the
    workload to be worth diagnosing.  ``force``/``trigger_threshold``
    are passed through to the round (``force=False`` keeps the
    paper's monitored trigger in charge — a due round may still be
    skipped by diagnosis).
    """

    every_statements: int = 500
    min_statements: int = 1
    force: bool = True
    trigger_threshold: float = 0.1

    def __post_init__(self) -> None:
        if self.every_statements < 1:
            raise ValueError("every_statements must be >= 1")
        if self.min_statements < 0:
            raise ValueError("min_statements must be >= 0")


@dataclass
class RoundBudget:
    """How many rounds an owner may still spend (``None`` = unlimited).

    The daemon's admission control charges one unit per round *when
    the round runs* — a due-but-never-admitted round costs nothing.
    """

    limit: Optional[int] = None
    spent: int = 0

    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit

    def charge(self) -> None:
        if self.exhausted():
            raise RuntimeError(
                f"round budget exhausted ({self.spent}/{self.limit})"
            )
        self.spent += 1

    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return max(self.limit - self.spent, 0)


class TuningSession:
    """One advisor's round lifecycle over a continuous query stream.

    Owns the ingest counter, the due-round decision, and the round
    budget for a single advisor (one tenant, in the daemon).  It never
    fires a round by itself — callers ask :meth:`due` and invoke
    :meth:`run_round` when admission control says so, which keeps the
    firing schedule in the scheduler's hands and the session
    deterministic: its state is a pure function of the ingest sequence
    and the rounds run so far.
    """

    def __init__(
        self,
        advisor: "AutoIndexAdvisor",
        policy: Optional[RoundPolicy] = None,
        budget: Optional[RoundBudget] = None,
    ):
        self.advisor = advisor
        self.policy = policy if policy is not None else RoundPolicy()
        self.budget = budget if budget is not None else RoundBudget()
        self.ingested = 0
        self.ingested_at_last_round = 0
        self.rounds_completed = 0
        self.last_report: Optional[TuningReport] = None

    def ingest(self, sql: str) -> Optional[QueryTemplate]:
        """Feed one statement to the advisor's observer."""
        template = self.advisor.observe(sql)
        self.ingested += 1
        return template

    def pending_statements(self) -> int:
        """Statements ingested since the last round fired."""
        return self.ingested - self.ingested_at_last_round

    def due(self) -> bool:
        """True when the policy says a round should fire now."""
        if self.budget.exhausted():
            return False
        if self.ingested < self.policy.min_statements:
            return False
        return self.pending_statements() >= self.policy.every_statements

    def run_round(self) -> TuningReport:
        """Run one round now (charging the budget); callers are
        expected to have won admission first."""
        self.budget.charge()
        self.ingested_at_last_round = self.ingested
        report = run_round(
            self.advisor,
            force=self.policy.force,
            trigger_threshold=self.policy.trigger_threshold,
        )
        self.rounds_completed += 1
        self.last_report = report
        return report

    def counters(self) -> dict:
        """Lifecycle counters for status reporting."""
        return {
            "ingested": self.ingested,
            "pending_statements": self.pending_statements(),
            "rounds_completed": self.rounds_completed,
            "round_budget_remaining": self.budget.remaining(),
            "due": self.due(),
        }
