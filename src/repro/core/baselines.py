"""Baseline advisors the paper compares against (Section VI-A).

* :class:`DefaultAdvisor` — keeps the initial configuration (primary
  keys for the testing datasets, the DBA's manual indexes for the
  banking scenario) and never changes anything;
* :class:`GreedyAdvisor` — the heuristic used by classic tools
  ([2], [3], [26]): enumerate candidates from *every observed query*
  (no templates), evaluate each candidate's individual benefit with
  the same cost estimation method AutoIndex uses (for fairness), and
  add the highest-benefit candidates until the storage budget is hit.
  No index removal, no combined-benefit reasoning;
* :class:`QueryLevelAdvisor` — AutoIndex with SQL2Template disabled
  (every query analysed individually), the Figure 8 ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.advisor import AutoIndexAdvisor, TuningReport
from repro.core.candidates import CandidateGenerator
from repro.core.estimator import BenefitEstimator
from repro.core.templates import QueryTemplate
from repro.ports.backend import TuningBackend
from repro.engine.index import IndexDef
from repro.engine.metrics import Stopwatch
from repro.sql import ast


class DefaultAdvisor:
    """The do-nothing baseline: whatever indexes exist, stay."""

    name = "Default"

    def __init__(self, db: TuningBackend):
        self.db = db
        self.statements_analyzed = 0

    def observe(self, sql: str) -> None:
        return None

    def observe_queries(self, queries: Sequence) -> None:
        return None

    def tune(self, force: bool = True) -> TuningReport:
        return TuningReport(skipped=True)


class GreedyAdvisor:
    """Classic greedy index selection over per-query candidates.

    Faithful to the paper's description of the [2]/[3]/[26]-style
    baseline: each candidate's benefit is estimated *individually*
    against the existing configuration, candidates are ranked once,
    and the top ones are added until the budget is exhausted (top-k).
    There is no combined-benefit reasoning and no index removal.

    ``marginal=True`` upgrades it to hill-climbing (marginal benefit
    re-evaluated against the already-chosen set at every step) — used
    by the ablation benchmarks as a stronger greedy.
    """

    name = "Greedy"

    def __init__(
        self,
        db: TuningBackend,
        storage_budget: Optional[int] = None,
        max_candidates: int = 40,
        marginal: bool = False,
    ):
        self.db = db
        self.storage_budget = storage_budget
        self.max_candidates = max_candidates
        self.marginal = marginal
        self.generator = CandidateGenerator(db)
        self.estimator = BenefitEstimator(db)
        # Greedy analyses every query individually: dedupe only on the
        # literal SQL text (not on templates).
        self._observed: Dict[str, QueryTemplate] = {}
        self.statements_analyzed = 0
        self.tuning_history: List[TuningReport] = []

    # -- observation -------------------------------------------------------------

    def observe(self, sql: str) -> None:
        """Record one query (Greedy analyses every statement)."""
        self.statements_analyzed += 1
        entry = self._observed.get(sql)
        if entry is None:
            statement = self.db.parse_statement(sql)
            entry = QueryTemplate(
                fingerprint=sql,
                statement=statement,
                sample_sql=sql,
                is_write=ast.is_write(statement),
            )
            self._observed[sql] = entry
        entry.frequency += 1.0
        entry.window_frequency += 1.0

    def observe_queries(self, queries: Sequence) -> None:
        for query in queries:
            self.observe(getattr(query, "sql", query))

    # -- tuning ---------------------------------------------------------------------

    def tune(self, force: bool = True) -> TuningReport:
        """One-shot greedy selection over all observed queries."""
        timer = Stopwatch()
        calls_before = self.estimator.estimate_calls
        workload = list(self._observed.values())

        collected: Dict = {}
        for entry in workload:
            for definition in self.generator.for_statement(entry.statement):
                slot = collected.setdefault(definition.key, [definition, 0.0])
                slot[1] += entry.frequency
        existing = self.db.index_defs()
        existing_keys = {d.key for d in existing}
        candidates = [
            definition
            for key, (definition, _support) in sorted(
                collected.items(), key=lambda kv: -kv[1][1]
            )
            if key not in existing_keys
        ][: self.max_candidates]

        report = TuningReport(baseline_cost=self.estimator.workload_cost(
            workload, existing
        ))
        if self.marginal:
            chosen, current_cost = self._hill_climb(
                workload, existing, candidates, report.baseline_cost
            )
        else:
            chosen, current_cost = self._top_k(
                workload, existing, candidates, report.baseline_cost
            )

        for definition in chosen:
            self.db.create_index(definition)
        if chosen:
            self.estimator.clear_cache()

        report.created = chosen
        report.estimated_benefit = report.baseline_cost - current_cost
        report.candidates_considered = len(candidates)
        report.templates_used = len(workload)
        report.estimator_calls = self.estimator.estimate_calls - calls_before
        report.statements_analyzed = self.statements_analyzed
        report.elapsed_seconds = timer.elapsed()
        self.tuning_history.append(report)
        return report

    def _top_k(
        self,
        workload: List[QueryTemplate],
        existing: List[IndexDef],
        candidates: List[IndexDef],
        baseline_cost: float,
    ):
        """Rank once by individual benefit; add down the list (paper)."""
        scored = []
        for candidate in candidates:
            cost = self.estimator.workload_cost(
                workload, existing + [candidate]
            )
            benefit = baseline_cost - cost
            if benefit > 1e-9:
                scored.append((benefit, candidate))
        scored.sort(key=lambda pair: -pair[0])

        chosen: List[IndexDef] = []
        used_bytes = 0
        for _benefit, candidate in scored:
            if self.storage_budget is not None:
                size = self.db.index_size_bytes(candidate)
                if used_bytes + size > self.storage_budget:
                    # "Greedy ... cannot select any more indexes after
                    # picking a few indexes and arriving the resource
                    # limit" (paper, Section VI-E): top-k stops here.
                    break
                used_bytes += size
            chosen.append(candidate)
        final_cost = self.estimator.workload_cost(
            workload, existing + chosen
        )
        return chosen, final_cost

    def _hill_climb(
        self,
        workload: List[QueryTemplate],
        existing: List[IndexDef],
        candidates: List[IndexDef],
        baseline_cost: float,
    ):
        """Marginal-benefit greedy (the ablation's stronger variant)."""
        chosen: List[IndexDef] = []
        used_bytes = 0
        current_cost = baseline_cost
        remaining = list(candidates)
        while remaining:
            best_candidate = None
            best_cost = current_cost
            for candidate in remaining:
                if self.storage_budget is not None:
                    size = self.db.index_size_bytes(candidate)
                    if used_bytes + size > self.storage_budget:
                        continue
                cost = self.estimator.workload_cost(
                    workload, existing + chosen + [candidate]
                )
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_candidate = candidate
            if best_candidate is None:
                break
            chosen.append(best_candidate)
            used_bytes += self.db.index_size_bytes(best_candidate)
            current_cost = best_cost
            remaining = [c for c in remaining if c.key != best_candidate.key]
        return chosen, current_cost


class QueryLevelAdvisor(AutoIndexAdvisor):
    """AutoIndex without SQL2Template (Figure 8's query-level ablation).

    Identical pipeline — candidates, MCTS, estimator — but every
    distinct query text is analysed on its own, so candidate
    generation and benefit estimation pay per-query instead of
    per-template cost.
    """

    name = "QueryLevel"

    def __init__(self, db: TuningBackend, **kwargs):
        kwargs["use_templates"] = False
        super().__init__(db, **kwargs)
