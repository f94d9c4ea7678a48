"""Index diagnosis (paper Section III, "Index Diagnosis").

Monitors workload execution and classifies indexes into the paper's
three problem classes:

1. beneficial indexes that have not been created (high-support
   candidates from current templates);
2. rarely-used indexes (no lookups served over the observation
   window);
3. negative-benefit indexes (maintenance operations dwarf lookups —
   the write-penalised indexes of Example 2).

When the ratio of problematic indexes crosses a threshold — or the
workload monitor reports a cost regression — an index tuning request
is issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.candidates import CandidateGenerator
from repro.core.templates import TemplateStore
from repro.ports.backend import TuningBackend
from repro.engine.index import IndexDef

#: An index is *negative* when its write maintenance exceeds this many
#: times its lookups.
NEGATIVE_MAINTENANCE_FACTOR = 10.0
#: Minimum template support for a candidate to count as missing.
MIN_CANDIDATE_SUPPORT = 3.0
#: Post-apply observation window: indexes the advisor just created are
#: watched for this many diagnosis passes; if maintenance dwarfs
#: lookups in that window the index regressed and is flagged for
#: automatic revert.
REVERT_WINDOW = 2
#: Maintenance floor for a revert, so a handful of early writes cannot
#: condemn an index before it served anything.
REVERT_MIN_MAINTENANCE = 20


@dataclass
class IndexProblemReport:
    """The classification the diagnosis module produces."""

    missing_beneficial: List[IndexDef] = field(default_factory=list)
    rarely_used: List[IndexDef] = field(default_factory=list)
    negative: List[IndexDef] = field(default_factory=list)
    considered: int = 0
    regression: bool = False
    #: Recently-applied indexes whose post-apply observation window
    #: shows regression (the paper's negative-benefit class); the
    #: advisor reverts these automatically.
    auto_revert: List[IndexDef] = field(default_factory=list)

    @property
    def problem_count(self) -> int:
        return (
            len(self.missing_beneficial)
            + len(self.rarely_used)
            + len(self.negative)
        )

    @property
    def problem_ratio(self) -> float:
        denominator = max(self.considered + len(self.missing_beneficial), 1)
        return self.problem_count / denominator

    def should_tune(self, threshold: float = 0.1) -> bool:
        """The paper's trigger: problem ratio over threshold, or an
        observed performance regression."""
        return self.regression or self.problem_ratio > threshold


class IndexDiagnosis:
    """Classifies index problems from usage metrics and templates.

    With ``incremental=True`` (the default) each pass reuses work
    from the previous one instead of re-scanning everything:

    * **classification** (rarely-used / negative indexes) is keyed on
      ``(monitor.total_queries, catalog_version, usage_epoch,
      protected set)`` — when none of those moved since the last
      pass, the previous lists are reused verbatim;
    * **top templates** come from per-shard snapshots validated
      against :meth:`TemplateStore.shard_versions` dirty counters —
      only shards that changed since the last pass are re-read;
    * **candidate extraction** (the expensive DNF walk in
      :meth:`CandidateGenerator.for_statement`) is cached per
      template fingerprint while the backend's catalog version is
      unchanged; the merge/filter stage runs through
      :meth:`CandidateGenerator.generate_from`, the exact code the
      full path uses.

    ``incremental=False`` runs the full-scan path instead: the
    reference the parity tests compare the incremental reports
    against. The advisor always diagnoses incrementally.
    """

    def __init__(
        self,
        db: TuningBackend,
        store: TemplateStore,
        generator: CandidateGenerator,
        min_observations: int = 50,
        incremental: bool = True,
    ):
        self.db = db
        self.store = store
        self.generator = generator
        self.min_observations = min_observations
        self._watched: Dict[Tuple, Tuple[IndexDef, int]] = {}
        #: windows closed by the last consuming pass, with how:
        #: "reverted" | "expired" | "disappeared". Drained by
        #: :meth:`pop_closed` (the benefit ledger settles its claims
        #: from these).
        self._closed: List[Tuple[IndexDef, str]] = []
        self.incremental = incremental
        #: shard key → (shard version, [(sort key, template), ...]).
        self._shard_snapshots: Dict[str, Tuple[int, List]] = {}
        #: fingerprint → raw per-statement candidates (with scope
        #: variants), valid while the catalog version is unchanged.
        self._extraction_cache: Dict[str, List[IndexDef]] = {}
        self._extraction_catalog_version: object = None
        self._class_signature: object = None
        self._class_result: Tuple[int, List[IndexDef], List[IndexDef]] = (
            0, [], [],
        )

    def invalidate_caches(self) -> None:
        """Drop every incremental cache (after a checkpoint restore
        or any out-of-band store/backend swap)."""
        self._shard_snapshots.clear()
        self._extraction_cache.clear()
        self._extraction_catalog_version = None
        self._class_signature = None
        self._class_result = (0, [], [])

    def diagnose(
        self,
        protected: Sequence[IndexDef] = (),
        top_templates: int = 100,
    ) -> IndexProblemReport:
        """Produce the current problem report."""
        if not self.incremental:
            return self._diagnose_full(protected, top_templates)
        report = IndexProblemReport(
            regression=self.db.monitor.regression_detected()
        )
        protected_keys: Set = {d.key for d in protected}

        if self.db.monitor.total_queries >= self.min_observations:
            signature = (
                self.db.monitor.total_queries,
                self.db.catalog_version(),
                self.db.usage_epoch(),
                frozenset(protected_keys),
            )
            if signature != self._class_signature:
                considered = 0
                rarely_used: List[IndexDef] = []
                negative: List[IndexDef] = []
                for usage in self.db.index_usage():
                    if usage.definition.key in protected_keys:
                        continue
                    considered += 1
                    if usage.lookups == 0:
                        rarely_used.append(usage.definition)
                    elif (
                        usage.maintenance_ops
                        > usage.lookups * NEGATIVE_MAINTENANCE_FACTOR
                    ):
                        negative.append(usage.definition)
                self._class_signature = signature
                self._class_result = (considered, rarely_used, negative)
            considered, rarely_used, negative = self._class_result
            report.considered = considered
            report.rarely_used = list(rarely_used)
            report.negative = list(negative)

        catalog_version = self.db.catalog_version()
        if catalog_version != self._extraction_catalog_version:
            # Schema or statistics moved: every cached extraction
            # (selectivity gates, scope variants, join directions)
            # is suspect. Start over.
            self._extraction_cache.clear()
            self._extraction_catalog_version = catalog_version
        pairs = []
        for template in self._top_templates(top_templates):
            definitions = self._extraction_cache.get(template.fingerprint)
            if definitions is None:
                definitions = self.generator.for_statement(
                    template.statement
                )
                self._extraction_cache[template.fingerprint] = definitions
            pairs.append((template, definitions))
        for candidate in self.generator.generate_from(pairs):
            if candidate.support >= MIN_CANDIDATE_SUPPORT:
                report.missing_beneficial.append(candidate.definition)

        report.auto_revert = self.check_applied(consume=False)
        return report

    def _top_templates(self, top: int) -> List:
        """The store's hottest templates via dirty-shard snapshots.

        Re-reads only shards whose version moved since the last pass;
        clean shards contribute their cached ``(sort key, template)``
        entries. Concatenation in sorted-shard-key order followed by a
        stable sort reproduces ``store.templates(top=...)`` exactly.
        """
        versions = self.store.shard_versions()
        snapshots = self._shard_snapshots
        for shard_key in [k for k in snapshots if k not in versions]:
            del snapshots[shard_key]
        merged: List = []
        for shard_key in sorted(versions):
            version = versions[shard_key]
            cached = snapshots.get(shard_key)
            if cached is None or cached[0] != version:
                entries = [
                    ((-t.frequency, -t.last_seen), t)
                    for t in self.store.shard_templates(shard_key)
                ]
                snapshots[shard_key] = (version, entries)
            else:
                entries = cached[1]
            merged.extend(entries)
        merged.sort(key=lambda pair: pair[0])
        return [template for _key, template in merged[:top]]

    def _diagnose_full(
        self,
        protected: Sequence[IndexDef],
        top_templates: int,
    ) -> IndexProblemReport:
        """The full-scan reference path: full usage scan + full
        candidate generation, no caches consulted or populated."""
        report = IndexProblemReport(
            regression=self.db.monitor.regression_detected()
        )
        protected_keys: Set = {d.key for d in protected}

        if self.db.monitor.total_queries >= self.min_observations:
            for usage in self.db.index_usage():
                if usage.definition.key in protected_keys:
                    continue
                report.considered += 1
                if usage.lookups == 0:
                    report.rarely_used.append(usage.definition)
                elif (
                    usage.maintenance_ops
                    > usage.lookups * NEGATIVE_MAINTENANCE_FACTOR
                ):
                    report.negative.append(usage.definition)

        for candidate in self.generator.generate(
            self.store.templates(top=top_templates)
        ):
            if candidate.support >= MIN_CANDIDATE_SUPPORT:
                report.missing_beneficial.append(candidate.definition)

        report.auto_revert = self.check_applied(consume=False)
        return report

    # ------------------------------------------------------------------
    # post-apply observation window
    # ------------------------------------------------------------------

    def register_applied(self, created: Sequence[IndexDef]) -> None:
        """Start watching freshly-applied indexes for regression."""
        for definition in created:
            if definition.unique:
                continue  # never auto-revert constraint indexes
            self._watched[definition.key] = (
                definition,
                REVERT_WINDOW,
            )

    def watched_indexes(self) -> List[IndexDef]:
        """Indexes currently inside their observation window."""
        return [d for d, _ in self._watched.values()]

    def check_applied(self, consume: bool = True) -> List[IndexDef]:
        """One observation-window pass over recently-applied indexes.

        Returns the definitions that regressed (write maintenance
        dwarfing lookups — the paper's negative-benefit class). With
        ``consume=True`` (the revert pass in ``tune()``) a flagged or
        expired index leaves the watch list and healthy windows tick
        down; ``consume=False`` (``diagnose()``) is a read-only
        preview so a diagnosis followed by tuning does not burn two
        windows per round.
        """
        if not self._watched:
            return []
        usage = {
            u.definition.key: u for u in self.db.index_usage()
        }
        regressed: List[IndexDef] = []
        for key in list(self._watched):
            definition, remaining = self._watched[key]
            used = usage.get(key)
            if used is None:
                if consume:
                    del self._watched[key]  # dropped by other means
                    self._closed.append((definition, "disappeared"))
                continue
            if (
                used.maintenance_ops >= REVERT_MIN_MAINTENANCE
                and used.maintenance_ops
                > max(used.lookups, 1) * NEGATIVE_MAINTENANCE_FACTOR
            ):
                regressed.append(definition)
                if consume:
                    del self._watched[key]
                    self._closed.append((definition, "reverted"))
                continue
            if not consume:
                continue
            remaining -= 1
            if remaining <= 0:
                del self._watched[key]
                self._closed.append((definition, "expired"))
            else:
                self._watched[key] = (definition, remaining)
        return regressed

    def pop_closed(self) -> List[Tuple[IndexDef, str]]:
        """Drain windows closed by consuming passes since last drain.

        Each entry is ``(definition, how)`` with ``how`` one of
        ``"reverted"`` (regression flagged), ``"expired"`` (window
        ended healthy), or ``"disappeared"`` (dropped by other
        means). Reverted/expired arms are still in the catalog when
        this runs — the revert DDL happens after — so callers can
        measure their observed benefit in place.
        """
        closed, self._closed = self._closed, []
        return closed

    def rewatch(
        self,
        definitions: Sequence[IndexDef],
        remaining: int = 1,
    ) -> None:
        """Put definitions back under watch (e.g. a revert's own DDL
        failed and was rolled back; the regression re-flags next
        round instead of silently escaping the window)."""
        for definition in definitions:
            self._watched[definition.key] = (definition, remaining)

    def watched_state(self) -> List[Dict]:
        """JSON-safe observation-window state (for checkpoints)."""
        return [
            {"definition": d.to_dict(), "remaining": remaining}
            for d, remaining in self._watched.values()
        ]

    def restore_watched(self, state: Sequence[Dict]) -> None:
        """Adopt checkpointed observation-window state.

        A crash between an apply and its window expiry must not
        silence the pending auto-revert: restoring puts the arms
        back under watch with their remaining passes intact.
        """
        self._watched = {}
        for entry in state:
            definition = IndexDef.from_dict(entry["definition"])
            self._watched[definition.key] = (
                definition,
                int(entry["remaining"]),
            )
