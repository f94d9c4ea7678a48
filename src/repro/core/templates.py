"""SQL2Template: bounded template store with LRU retention and decay.

Section IV-A step 1 and Section IV-C of the paper:

* every incoming query is normalised (literals → placeholders) and
  matched against the template store by fingerprint; unmatched queries
  become new templates;
* the store is capacity-bounded (the paper keeps e.g. 5000 for TPC-C)
  and evicts the least-frequently-matched templates;
* under workload drift (most templates going cold), frequencies are
  multiplied by a decay factor, cold templates are dropped, and recent
  templates dominate — the paper's incremental template update.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sql import ast, parse
from repro.sql.fingerprint import parameterize
from repro.sql.normalize import raw_key

#: Templates one store retains (the paper keeps 5000 for TPC-C).
DEFAULT_TEMPLATE_CAPACITY = 5000


@dataclass
class QueryTemplate:
    """One access pattern: a parameterized statement plus usage stats."""

    fingerprint: str
    statement: ast.Statement  # placeholder form
    frequency: float = 0.0          # lifetime matches (decayed on drift)
    window_frequency: float = 0.0   # matches since the last tuning round
    last_seen: int = 0
    # Most recent concrete instance. The estimator prices the first
    # one it parsed per fingerprint, not this (_representative).
    sample_sql: str = ""
    is_write: bool = False

    @property
    def weight(self) -> float:
        """Estimation weight: the *recent* workload dominates.

        Incremental index management optimises the future workload
        (Definition 2), which the most recent window predicts best;
        lifetime frequency contributes a small prior so stable
        templates never drop to zero between rounds.
        """
        return self.window_frequency + 0.1 * self.frequency

    @property
    def tables(self) -> Tuple[str, ...]:
        """Tables referenced by the template (for candidate scoping)."""
        names: List[str] = []
        for node in ast.walk(self.statement):
            if isinstance(node, ast.TableRef):
                names.append(node.name)
        for attr in ("table",):
            value = getattr(self.statement, attr, None)
            if isinstance(value, str):
                names.append(value)
        return tuple(dict.fromkeys(names))


class TemplateStore:
    """Capacity-bounded store of query templates, sharded by table.

    ``capacity`` bounds the number of retained templates;
    ``decay_factor`` and ``cold_threshold`` implement the drift
    handling of Section IV-C.

    Templates live in per-table shards keyed by the statement's
    primary (first-referenced) table, with a table → fingerprints
    index covering secondary references, so candidate generation and
    what-if costing can iterate only the shards a configuration
    change touches (:meth:`templates_for_tables`) instead of scanning
    a flat dict. The LRU budget is split across shards: the capacity
    is divided evenly over the active shards and eviction charges the
    shard most over its share, dropping that shard's coldest
    template.

    Ingest fast path: :meth:`observe` first normalises the raw SQL
    (:func:`repro.sql.normalize.normalize_sql`, a lex-only pass) and
    looks the key up in a bounded LRU ``raw key → fingerprint`` cache.
    A hit skips parse + parameterization entirely; only misses pay the
    full pipeline and populate the cache. Entries die with their
    fingerprint (:meth:`_remove` invalidates, covering eviction and
    drift), and every ``parity_check_every``-th hit is re-parsed and
    asserted against the cached fingerprint. The cache is bypassed —
    not populated — when the caller supplies a pre-parsed statement,
    whose text may not be what the store would parse ``sql`` into.
    """

    # cache-keys: fields[_shards, _shard_of, _table_index] invalidator[_touch]

    def __init__(
        self,
        capacity: int = DEFAULT_TEMPLATE_CAPACITY,
        decay_factor: float = 0.5,
        cold_threshold: float = 1.0,
        drift_window: int = 200,
        drift_miss_ratio: float = 0.6,
        raw_cache_size: int = 4096,
        parity_check_every: int = 256,
        parse_fn: Optional[Callable[[str], ast.Statement]] = None,
    ):
        self.capacity = capacity
        self.decay_factor = decay_factor
        self.cold_threshold = cold_threshold
        self.drift_window = drift_window
        self.drift_miss_ratio = drift_miss_ratio
        #: 0 disables the raw-key fast path: every statement parses
        #: (the reference the ingest parity tests compare against).
        self.raw_cache_size = raw_cache_size
        #: every Nth cache hit is re-parsed and compared; 0 disables.
        self.parity_check_every = parity_check_every
        #: parser used on cache misses — injectable so an engine's
        #: statement cache / fault points stay on the miss path.
        self.parse_fn = parse_fn if parse_fn is not None else parse
        #: shard key (primary table, "" when table-less) → templates.
        self._shards: Dict[str, Dict[str, QueryTemplate]] = {}
        self._shard_of: Dict[str, str] = {}
        #: any referenced table → fingerprints (secondary references
        #: included, so multi-table templates are never missed).
        self._table_index: Dict[str, Dict[str, None]] = {}
        self._size = 0
        self._clock = 0
        self._window_arrivals = 0
        self._window_misses = 0
        self.total_observed = 0
        self.total_new_templates = 0
        #: LRU ``(version, normalized text) → fingerprint``.
        self._raw_cache: "OrderedDict[Tuple[int, str], str]" = OrderedDict()
        #: reverse index fingerprint → raw keys, for invalidation.
        self._raw_keys: Dict[str, Dict[Tuple[int, str], None]] = {}
        self.raw_cache_hits = 0
        self.raw_cache_misses = 0
        self.parity_checks = 0
        #: monotone change counters consumed by incremental diagnosis:
        #: ``version`` bumps on any mutation, ``_shard_versions`` per
        #: affected shard, so a diagnosis pass can skip clean shards.
        self.version = 0
        self._shard_versions: Dict[str, int] = {}

    # -- shard plumbing ----------------------------------------------------------

    def _get(self, fingerprint: str) -> Optional[QueryTemplate]:
        shard_key = self._shard_of.get(fingerprint)
        if shard_key is None:
            return None
        return self._shards[shard_key].get(fingerprint)

    def _insert(self, template: QueryTemplate) -> None:
        tables = template.tables
        shard_key = tables[0] if tables else ""
        self._shards.setdefault(shard_key, {})[
            template.fingerprint
        ] = template
        self._shard_of[template.fingerprint] = shard_key
        for table in tables:
            # Dict-as-ordered-set: insertion order is deterministic,
            # set iteration order is not.
            self._table_index.setdefault(table, {})[
                template.fingerprint
            ] = None
        self._size += 1
        self._touch(shard_key)

    def _remove(self, fingerprint: str) -> None:
        shard_key = self._shard_of.pop(fingerprint)
        shard = self._shards[shard_key]
        template = shard.pop(fingerprint)
        if not shard:
            del self._shards[shard_key]
        for table in template.tables:
            members = self._table_index.get(table)
            if members is not None:
                members.pop(fingerprint, None)
                if not members:
                    del self._table_index[table]
        self._size -= 1
        self._touch(shard_key)
        # Cache coherence: raw keys resolving to a dead fingerprint
        # must die with it, whether the removal came from LRU eviction
        # or drift cleanup — a later observe of the same shape must
        # take the miss path and re-create the template, never
        # resurrect a stale mapping.
        for key in self._raw_keys.pop(fingerprint, ()):
            self._raw_cache.pop(key, None)

    def _touch(self, shard_key: str) -> None:
        """Record a mutation for incremental-diagnosis dirty tracking."""
        self.version += 1
        self._shard_versions[shard_key] = (
            self._shard_versions.get(shard_key, 0) + 1
        )

    def shard_versions(self) -> Dict[str, int]:
        """Per-shard mutation counters (shard key → version)."""
        return dict(self._shard_versions)

    def _iter_templates(self):
        for shard_key in sorted(self._shards):
            yield from self._shards[shard_key].values()

    def shard_budget(self) -> int:
        """Per-shard slice of the capacity (at least one template)."""
        return max(self.capacity // max(len(self._shards), 1), 1)

    def shard_templates(self, shard_key: str) -> List[QueryTemplate]:
        """Templates of one shard in insertion order (empty if gone)."""
        shard = self._shards.get(shard_key)
        return list(shard.values()) if shard else []

    # -- observation ------------------------------------------------------------

    def observe(self, sql: str, statement: Optional[ast.Statement] = None
                ) -> QueryTemplate:
        """Match one query against the store (creating if new).

        When no pre-parsed ``statement`` is supplied the raw-key fast
        path applies (see the class docstring); a supplied statement
        bypasses the cache in both directions — it is neither
        consulted (the statement may not equal what ``sql`` parses to)
        nor populated from it.
        """
        if statement is not None:
            parameterized = parameterize(statement)
            template = self._get(parameterized.fingerprint)
            if template is None:
                template = self._create(
                    parameterized.fingerprint,
                    parameterized.statement,
                    ast.is_write(statement),
                )
        else:
            template = self._match_raw(sql)
        self._clock += 1
        self.total_observed += 1
        self._window_arrivals += 1
        self._bump(template, sql)
        return template

    def _match_raw(self, sql: str) -> QueryTemplate:
        """Resolve ``sql`` to its template via the raw-key cache.

        Misses (and a ``raw_cache_size`` of 0) fall back to the full
        parse → parameterize pipeline and populate the cache. Raises
        before any store counter moves, exactly like the pre-cache
        code, so error paths are mode-identical.
        """
        key = None
        if self.raw_cache_size:
            key = raw_key(sql)
            fingerprint = self._raw_cache.get(key)
            if fingerprint is not None:
                template = self._get(fingerprint)
                if template is not None:
                    self.raw_cache_hits += 1
                    self._raw_cache.move_to_end(key)
                    if (
                        self.parity_check_every
                        and self.raw_cache_hits % self.parity_check_every
                        == 0
                    ):
                        self._assert_parity(sql, fingerprint)
                    return template
                # The fingerprint died without going through _remove
                # (e.g. a store rebuilt from a checkpoint): drop the
                # stale entry and fall through to the miss path.
                self._drop_raw_entry(key, fingerprint)
        self.raw_cache_misses += 1
        statement = self.parse_fn(sql)
        parameterized = parameterize(statement)
        fingerprint = parameterized.fingerprint
        if key is not None:
            self._raw_cache[key] = fingerprint
            self._raw_keys.setdefault(fingerprint, {})[key] = None
            if len(self._raw_cache) > self.raw_cache_size:
                old_key, old_fp = self._raw_cache.popitem(last=False)
                self._drop_raw_entry(old_key, old_fp, keep_forward=True)
        template = self._get(fingerprint)
        if template is None:
            template = self._create(
                fingerprint,
                parameterized.statement,
                ast.is_write(statement),
            )
        return template

    def _drop_raw_entry(
        self,
        key: Tuple[int, str],
        fingerprint: str,
        keep_forward: bool = False,
    ) -> None:
        if not keep_forward:
            self._raw_cache.pop(key, None)
        members = self._raw_keys.get(fingerprint)
        if members is not None:
            members.pop(key, None)
            if not members:
                del self._raw_keys[fingerprint]

    def _assert_parity(self, sql: str, fingerprint: str) -> None:
        """Fast-path guard: a cache hit must reproduce the parsed
        fingerprint. Uses the pure parser (no injected faults) — this
        audits the normalizer, not the engine."""
        self.parity_checks += 1
        audited = parameterize(parse(sql)).fingerprint
        if audited != fingerprint:
            raise AssertionError(
                "raw-key cache parity violation: %r resolved to %r "
                "but parses to %r" % (sql, fingerprint, audited)
            )

    def _create(
        self,
        fingerprint: str,
        statement: ast.Statement,
        is_write: bool,
    ) -> QueryTemplate:
        self._window_misses += 1
        self.total_new_templates += 1
        template = QueryTemplate(
            fingerprint=fingerprint,
            statement=statement,
            is_write=is_write,
        )
        self._insert(template)
        if self._size > self.capacity:
            self._evict()
        return template

    def _bump(self, template: QueryTemplate, sql: str) -> None:
        template.frequency += 1.0
        template.window_frequency += 1.0
        template.last_seen = self._clock
        template.sample_sql = sql
        shard_key = self._shard_of.get(template.fingerprint)
        if shard_key is not None:
            self._touch(shard_key)
        # else: a full store evicted the just-created template before
        # its first bump; the caller still gets the detached object
        # (pre-fast-path behaviour) and the eviction already dirtied
        # the shard.

    def observe_raw(self, sql: str, statement: Optional[ast.Statement] = None
                    ) -> QueryTemplate:
        """Record one query *without* template normalisation.

        The template-ablation path (``use_templates=False``, the
        paper's query-level baseline): every distinct SQL string is
        its own "template", keyed by the raw text rather than the
        parameterized fingerprint. Shares the store's clock, window
        counters, and capacity eviction with :meth:`observe` so the
        two paths are directly comparable. The raw text *is* the
        store key here, so the fast path is simply a hit on it — the
        parse is skipped whenever the exact string is already stored.
        """
        template = self._get(sql)
        if template is None:
            if statement is None:
                statement = self.parse_fn(sql)
            template = self._create(sql, statement, ast.is_write(statement))
        self._clock += 1
        self.total_observed += 1
        self._window_arrivals += 1
        self._bump(template, sql)
        return template

    def _evict(self) -> None:
        """Drop the coldest template of the most over-budget shard.

        The LRU budget is split evenly across shards; the shard most
        over its slice pays the eviction (ties broken by shard name
        for determinism) with its least-frequently / least-recently
        matched template.
        """
        victim_shard = max(
            sorted(self._shards),
            key=lambda key: len(self._shards[key]),
        )
        victim = min(
            self._shards[victim_shard].values(),
            key=lambda t: (t.frequency, t.last_seen),
        )
        self._remove(victim.fingerprint)

    # -- drift handling ------------------------------------------------------------

    def drift_detected(self) -> bool:
        """True when most recent arrivals missed existing templates."""
        if self._window_arrivals < self.drift_window:
            return False
        return (
            self._window_misses / self._window_arrivals
            >= self.drift_miss_ratio
        )

    def handle_drift(self) -> int:
        """Decay all frequencies and drop cold templates.

        Returns the number of templates removed. Call when
        :meth:`drift_detected` fires (the advisor does this).
        """
        removed = 0
        for template in list(self._iter_templates()):
            template.frequency *= self.decay_factor
            if template.frequency < self.cold_threshold:
                self._remove(template.fingerprint)
                removed += 1
        # Survivors' frequencies changed too: dirty every live shard
        # so incremental diagnosis re-reads them.
        for shard_key in sorted(self._shards):
            self._touch(shard_key)
        self._window_arrivals = 0
        self._window_misses = 0
        return removed

    def reset_window(self) -> None:
        self._window_arrivals = 0
        self._window_misses = 0

    def begin_tuning_window(self) -> None:
        """Start a fresh observation window (after a tuning round)."""
        for template in self._iter_templates():
            template.window_frequency = 0.0
        for shard_key in sorted(self._shards):
            self._touch(shard_key)

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serializable snapshot of the store (template bodies are
        reconstructed from their sample SQL on load)."""
        return {
            "capacity": self.capacity,
            "decay_factor": self.decay_factor,
            "cold_threshold": self.cold_threshold,
            "clock": self._clock,
            "templates": [
                {
                    "fingerprint": t.fingerprint,
                    "frequency": t.frequency,
                    "window_frequency": t.window_frequency,
                    "last_seen": t.last_seen,
                    "sample_sql": t.sample_sql,
                    "is_write": t.is_write,
                }
                for t in self._iter_templates()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TemplateStore":
        """Rebuild a store saved with :meth:`to_dict`.

        Statements are re-parsed from each template's fingerprint
        (the fingerprint is itself valid, placeholder-bearing SQL).
        """
        store = cls(
            capacity=data.get("capacity", 5000),
            decay_factor=data.get("decay_factor", 0.5),
            cold_threshold=data.get("cold_threshold", 1.0),
        )
        store._clock = data.get("clock", 0)
        for entry in data.get("templates", []):
            statement = parse(entry["fingerprint"])
            template = QueryTemplate(
                fingerprint=entry["fingerprint"],
                statement=statement,
                frequency=entry.get("frequency", 0.0),
                window_frequency=entry.get("window_frequency", 0.0),
                last_seen=entry.get("last_seen", 0),
                sample_sql=entry.get("sample_sql", ""),
                is_write=entry.get("is_write", False),
            )
            store._insert(template)
        return store

    # -- access ----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._shard_of

    def get(self, fingerprint: str) -> Optional[QueryTemplate]:
        return self._get(fingerprint)

    def templates(self, top: Optional[int] = None) -> List[QueryTemplate]:
        """Templates sorted by descending frequency."""
        ordered = sorted(
            self._iter_templates(),
            key=lambda t: (-t.frequency, -t.last_seen),
        )
        return ordered if top is None else ordered[:top]

    def templates_for_tables(
        self,
        tables: Iterable[str],
        top: Optional[int] = None,
    ) -> List[QueryTemplate]:
        """Templates referencing any of ``tables``, hottest first.

        This is the sharded fast path: only the affected shards (plus
        secondary references via the table index) are touched, so a
        configuration change on one table never scans the whole
        store.
        """
        seen: Dict[str, None] = {}
        for table in sorted(set(tables)):
            for fingerprint in self._table_index.get(table, ()):
                seen.setdefault(fingerprint, None)
        matched = [self._get(fp) for fp in seen]
        ordered = sorted(
            (t for t in matched if t is not None),
            key=lambda t: (-t.frequency, -t.last_seen),
        )
        return ordered if top is None else ordered[:top]

    def shard_stats(self) -> Dict[str, int]:
        """Template count per shard (shard key → size)."""
        return {
            key: len(self._shards[key]) for key in sorted(self._shards)
        }

    def raw_cache_stats(self) -> Dict[str, int]:
        """Fast-path counters (for benches and tests)."""
        return {
            "hits": self.raw_cache_hits,
            "misses": self.raw_cache_misses,
            "size": len(self._raw_cache),
            "parity_checks": self.parity_checks,
        }

    def total_frequency(self) -> float:
        return sum(t.frequency for t in self._iter_templates())
