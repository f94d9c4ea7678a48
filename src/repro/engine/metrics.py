"""Workload execution metrics, cache accounting, and index usage.

Feeds the paper's *Index Diagnosis* module: per-index usage counters
(how often an index served a scan vs how often it had to be
maintained) and a rolling view of workload cost used to detect
performance regression.

Also home to the bounded :class:`LruCache` (with hit/miss/eviction
counters) shared by the costing layers — the estimator's per-query
cost and feature caches and the planner's access-path memo all report
their behaviour through :class:`CacheStats` so tuning overhead stays
observable.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Tuple

from repro.engine.index import IndexDef


class Stopwatch:
    """The sanctioned elapsed-time measurement outside ``bench/``.

    Cost estimation and planning must be pure functions of their
    inputs, so the determinism lint bans ``time``/``datetime`` imports
    everywhere except ``bench/`` and this module.  Components that
    legitimately need wall-clock durations for *reporting* (advisor
    and baseline tuning reports) go through this helper instead of
    importing ``time`` themselves — which both removes the duplicated
    ``perf_counter`` bookkeeping and keeps the whitelist surface to a
    single audited call site.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Reset the reference point to now."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._start


@dataclass
class CacheStats:
    """Point-in-time counters for one bounded cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / max(self.lookups, 1)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class LruCache:
    """A size-bounded mapping with LRU eviction and usage counters.

    ``maxsize <= 0`` disables the cache entirely (every ``get`` is a
    miss, ``put`` is a no-op) — used by benchmarks to emulate the
    uncached baseline without code forks.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 50_000):
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default=None):
        if self.maxsize <= 0:
            self.misses += 1
            return default
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if self.maxsize <= 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


@dataclass
class IndexUsage:
    """Usage counters for one index over an observation window."""

    definition: IndexDef
    lookups: int = 0
    maintenance_ops: int = 0
    byte_size: int = 0

    @property
    def is_rarely_used(self) -> bool:
        return self.lookups == 0

    def maintenance_ratio(self) -> float:
        """Maintenance ops per lookup (high = write-dominated index)."""
        return self.maintenance_ops / max(self.lookups, 1)


@dataclass
class QueryRecord:
    """One executed query: its cost and the indexes its plan used."""

    fingerprint: str
    cost: float
    is_write: bool
    indexes_used: Tuple[IndexDef, ...] = ()


class WorkloadMonitor:
    """Rolling record of executed queries for regression detection.

    The paper's diagnosis module "monitors the system metrics during
    workload execution" and fires when it "detects abnormal status
    (e.g. performance regression)". We keep two adjacent windows of
    per-query cost and compare their means.
    """

    def __init__(self, window: int = 200, regression_factor: float = 1.25):
        self.window = window
        self.regression_factor = regression_factor
        self._recent: Deque[QueryRecord] = deque(maxlen=window)
        self._previous: Deque[QueryRecord] = deque(maxlen=window)
        self.total_queries = 0
        self.total_cost = 0.0

    def record(self, record: QueryRecord) -> None:
        """Append one executed query to the rolling windows."""
        if len(self._recent) == self._recent.maxlen:
            self._previous.append(self._recent.popleft())
        self._recent.append(record)
        self.total_queries += 1
        self.total_cost += record.cost

    def mean_recent_cost(self) -> float:
        if not self._recent:
            return 0.0
        return sum(r.cost for r in self._recent) / len(self._recent)

    def mean_previous_cost(self) -> float:
        if not self._previous:
            return 0.0
        return sum(r.cost for r in self._previous) / len(self._previous)

    def regression_detected(self) -> bool:
        """True when recent mean cost exceeds the previous window's."""
        prev = self.mean_previous_cost()
        if prev <= 0 or len(self._previous) < self.window // 2:
            return False
        return self.mean_recent_cost() > prev * self.regression_factor
