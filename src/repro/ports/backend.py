"""The tuner ⇄ DBMS boundary: the ``TuningBackend`` protocol.

The paper deploys AutoIndex against openGauss through a narrow
surface: parse/fingerprint, hypopg-style what-if costing, index DDL,
size accounting, statistics refresh, and per-index usage counters.
This module writes that surface down as a :class:`typing.Protocol` so
``repro.core`` never touches a concrete engine again — any system
that can answer these questions can host the tuner.

Adapters live next door:

* :class:`repro.ports.memory.MemoryBackend` — the in-process engine
  (``repro.engine``), the reference implementation;
* :class:`repro.ports.sqlite.SqliteBackend` — stdlib ``sqlite3`` with
  real DDL/ANALYZE and a shadow catalog feeding our cost model.

``repro.ports.factory.create_backend`` picks one by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.engine.faults import FaultInjector
from repro.engine.index import IndexDef
from repro.engine.metrics import CacheStats, IndexUsage, WorkloadMonitor
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.sql import ast


@dataclass(frozen=True)
class WhatIfCost:
    """The full answer to one what-if question (paper Section V).

    ``total`` is the optimizer's plan cost under the hypothetical
    configuration; the maintenance components split out the index
    upkeep charge a write plan carries, so the estimator can separate
    ``C_data`` from ``C_io``/``C_cpu`` without inspecting plans.
    """

    total: float
    maintenance_io: float = 0.0
    maintenance_cpu: float = 0.0
    is_write: bool = False
    num_affected_indexes: int = 0

    @property
    def data_cost(self) -> float:
        """``C_data``: plan cost minus the maintenance charge."""
        return max(
            self.total - self.maintenance_io - self.maintenance_cpu, 0.0
        )


@dataclass
class ExecutionOutcome:
    """The backend-agnostic outcome of one executed statement."""

    rows: List[Tuple[object, ...]] = field(default_factory=list)
    rowcount: int = 0
    cost: float = 0.0
    plan: Optional[object] = None

    @property
    def scalar(self) -> object:
        """First column of the first row (for aggregate lookups)."""
        if not self.rows:
            return None
        return self.rows[0][0]


@runtime_checkable
class TuningBackend(Protocol):
    """What a DBMS must answer for AutoIndex to manage its indexes.

    Grouped the way the paper groups its host-DBMS requirements:

    * **parse / fingerprint** — map SQL to statements and templates;
    * **what-if costing** — cost a statement under an arbitrary index
      configuration (real indexes not in the config are *masked*,
      config entries not built are *added* hypothetically), nothing
      executed;
    * **transactional DDL** — create/drop an index atomically with
      respect to the visible index set (a failed build registers
      nothing);
    * **size accounting** — bytes per index for the storage budget;
    * **stats refresh** — ANALYZE plus the read-only stats surface
      candidate generation keys off;
    * **usage counters** — per-index lookup/maintenance counts for
      diagnosis.
    """

    # Attributes core reads directly.
    name: str
    monitor: WorkloadMonitor
    faults: Optional[FaultInjector]

    # -- parse / fingerprint ------------------------------------------------

    def parse_statement(self, sql: str) -> ast.Statement: ...

    def fingerprint(self, statement: ast.Statement) -> str: ...

    # -- what-if costing ----------------------------------------------------

    def whatif_cost(
        self,
        statement: ast.Statement,
        config: Optional[Sequence[IndexDef]] = None,
    ) -> WhatIfCost: ...

    def whatif_cost_batch(
        self,
        statements: Sequence[ast.Statement],
        config: Optional[Sequence[IndexDef]] = None,
    ) -> List[WhatIfCost]:
        """Bulk what-if: one catalog overlay window for the batch.

        Bitwise-equal to ``[whatif_cost(s, config) for s in
        statements]`` — only the overlay bookkeeping is amortised.
        Backends inherit this default; adapters owning a catalog
        should override it with a genuinely batched implementation.
        """
        return [self.whatif_cost(s, config) for s in statements]

    def estimate_cost(
        self,
        statement,
        config: Optional[Sequence[IndexDef]] = None,
    ) -> Tuple[float, object]: ...

    # -- DDL ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None: ...

    def create_index(self, definition: IndexDef) -> object: ...

    def drop_index(self, definition: IndexDef) -> None: ...

    def has_index(self, definition: IndexDef) -> bool: ...

    def index_defs(self) -> List[IndexDef]: ...

    # -- data & stats -------------------------------------------------------

    def load_rows(
        self, table: str, rows: Iterable[Tuple[object, ...]]
    ) -> int: ...

    def analyze(self, table: Optional[str] = None) -> None: ...

    def table_row_count(self, table: str) -> int: ...

    def table_stats(self, table: str) -> TableStats: ...

    def schema(self, table: str) -> TableSchema: ...

    def has_table(self, name: str) -> bool: ...

    def catalog_version(self) -> int:
        """Moves on every data, stats, table-set or index-set change."""
        ...

    # -- cache keys ---------------------------------------------------------

    def data_version(self) -> int:
        """Moves on data, stats and table-set changes, not on index DDL.

        What-if results keyed on this plus :meth:`index_identity`
        stay valid across index creates and drops.
        """
        ...

    def index_identity(self, defs: Sequence[IndexDef]) -> Tuple:
        """Cache identity of an index set (see ``Catalog.index_identity``).

        Equal identities under one :meth:`data_version` plan to
        bit-identical what-if costs, whichever of the indexes are
        built.
        """
        ...

    def plan_cache_stats(self) -> CacheStats: ...

    # -- execution ----------------------------------------------------------

    def execute(self, sql) -> object: ...

    # -- sizes & usage ------------------------------------------------------

    def index_size_bytes(self, definition: IndexDef) -> int: ...

    def total_index_bytes(self) -> int: ...

    def index_usage(self) -> List[IndexUsage]: ...

    def reset_index_usage(self) -> None: ...

    def usage_epoch(self) -> int:
        """Monotone counter bumped by :meth:`reset_index_usage`.

        Usage resets do not move the catalog version; incremental
        diagnosis needs both to know whether cached classifications
        are still current.
        """
        ...
