"""The SQLite adapter: real DDL + ANALYZE behind the backend protocol.

:class:`SqliteBackend` hosts the tuner on stdlib ``sqlite3``:

* DDL is real — ``CREATE TABLE`` / ``CREATE INDEX`` / ``DROP INDEX``
  run against an actual SQLite database, and every statement the
  workload submits executes there for real;
* statistics come from SQLite's own ``ANALYZE``: row counts are read
  back from ``sqlite_stat1`` and per-column distributions (null
  fraction, n_distinct, most-common values, equi-depth histogram) are
  pulled via catalog queries, then poured into our
  :class:`~repro.engine.stats.TableStats` shape;
* what-if costing reuses **our** cost model: a *shadow catalog*
  (:class:`repro.engine.catalog.Catalog` populated with those pulled
  stats plus lightweight :class:`ShadowIndex` entries) feeds the
  shared :class:`~repro.engine.planner.Planner`, so hypothetical
  configurations are costed exactly the way the paper layers its
  estimator over a host DBMS it cannot modify.

Because SQLite will not report plan costs, ``execute`` returns the
shadow planner's estimate as the statement cost; the rows and
rowcounts are SQLite's real answers. Shadow index shapes are always
*estimated* (``hypothetical_shape``) — we never measure SQLite's
B-tree pages — which is precisely the situation an external tuner is
in, and what the backend-parity tests exercise.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.catalog import Catalog, TableEntry
from repro.engine.cost import CostParams, DEFAULT_PARAMS, PAGE_SIZE
from repro.engine.faults import FaultInjector, check as fault_check
from repro.engine.index import IndexDef, IndexShape, hypothetical_shape
from repro.engine.metrics import IndexUsage, QueryRecord, WorkloadMonitor
from repro.engine.plan import (
    DeletePlan,
    InsertPlan,
    PlanNode,
    UpdatePlan,
    indexes_used,
)
from repro.engine.planner import Planner
from repro.engine.schema import ColumnType, TableSchema
from repro.engine.stats import (
    ColumnStats,
    HISTOGRAM_BUCKETS,
    MCV_ENTRIES,
    TableStats,
)
from repro.ports.backend import ExecutionOutcome
from repro.ports.whatif import CatalogAdapter
from repro.sql import ast, parse
from repro.sql.fingerprint import fingerprint as _fingerprint

_TYPE_MAP = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.TEXT: "TEXT",
    ColumnType.BOOL: "INTEGER",
}


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class _StatsHeap:
    """Page accounting for a table that physically lives in SQLite.

    The shadow planner costs sequential scans by ``heap.page_count``,
    so we mirror :class:`repro.engine.storage.HeapFile`'s geometry —
    fixed rows-per-page, tombstoned deletes feeding a free list, pages
    never reclaimed — without storing any rows.
    """

    def __init__(self, schema: TableSchema):
        self.rows_per_page = max(1, PAGE_SIZE // schema.row_byte_width)
        self._slots = 0  # high-water slot count (pages never shrink)
        self._free = 0  # tombstoned slots available for reuse
        self._live = 0

    def insert_rows(self, count: int) -> None:
        reused = min(self._free, count)
        self._free -= reused
        self._slots += count - reused
        self._live += count

    def delete_rows(self, count: int) -> None:
        count = min(count, self._live)
        self._free += count
        self._live -= count

    @property
    def page_count(self) -> int:
        return (
            self._slots + self.rows_per_page - 1
        ) // self.rows_per_page

    @property
    def row_count(self) -> int:
        return self._live


class ShadowIndex:
    """Catalog stand-in for an index materialised inside SQLite.

    Carries the usage counters diagnosis needs and answers shape
    queries with the estimated B+Tree geometry — an external tuner
    cannot count a host DBMS's btree pages, so unlike the in-memory
    engine the "real" shape here *is* the estimate.
    """

    def __init__(self, definition: IndexDef, entry: TableEntry):
        self.definition = definition
        self._entry = entry
        self.lookup_count = 0
        self.maintenance_count = 0

    def _shape(self) -> IndexShape:
        return hypothetical_shape(
            self.definition, self._entry.schema, self._entry.stats
        )

    @property
    def height(self) -> int:
        return self._shape().height

    @property
    def leaf_page_count(self) -> int:
        return self._shape().leaf_pages

    @property
    def page_count(self) -> int:
        return self._shape().total_pages

    @property
    def entry_count(self) -> int:
        return self._shape().entry_count

    @property
    def partition_count(self) -> int:
        return self._shape().partitions

    @property
    def byte_size(self) -> int:
        return self._shape().byte_size


class SqliteBackend(CatalogAdapter):
    """A real SQLite database speaking :class:`TuningBackend`."""

    name = "sqlite"

    def __init__(
        self,
        params: CostParams = DEFAULT_PARAMS,
        faults: Optional[FaultInjector] = None,
    ):
        self.params = params
        self.faults = faults
        self.conn = sqlite3.connect(":memory:", isolation_level=None)
        self.catalog = Catalog()
        self.planner = Planner(self.catalog, params, faults=faults)
        self.monitor = WorkloadMonitor()
        self._statement_cache: Dict[str, ast.Statement] = {}
        self._usage_epoch = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Create the table in SQLite and mirror it in the shadow catalog."""
        entry = self.catalog.add_table(schema)
        entry.heap = _StatsHeap(schema)
        columns = ", ".join(
            f"{_quote(c.name)} {_TYPE_MAP[c.type]}"
            for c in schema.columns
        )
        self.conn.execute(
            f"CREATE TABLE {_quote(schema.name)} ({columns})"
        )
        if schema.primary_key:
            self.create_index(
                IndexDef(
                    table=schema.name,
                    columns=tuple(schema.primary_key),
                    name=f"pk_{schema.name}",
                    unique=True,
                )
            )

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.conn.execute(f"DROP TABLE {_quote(name)}")

    def create_index(self, definition: IndexDef) -> ShadowIndex:
        """Run real ``CREATE INDEX`` DDL and register the shadow entry.

        Atomic with respect to the visible index set: the duplicate
        check and the ``index.build`` fault point both fire *before*
        the DDL, and registration happens only after SQLite accepted
        it — a failed build leaves both SQLite and the shadow catalog
        untouched.
        """
        entry = self.catalog.table(definition.table)
        if definition.key in entry.indexes:
            raise ValueError(f"index on {definition.key} already exists")
        fault_check(self.faults, "index.build")
        unique = "UNIQUE " if definition.unique else ""
        columns = ", ".join(_quote(c) for c in definition.columns)
        self.conn.execute(
            f"CREATE {unique}INDEX {_quote(definition.display_name)} "
            f"ON {_quote(definition.table)} ({columns})"
        )
        shadow = ShadowIndex(definition, entry)
        self.catalog.add_index(shadow)
        return shadow

    def drop_index(self, definition: IndexDef) -> None:
        # Same fault point as creates, checked before any mutation:
        # an injected fault leaves SQLite and the shadow catalog
        # untouched, never a half-dropped index.
        fault_check(self.faults, "index.build")
        dropped = self.catalog.drop_index(definition)
        self.conn.execute(
            f"DROP INDEX {_quote(dropped.definition.display_name)}"
        )

    def has_index(self, definition: IndexDef) -> bool:
        return self.catalog.get_index(definition) is not None

    def index_defs(self) -> List[IndexDef]:
        return self.catalog.real_index_defs()

    # ------------------------------------------------------------------
    # bulk loading & stats
    # ------------------------------------------------------------------

    def load_rows(
        self, table: str, rows: Iterable[Tuple[object, ...]]
    ) -> int:
        """Bulk-load rows (SQLite maintains its own indexes)."""
        entry = self.catalog.table(table)
        rows = list(rows)
        if rows:
            marks = ", ".join("?" for _ in entry.schema.columns)
            self.conn.executemany(
                f"INSERT INTO {_quote(table)} VALUES ({marks})", rows
            )
            entry.heap.insert_rows(len(rows))
        self.catalog.bump_version()
        return len(rows)

    def analyze(self, table: Optional[str] = None) -> None:
        """Run real ``ANALYZE`` and pull the stats into the shadow catalog."""
        names = [table] if table else self.catalog.table_names()
        for name in names:
            fault_check(self.faults, "stats.refresh")
            self.conn.execute(f"ANALYZE {_quote(name)}")
            self._pull_stats(name)
        self.catalog.bump_version()

    def _pull_stats(self, table: str) -> None:
        """Rebuild ``TableStats`` for one table from SQLite's catalog.

        Row counts come from ``sqlite_stat1`` (the first integer of an
        index's ``stat`` column is its entry count — every table here
        carries at least its primary-key index); column distributions
        are pulled with catalog queries shaped to reproduce
        :func:`repro.engine.stats.analyze_column` exactly, down to the
        MCV tie-break (``MIN(rowid)`` matches ``Counter`` insertion
        order because rowids are assigned in insertion order).
        """
        entry = self.catalog.table(table)
        total = self._stat1_row_count(table)
        stats = TableStats(row_count=total)
        for column in entry.schema.column_names:
            stats.columns[column] = self._pull_column(
                table, column, total
            )
        entry.stats = stats

    def _stat1_row_count(self, table: str) -> int:
        try:
            rows = self.conn.execute(
                "SELECT stat FROM sqlite_stat1 "
                "WHERE tbl = ? AND idx IS NOT NULL",
                (table,),
            ).fetchall()
        except sqlite3.OperationalError:
            rows = []
        counts = []
        for (stat,) in rows:
            head = str(stat).split()[0]
            if head.isdigit():
                counts.append(int(head))
        if counts:
            return max(counts)
        row = self.conn.execute(
            f"SELECT COUNT(*) FROM {_quote(table)}"
        ).fetchone()
        return int(row[0])

    def _pull_column(
        self, table: str, column: str, total: int
    ) -> ColumnStats:
        if total == 0:
            return ColumnStats()
        q_table, q_col = _quote(table), _quote(column)
        non_null, n_distinct = self.conn.execute(
            f"SELECT COUNT({q_col}), COUNT(DISTINCT {q_col}) "
            f"FROM {q_table}"
        ).fetchone()
        null_fraction = 1.0 - non_null / total
        if non_null == 0:
            return ColumnStats(null_fraction=1.0, n_distinct=0)

        limit = "" if n_distinct <= MCV_ENTRIES else f" LIMIT {MCV_ENTRIES}"
        groups = self.conn.execute(
            f"SELECT {q_col} AS v, COUNT(*) AS c, MIN(rowid) AS fr "
            f"FROM {q_table} WHERE {q_col} IS NOT NULL "
            f"GROUP BY {q_col} ORDER BY c DESC, fr ASC{limit}"
        ).fetchall()
        if n_distinct <= MCV_ENTRIES:
            mcv = tuple((v, c / total) for v, c, _fr in groups)
        else:
            uniform = non_null / n_distinct
            mcv = tuple(
                (v, c / total)
                for v, c, _fr in groups
                if c > 1.5 * uniform
            )

        ordered = [
            row[0]
            for row in self.conn.execute(
                f"SELECT {q_col} FROM {q_table} "
                f"WHERE {q_col} IS NOT NULL ORDER BY {q_col} ASC"
            )
        ]
        buckets = min(HISTOGRAM_BUCKETS, max(1, n_distinct - 1))
        boundaries = []
        for i in range(buckets + 1):
            pos = min(
                int(round(i * (len(ordered) - 1) / buckets)),
                len(ordered) - 1,
            )
            boundaries.append(ordered[pos])
        return ColumnStats(
            null_fraction=null_fraction,
            n_distinct=n_distinct,
            min_value=ordered[0],
            max_value=ordered[-1],
            mcv=mcv,
            histogram=tuple(boundaries),
        )

    def table_row_count(self, table: str) -> int:
        return self.catalog.table(table).heap.row_count

    def table_stats(self, table: str) -> TableStats:
        return self.catalog.stats(table)

    def schema(self, table: str) -> TableSchema:
        return self.catalog.table(table).schema

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    # ------------------------------------------------------------------
    # parse / fingerprint
    # ------------------------------------------------------------------

    def parse_statement(self, sql: str) -> ast.Statement:
        fault_check(self.faults, "parser.parse")
        cached = self._statement_cache.get(sql)
        if cached is None:
            cached = parse(sql)
            if len(self._statement_cache) < 50000:
                self._statement_cache[sql] = cached
        return cached

    def fingerprint(self, statement: ast.Statement) -> str:
        return _fingerprint(statement)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self, statement: Union[str, ast.Statement]
    ) -> ExecutionOutcome:
        """Run one statement for real; cost it with the shadow planner."""
        if isinstance(statement, str):
            sql = statement
            statement = self.parse_statement(sql)
        else:
            sql = str(statement)
        plan = self.planner.plan(statement)

        cursor = self.conn.execute(sql)
        outcome = ExecutionOutcome(plan=plan, cost=plan.est_cost)
        if isinstance(plan, (InsertPlan, UpdatePlan, DeletePlan)):
            outcome.rowcount = max(cursor.rowcount, 0)
            self._account_write(plan, outcome.rowcount)
            self.catalog.bump_version()
        else:
            outcome.rows = cursor.fetchall()
            outcome.rowcount = len(outcome.rows)
        for definition in indexes_used(plan):
            shadow = self.catalog.get_index(definition)
            if shadow is not None:
                shadow.lookup_count += 1

        self.monitor.record(
            QueryRecord(
                fingerprint=_fingerprint(statement),
                cost=outcome.cost,
                is_write=ast.is_write(statement),
                indexes_used=tuple(indexes_used(plan)),
            )
        )
        return outcome

    def _account_write(self, plan: PlanNode, rowcount: int) -> None:
        """Mirror the engine executor's usage-counter semantics.

        Inserts and deletes touch every index on the table once per
        row; updates touch an index twice per row (delete + insert)
        only when a keyed column changed — or, on a partitioned
        schema, when the partition key moved rows between the trees of
        a local index.
        """
        entry = self.catalog.table(plan.table)
        if isinstance(plan, InsertPlan):
            entry.heap.insert_rows(rowcount)
            for shadow in entry.indexes.values():
                shadow.maintenance_count += rowcount
        elif isinstance(plan, UpdatePlan):
            changed = {a.column for a in plan.assignments}
            rerouting = (
                entry.schema.is_partitioned
                and entry.schema.partition_key in changed
            )
            for shadow in entry.indexes.values():
                keyed = bool(
                    set(shadow.definition.columns) & changed
                )
                rerouted = rerouting and shadow.partition_count > 1
                if keyed or rerouted:
                    shadow.maintenance_count += 2 * rowcount
        elif isinstance(plan, DeletePlan):
            entry.heap.delete_rows(rowcount)
            for shadow in entry.indexes.values():
                shadow.maintenance_count += rowcount

    def explain(self, sql: str) -> str:
        """Render the shadow planner's plan for a statement."""
        return self.planner.plan(self.parse_statement(sql)).explain()

    # ------------------------------------------------------------------
    # sizes & metrics
    # ------------------------------------------------------------------

    def index_size_bytes(self, definition: IndexDef) -> int:
        return self.catalog.index_shape(definition).byte_size

    def total_index_bytes(self) -> int:
        return self.catalog.total_index_bytes()

    def index_usage(self) -> List[IndexUsage]:
        return [
            IndexUsage(
                definition=ix.definition,
                lookups=ix.lookup_count,
                maintenance_ops=ix.maintenance_count,
                byte_size=ix.byte_size,
            )
            for ix in self.catalog.real_indexes()
        ]

    def reset_index_usage(self) -> None:
        for ix in self.catalog.real_indexes():
            ix.lookup_count = 0
            ix.maintenance_count = 0
        self._usage_epoch += 1

    def usage_epoch(self) -> int:
        """Monotone counter of out-of-band usage-counter resets."""
        return self._usage_epoch
