"""The Database facade: DDL, DML, what-if costing, and monitoring.

This is the substrate's public surface. It stands in for the openGauss
instance the paper deploys AutoIndex against:

* ``execute(sql)`` parses, plans, and runs a statement, returning rows
  plus the deterministic execution cost;
* ``create_index`` / ``drop_index`` materialise real B+Trees;
* per-index usage metrics and a workload monitor feed AutoIndex's
  diagnosis module.

The hypopg-style what-if API lives one layer up, on the ports
boundary (``repro.ports``): the tuner speaks ``TuningBackend``, and
``MemoryBackend`` adapts this facade to it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.engine.catalog import Catalog
from repro.engine.cost import CostParams, CostTracker, DEFAULT_PARAMS
from repro.engine.executor import Executor
from repro.engine.faults import FaultInjector, check as fault_check
from repro.engine.index import Index, IndexDef
from repro.engine.metrics import IndexUsage, QueryRecord, WorkloadMonitor
from repro.engine.plan import (
    DeletePlan,
    InsertPlan,
    PlanNode,
    UpdatePlan,
    indexes_used,
)
from repro.engine.planner import Planner
from repro.engine.schema import TableSchema
from repro.engine.stats import analyze_table
from repro.sql import ast, parse
from repro.sql.fingerprint import fingerprint


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Run an index build with the cyclic GC off.

    A build allocates a few tuples per row; with the collector on, a
    30k-row build pays for over a hundred young collections and
    sometimes a full one, none of which can free anything, because
    entries are acyclic tuples. Restores the collector's previous
    state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class ExecutionResult:
    """The outcome of one executed statement."""

    rows: List[Tuple[object, ...]] = field(default_factory=list)
    rowcount: int = 0
    cost: float = 0.0
    tracker: CostTracker = field(default_factory=CostTracker)
    plan: Optional[PlanNode] = None

    @property
    def scalar(self) -> object:
        """First column of the first row (for aggregate lookups)."""
        if not self.rows:
            return None
        return self.rows[0][0]


class Database:
    """An in-process relational database with cost instrumentation."""

    def __init__(
        self,
        params: CostParams = DEFAULT_PARAMS,
        faults: Optional[FaultInjector] = None,
    ):
        self.params = params
        self.faults = faults
        self.catalog = Catalog()
        self.planner = Planner(self.catalog, params, faults=faults)
        self.monitor = WorkloadMonitor()
        self._statement_cache: Dict[str, ast.Statement] = {}
        # Bumped whenever usage counters are reset out-of-band (the
        # catalog version does not move then); incremental diagnosis
        # keys its classification reuse on this.
        self._usage_epoch = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Create a table; its primary key gets a unique index."""
        self.catalog.add_table(schema)
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

    def create_index(self, definition: IndexDef) -> Index:
        """Materialise an index (bulk-built from current table data).

        Atomic with respect to the catalog: the B+Tree build happens
        *before* registration, so a build failure (including an
        injected ``index.build`` fault) leaves the catalog exactly as
        it was — no half-registered index.
        """
        entry = self.catalog.table(definition.table)
        fault_check(self.faults, "index.build")
        index = Index(definition, entry.schema)
        with _gc_paused():
            index.build(list(entry.heap.scan()))
        self.catalog.add_index(index)
        return index

    def drop_index(self, definition: IndexDef) -> None:
        # Drops share the ``index.build`` fault point with creates:
        # it fires *before* the catalog mutates, so an injected DDL
        # fault leaves the index fully in place — never half-dropped.
        fault_check(self.faults, "index.build")
        self.catalog.drop_index(definition)

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
        """Bulk-load rows without cost accounting (initial data load).

        Existing indexes are rebuilt afterwards (bulk load), matching
        how real systems load then index.
        """
        entry = self.catalog.table(table)
        count = 0
        for row in rows:
            entry.heap.insert(row)
            count += 1
        with _gc_paused():
            contents = list(entry.heap.scan())
            for index in entry.indexes.values():
                index.build(contents)
        self.catalog.bump_version()
        return count

    def analyze(self, table: Optional[str] = None) -> None:
        """Recompute statistics (ANALYZE) for one table or all."""
        names = [table] if table else self.catalog.table_names()
        for name in names:
            fault_check(self.faults, "stats.refresh")
            entry = self.catalog.table(name)
            rows = [row for _rid, row in entry.heap.scan()]
            entry.stats = analyze_table(rows, entry.schema.column_names)
        self.catalog.bump_version()

    def table_row_count(self, table: str) -> int:
        return self.catalog.table(table).heap.row_count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def parse_statement(self, sql: str) -> ast.Statement:
        fault_check(self.faults, "parser.parse")
        cached = self._statement_cache.get(sql)
        if cached is None:
            cached = parse(sql)
            if len(self._statement_cache) < 50000:
                self._statement_cache[sql] = cached
        return cached

    def execute(
        self, statement: Union[str, ast.Statement]
    ) -> ExecutionResult:
        """Parse, plan, execute, and meter one statement."""
        if isinstance(statement, str):
            statement = self.parse_statement(statement)
        tracker = CostTracker()
        statement = self._inline_subqueries(statement, tracker)
        plan = self.planner.plan(statement)
        executor = Executor(self.catalog, self.params, tracker)

        result = ExecutionResult(plan=plan, tracker=tracker)
        if isinstance(plan, InsertPlan):
            result.rowcount = executor.run_insert(plan)
            self.catalog.bump_version()
        elif isinstance(plan, UpdatePlan):
            result.rowcount = executor.run_update(plan)
            self.catalog.bump_version()
        elif isinstance(plan, DeletePlan):
            result.rowcount = executor.run_delete(plan)
            self.catalog.bump_version()
        else:
            result.rows = executor.run_select(plan)
            result.rowcount = len(result.rows)
        result.cost = tracker.total(self.params)

        self.monitor.record(
            QueryRecord(
                fingerprint=fingerprint(statement),
                cost=result.cost,
                is_write=ast.is_write(statement),
                indexes_used=tuple(indexes_used(plan)),
            )
        )
        return result

    def explain(self, sql: str) -> str:
        """Plan a statement and render the plan tree."""
        statement = self.parse_statement(sql)
        statement = self._inline_subqueries(statement, CostTracker())
        return self.planner.plan(statement).explain()

    def explain_analyze(self, sql: str) -> str:
        """Plan *and execute* a statement; render the plan tree with
        the optimizer estimate next to the measured execution cost.

        The estimate/actual gap is exactly what the paper's learned
        estimator corrects for, so this is the first tool to reach for
        when a recommendation looks off.
        """
        result = self.execute(sql)
        assert result.plan is not None
        lines = [result.plan.explain()]
        lines.append(
            f"estimated cost: {result.plan.est_cost:.2f}   "
            f"actual cost: {result.cost:.2f}   "
            f"rows: {result.rowcount}"
        )
        tracker = result.tracker
        lines.append(
            "work: "
            f"seq_pages={tracker.seq_pages:.0f} "
            f"random_pages={tracker.random_pages:.0f} "
            f"heap_tuples={tracker.heap_tuples:.0f} "
            f"index_tuples={tracker.index_tuples:.0f} "
            f"operator_ops={tracker.operator_ops:.0f}"
        )
        return "\n".join(lines)

    def _inline_subqueries(
        self, statement: ast.Statement, tracker: CostTracker
    ) -> ast.Statement:
        """Execute uncorrelated WHERE subqueries and inline results.

        ``IN (SELECT ...)`` becomes an IN-list; scalar subqueries
        become literals. Derived tables in FROM are left for the
        planner (SubqueryScanPlan).
        """
        if isinstance(statement, ast.Select):
            if statement.where is None:
                return statement
            rewritten = self._inline_expr(statement.where, tracker)
            if rewritten is statement.where:
                return statement
            return ast.Select(
                items=statement.items,
                sources=statement.sources,
                where=rewritten,
                group_by=statement.group_by,
                having=statement.having,
                order_by=statement.order_by,
                limit=statement.limit,
                distinct=statement.distinct,
            )
        if isinstance(statement, (ast.Update, ast.Delete)):
            where = getattr(statement, "where", None)
            if where is None:
                return statement
            rewritten = self._inline_expr(where, tracker)
            if rewritten is where:
                return statement
            if isinstance(statement, ast.Update):
                return ast.Update(
                    table=statement.table,
                    assignments=statement.assignments,
                    where=rewritten,
                )
            return ast.Delete(table=statement.table, where=rewritten)
        return statement

    def _inline_expr(self, expr: ast.Expr, tracker: CostTracker) -> ast.Expr:
        if isinstance(expr, ast.InSubquery):
            values = self._run_subquery(expr.select, tracker)
            items = tuple(
                ast.Literal(value=v[0]) for v in values if v and v[0] is not None
            )
            if not items:
                items = (ast.Literal(value=None),)
            return ast.InList(expr=expr.expr, items=items)
        if isinstance(expr, ast.ScalarSubquery):
            values = self._run_subquery(expr.select, tracker)
            scalar = values[0][0] if values else None
            return ast.Literal(value=scalar)
        if isinstance(expr, ast.And):
            return ast.And(
                items=tuple(self._inline_expr(i, tracker) for i in expr.items)
            )
        if isinstance(expr, ast.Or):
            return ast.Or(
                items=tuple(self._inline_expr(i, tracker) for i in expr.items)
            )
        if isinstance(expr, ast.Not):
            return ast.Not(child=self._inline_expr(expr.child, tracker))
        if isinstance(expr, ast.Comparison):
            return ast.Comparison(
                op=expr.op,
                left=self._inline_expr(expr.left, tracker),
                right=self._inline_expr(expr.right, tracker),
            )
        if isinstance(expr, ast.Arith):
            return ast.Arith(
                op=expr.op,
                left=self._inline_expr(expr.left, tracker),
                right=self._inline_expr(expr.right, tracker),
            )
        if isinstance(expr, ast.Between):
            return ast.Between(
                expr=self._inline_expr(expr.expr, tracker),
                low=self._inline_expr(expr.low, tracker),
                high=self._inline_expr(expr.high, tracker),
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                expr=self._inline_expr(expr.expr, tracker),
                items=tuple(
                    self._inline_expr(i, tracker) for i in expr.items
                ),
            )
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(
                name=expr.name,
                args=tuple(
                    self._inline_expr(a, tracker) for a in expr.args
                ),
                distinct=expr.distinct,
            )
        return expr

    def _run_subquery(
        self, select: ast.Select, tracker: CostTracker
    ) -> List[Tuple[object, ...]]:
        plan = self.planner.plan(select)
        executor = Executor(self.catalog, self.params, tracker)
        return executor.run_select(plan)

    # ------------------------------------------------------------------
    # sizes & metrics
    # ------------------------------------------------------------------

    def index_size_bytes(self, definition: IndexDef) -> int:
        """Size of an index — real bytes if built, estimated otherwise."""
        return self.catalog.index_shape(definition).byte_size

    def total_index_bytes(self) -> int:
        return self.catalog.total_index_bytes()

    def index_usage(self) -> List[IndexUsage]:
        """Current usage counters for every materialised index."""
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
