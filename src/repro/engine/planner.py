"""Cost-based query planner.

Turns resolved SQL ASTs into physical plans:

* access-path selection per relation (sequential scan vs B+Tree scan
  vs index-only scan), driven by statistics and the catalog's
  *visible* index set — which may include hypothetical indexes under a
  what-if overlay;
* greedy join ordering with a choice between hash join and
  index nested-loop join;
* sort avoidance when an index scan already delivers the requested
  order;
* write planning that charges per-index maintenance using the paper's
  Section V cost features (so hypothetical indexes penalise writes in
  what-if mode exactly as real ones would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.engine import plan as pl
from repro.engine.catalog import Catalog
from repro.engine.cost import (
    CostParams,
    DEFAULT_PARAMS,
    index_cpu_cost,
    pages_fetched,
)
from repro.engine.faults import FaultInjector, check as fault_check
from repro.engine.index import IndexDef, IndexShape
from repro.engine.metrics import CacheStats, LruCache
from repro.engine.stats import TableStats
from repro.sql import ast
from repro.sql.predicates import (
    FilterPredicate,
    classify_atom,
    conjuncts_of,
    referenced_columns,
)


class PlanningError(ValueError):
    """Raised when a statement cannot be planned (bad names, etc.)."""


@dataclass
class _Scope:
    """Name-resolution scope: binding -> ordered visible columns."""

    bindings: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def resolve(self, ref: ast.ColumnRef) -> ast.ColumnRef:
        if ref.table is not None:
            if ref.table not in self.bindings:
                raise PlanningError(f"unknown table binding {ref.table!r}")
            if ref.column not in self.bindings[ref.table]:
                raise PlanningError(
                    f"no column {ref.column!r} in {ref.table!r}"
                )
            return ref
        owners = [
            b for b, cols in self.bindings.items() if ref.column in cols
        ]
        if not owners:
            raise PlanningError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise PlanningError(
                f"ambiguous column {ref.column!r} (in {owners})"
            )
        return ast.ColumnRef(column=ref.column, table=owners[0])


@dataclass
class _BaseRel:
    """A FROM-clause relation plus its chosen standalone access path."""

    binding: str
    plan: pl.PlanNode
    table: Optional[str]  # None for derived tables
    local_predicate: Optional[ast.Expr]


class Planner:
    """Plans statements against a :class:`Catalog`."""

    def __init__(
        self,
        catalog: Catalog,
        params: CostParams = DEFAULT_PARAMS,
        plan_cache_size: int = 8192,
        faults: Optional[FaultInjector] = None,
    ):
        self.catalog = catalog
        self.params = params
        self.faults = faults
        # Access-path memo: (table, binding, predicate, needed columns,
        # servable index identity, data version) -> chosen plan.
        # Statement ASTs are immutable, so a cached subtree can be
        # grafted into any number of enclosing plans. The per-table
        # identity (not the whole configuration) is the key insight:
        # two what-if configurations that differ only on *other*
        # tables reuse this relation's access-path work. Keying on
        # the data version, not the catalog version, keeps entries
        # across index DDL: Catalog.index_identity already tells a
        # built index from its estimate wherever a plan could.
        self.plan_cache = LruCache(plan_cache_size)
        self.plan_cache_enabled = True
        self.access_paths_computed = 0

    def plan_cache_stats(self) -> CacheStats:
        return self.plan_cache.stats()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def plan(self, stmt: ast.Statement) -> pl.PlanNode:
        """Plan any supported statement (dispatch by statement type)."""
        fault_check(self.faults, "planner.plan")
        if isinstance(stmt, ast.Select):
            return self.plan_select(stmt)
        if isinstance(stmt, ast.Insert):
            return self.plan_insert(stmt)
        if isinstance(stmt, ast.Update):
            return self.plan_update(stmt)
        if isinstance(stmt, ast.Delete):
            return self.plan_delete(stmt)
        raise PlanningError(f"cannot plan {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def plan_select(self, select: ast.Select) -> pl.PlanNode:
        """Plan a SELECT: resolve names, choose access paths, order
        joins, and place filter/aggregate/sort/limit operators."""
        scope = self._scope_for(select.sources)
        where = self._qualify_opt(select.where, scope)
        items = tuple(
            ast.SelectItem(expr=self._qualify(i.expr, scope), alias=i.alias)
            for i in select.items
        )
        # SELECT-list aliases are visible (at top level) in GROUP BY,
        # HAVING, and ORDER BY, per standard SQL scoping.
        aliases = {i.alias: i.expr for i in items if i.alias}

        def substitute_aliases(expr: ast.Expr) -> ast.Expr:
            """Replace bare alias references with the aliased expression
            (real columns shadow aliases, per SQL scoping)."""
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                if expr.column in aliases and not any(
                    expr.column in cols for cols in scope.bindings.values()
                ):
                    return aliases[expr.column]
                return expr
            cls_fields = getattr(expr, "__dataclass_fields__", None)
            if not cls_fields:
                return expr
            changes = {}
            for name in cls_fields:
                value = getattr(expr, name)
                if isinstance(value, ast.Expr):
                    changes[name] = substitute_aliases(value)
                elif isinstance(value, tuple) and value and all(
                    isinstance(v, ast.Expr) for v in value
                ):
                    changes[name] = tuple(
                        substitute_aliases(v) for v in value
                    )
            if not changes:
                return expr
            from dataclasses import replace

            return replace(expr, **changes)

        def qualify_out(expr: ast.Expr) -> ast.Expr:
            return self._qualify(substitute_aliases(expr), scope)

        group_by = tuple(qualify_out(g) for g in select.group_by)
        having = (
            None if select.having is None else qualify_out(select.having)
        )
        order_by = tuple(
            ast.OrderItem(expr=qualify_out(o.expr), descending=o.descending)
            for o in select.order_by
        )

        needed = self._needed_columns(items, where, group_by, having, order_by)
        conjuncts = conjuncts_of(where)
        local, join_preds, cross = self._partition_conjuncts(
            conjuncts, scope
        )

        rels = {
            src.binding: self._plan_source(src, local.get(src.binding), needed)
            for src in select.sources
        }
        joined = self._plan_joins(rels, join_preds, cross, list(scope.bindings))

        plan = joined
        aggregates = self._collect_aggregates(items, having, order_by)
        if group_by or aggregates:
            agg = pl.AggregatePlan(
                child=plan, group_exprs=group_by, aggregates=tuple(aggregates)
            )
            group_distinct = max(
                1.0,
                plan.est_rows
                ** (0.7 if group_by else 0.0),  # heuristic group count
            )
            agg.est_rows = group_distinct if group_by else 1.0
            agg.est_cost = plan.est_cost + plan.est_rows * (
                self.params.cpu_operator_cost * (1 + len(aggregates))
            )
            plan = agg
            if having is not None:
                flt = pl.FilterPlan(child=plan, predicate=having)
                flt.est_rows = max(plan.est_rows * 0.5, 1.0)
                flt.est_cost = plan.est_cost + plan.est_rows * (
                    self.params.cpu_operator_cost
                )
                plan = flt

        if order_by and not self._order_satisfied(plan, order_by):
            sort = pl.SortPlan(child=plan, keys=order_by)
            rows = max(plan.est_rows, 1.0)
            sort.est_rows = plan.est_rows
            sort.est_cost = plan.est_cost + rows * math.log2(rows + 1) * (
                self.params.cpu_operator_cost * 2
            )
            plan = sort

        project = pl.ProjectPlan(
            child=plan,
            items=items,
            star_bindings=tuple(scope.bindings),
        )
        project.est_rows = plan.est_rows
        project.est_cost = plan.est_cost + plan.est_rows * (
            self.params.cpu_operator_cost * max(len(items), 1)
        )
        plan = project

        if select.distinct:
            distinct = pl.DistinctPlan(child=plan)
            distinct.est_rows = max(plan.est_rows * 0.8, 1.0)
            distinct.est_cost = plan.est_cost + plan.est_rows * (
                self.params.cpu_operator_cost
            )
            plan = distinct

        if select.limit is not None:
            limited = pl.LimitPlan(child=plan, limit=select.limit)
            limited.est_rows = min(plan.est_rows, select.limit)
            limited.est_cost = plan.est_cost
            plan = limited
        return plan

    # -- scope / resolution ------------------------------------------------

    def _scope_for(self, sources: Sequence[ast.Source]) -> _Scope:
        scope = _Scope()
        for src in sources:
            if isinstance(src, ast.TableRef):
                if not self.catalog.has_table(src.name):
                    raise PlanningError(f"unknown table {src.name!r}")
                schema = self.catalog.table(src.name).schema
                scope.bindings[src.binding] = schema.column_names
            else:
                scope.bindings[src.binding] = self._subquery_outputs(
                    src.select
                )
        return scope

    def _subquery_outputs(self, select: ast.Select) -> Tuple[str, ...]:
        names: List[str] = []
        for i, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                inner_scope = self._scope_for(select.sources)
                for binding in (
                    [item.expr.table] if item.expr.table else inner_scope.bindings
                ):
                    names.extend(inner_scope.bindings[binding])
                continue
            names.append(_output_name(item, i))
        return tuple(names)

    # lint: exhaustive[Expr] fallthrough=Literal,Placeholder,Star
    def _qualify(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            return scope.resolve(expr)
        if isinstance(expr, ast.Comparison):
            return ast.Comparison(
                op=expr.op,
                left=self._qualify(expr.left, scope),
                right=self._qualify(expr.right, scope),
            )
        if isinstance(expr, ast.Between):
            return ast.Between(
                expr=self._qualify(expr.expr, scope),
                low=self._qualify(expr.low, scope),
                high=self._qualify(expr.high, scope),
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                expr=self._qualify(expr.expr, scope),
                items=tuple(self._qualify(i, scope) for i in expr.items),
            )
        if isinstance(expr, ast.Like):
            return ast.Like(
                expr=self._qualify(expr.expr, scope),
                pattern=self._qualify(expr.pattern, scope),
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(
                expr=self._qualify(expr.expr, scope), negated=expr.negated
            )
        if isinstance(expr, ast.And):
            return ast.And(
                items=tuple(self._qualify(i, scope) for i in expr.items)
            )
        if isinstance(expr, ast.Or):
            return ast.Or(
                items=tuple(self._qualify(i, scope) for i in expr.items)
            )
        if isinstance(expr, ast.Not):
            return ast.Not(child=self._qualify(expr.child, scope))
        if isinstance(expr, ast.Arith):
            return ast.Arith(
                op=expr.op,
                left=self._qualify(expr.left, scope),
                right=self._qualify(expr.right, scope),
            )
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(
                name=expr.name,
                args=tuple(self._qualify(a, scope) for a in expr.args),
                distinct=expr.distinct,
            )
        if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery)):
            raise PlanningError(
                "subqueries in WHERE must be inlined before planning "
                "(Database.execute does this automatically)"
            )
        return expr  # Literal, Placeholder, Star

    def _qualify_opt(
        self, expr: Optional[ast.Expr], scope: _Scope
    ) -> Optional[ast.Expr]:
        return None if expr is None else self._qualify(expr, scope)

    # -- conjunct partitioning ------------------------------------------------

    def _partition_conjuncts(
        self, conjuncts: Sequence[ast.Expr], scope: _Scope
    ) -> Tuple[
        Dict[str, List[ast.Expr]],
        List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]],
        List[ast.Expr],
    ]:
        """Split WHERE conjuncts into per-binding, equi-join, and cross."""
        local: Dict[str, List[ast.Expr]] = {}
        joins: List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]] = []
        cross: List[ast.Expr] = []
        for conj in conjuncts:
            bindings = {t for t, _ in referenced_columns(conj) if t}
            if len(bindings) <= 1:
                binding = next(iter(bindings), None)
                if binding is None:
                    cross.append(conj)  # constant predicate
                else:
                    local.setdefault(binding, []).append(conj)
                continue
            kind, payload = classify_atom(conj)
            if kind == "join" and len(bindings) == 2:
                joins.append((payload.left, payload.right, conj))
            else:
                cross.append(conj)
        return local, joins, cross

    def _needed_columns(self, items, where, group_by, having, order_by):
        """All (binding, column) pairs the query touches, per binding."""
        needed: Dict[str, Set[str]] = {}
        nodes: List[ast.Node] = [i.expr for i in items]
        nodes.extend(group_by)
        nodes.extend(o.expr for o in order_by)
        if where is not None:
            nodes.append(where)
        if having is not None:
            nodes.append(having)
        star_seen = [False]

        def collect(sub: ast.Node) -> None:
            if isinstance(sub, ast.FuncCall):
                # COUNT(*) needs no columns at all — don't let its
                # star disable index-only scans.
                for arg in sub.args:
                    if not isinstance(arg, ast.Star):
                        collect(arg)
                return
            if isinstance(sub, ast.Star):
                star_seen[0] = True
                return
            if isinstance(sub, ast.ColumnRef):
                if sub.table:
                    needed.setdefault(sub.table, set()).add(sub.column)
                return
            for child in ast._children(sub):
                collect(child)

        for node in nodes:
            collect(node)
        if star_seen[0]:
            return None  # everything needed; disables index-only scans
        return needed

    # -- base relations -------------------------------------------------------

    def _plan_source(
        self,
        src: ast.Source,
        local_conjuncts: Optional[List[ast.Expr]],
        needed: Optional[Dict[str, Set[str]]],
    ) -> _BaseRel:
        predicate = _and_all(local_conjuncts or [])
        if isinstance(src, ast.SubquerySource):
            child = self.plan_select(src.select)
            outputs = self._subquery_outputs(src.select)
            sub = pl.SubqueryScanPlan(
                child=child,
                binding=src.binding,
                output_columns=outputs,
                items=tuple(src.select.items),
            )
            sub.est_rows = child.est_rows
            sub.est_cost = child.est_cost
            plan: pl.PlanNode = sub
            if predicate is not None:
                flt = pl.FilterPlan(child=plan, predicate=predicate)
                flt.est_rows = max(plan.est_rows * 0.3, 1.0)
                flt.est_cost = plan.est_cost + plan.est_rows * (
                    self.params.cpu_operator_cost
                )
                plan = flt
            return _BaseRel(
                binding=src.binding, plan=plan, table=None,
                local_predicate=predicate,
            )

        needed_cols = None if needed is None else needed.get(src.binding)
        plan = self.best_access_path(
            src.name, src.binding, predicate, needed_cols
        )
        return _BaseRel(
            binding=src.binding,
            plan=plan,
            table=src.name,
            local_predicate=predicate,
        )

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def best_access_path(
        self,
        table: str,
        binding: str,
        predicate: Optional[ast.Expr],
        needed_columns: Optional[Set[str]] = None,
    ) -> pl.PlanNode:
        """Choose the cheapest access path for one relation.

        Results are memoized on (table, binding, predicate, needed
        columns, *servable* index identity, data version); the
        returned plan node must therefore never be mutated by callers
        — wrap it instead.

        The identity component covers only the visible indexes whose
        lead column is sargable for this predicate — the only ones
        :meth:`_match_index` can turn into a plan. Keying on the full
        visible set made every candidate configuration a unique key
        (hypothetical indexes on unrelated columns churned it), so
        repeated configurations never hit.
        """
        eq_map, range_map = self._sargable_maps(predicate, binding)
        servable = [
            d
            for d in self.catalog.visible_index_defs(table)
            if d.columns
            and (d.columns[0] in eq_map or d.columns[0] in range_map)
        ]
        cache_key = None
        if self.plan_cache_enabled:
            cache_key = (
                "access",
                table,
                binding,
                predicate,
                None if needed_columns is None else frozenset(needed_columns),
                self.catalog.index_identity(servable),
                self.catalog.data_version,
            )
            cached = self.plan_cache.get(cache_key)
            if cached is not None:
                return cached
        self.access_paths_computed += 1
        entry = self.catalog.table(table)
        stats = entry.stats
        selectivity = self.estimate_selectivity(predicate, stats, binding)
        rows = max(stats.row_count * selectivity, 0.0)

        seq = pl.SeqScanPlan(table=table, binding=binding, predicate=predicate)
        seq.est_rows = rows
        seq.est_cost = (
            max(entry.heap.page_count, 1) * self.params.seq_page_cost
            + stats.row_count * self.params.cpu_tuple_cost
            + stats.row_count
            * self.params.cpu_operator_cost
            * max(len(conjuncts_of(predicate)), 1)
        )
        best: pl.PlanNode = seq

        for index_def in servable:
            candidate = self._match_index(
                index_def,
                table,
                binding,
                predicate,
                eq_map,
                range_map,
                stats,
                rows,
                needed_columns,
            )
            if candidate is not None and candidate.est_cost < best.est_cost:
                best = candidate
        if cache_key is not None:
            self.plan_cache.put(cache_key, best)
        return best

    def _sargable_maps(
        self, predicate: Optional[ast.Expr], binding: str
    ) -> Tuple[
        Dict[str, ast.Expr],
        Dict[str, Tuple[Optional[ast.Expr], Optional[ast.Expr], bool, bool]],
    ]:
        """Extract per-column equality and range bounds from conjuncts."""
        eq_map: Dict[str, ast.Expr] = {}
        range_map: Dict[
            str, Tuple[Optional[ast.Expr], Optional[ast.Expr], bool, bool]
        ] = {}
        for conj in conjuncts_of(predicate):
            kind, payload = classify_atom(conj)
            if kind != "filter":
                continue
            fp: FilterPredicate = payload  # type: ignore[assignment]
            if fp.column.table not in (binding, None):
                continue
            col = fp.column.column
            value_exprs = _value_exprs_of(conj)
            if fp.op == "=" and col not in eq_map and value_exprs:
                eq_map[col] = value_exprs[0]
            elif fp.op == "isnull" and col not in eq_map:
                # B+Tree keys store NULLs (sorted first), so IS NULL
                # is an equality probe on the NULL key.
                eq_map[col] = ast.Literal(value=None)
            elif fp.op in ("<", "<=") and value_exprs:
                low, high, li, hi_ = range_map.get(col, (None, None, True, True))
                range_map[col] = (low, value_exprs[0], li, fp.op == "<=")
            elif fp.op in (">", ">=") and value_exprs:
                low, high, li, hi_ = range_map.get(col, (None, None, True, True))
                range_map[col] = (value_exprs[0], high, fp.op == ">=", hi_)
            elif fp.op == "between" and len(value_exprs) == 2:
                range_map[col] = (value_exprs[0], value_exprs[1], True, True)
            elif fp.op == "like" and value_exprs:
                bounds = _like_prefix_bounds(value_exprs[0])
                if bounds is not None:
                    range_map[col] = bounds
        return eq_map, range_map

    def _match_index(
        self,
        index_def: IndexDef,
        table: str,
        binding: str,
        predicate: Optional[ast.Expr],
        eq_map: Dict[str, ast.Expr],
        range_map: Dict,
        stats: TableStats,
        result_rows: float,
        needed_columns: Optional[Set[str]],
    ) -> Optional[pl.IndexScanPlan]:
        """Build an index-scan plan if the index's prefix is sargable."""
        eq_exprs: List[ast.Expr] = []
        eq_columns: List[str] = []
        range_spec = None
        for col in index_def.columns:
            if col in eq_map:
                eq_exprs.append(eq_map[col])
                eq_columns.append(col)
                continue
            if col in range_map:
                range_spec = (col,) + range_map[col]
            break
        if not eq_exprs and range_spec is None:
            return None

        prefix_sel = 1.0
        for col, expr in zip(eq_columns, eq_exprs):
            prefix_sel *= stats.column(col).eq_selectivity(_literal_value(expr))
        scan_sel = prefix_sel
        if range_spec is not None:
            col, low, high, li, hi_inc = range_spec
            scan_sel *= stats.column(col).range_selectivity(
                _literal_value(low), _literal_value(high), li, hi_inc
            )

        shape = self.catalog.index_shape(index_def)
        index_only = (
            needed_columns is not None
            and needed_columns <= set(index_def.columns)
        )
        plan = pl.IndexScanPlan(
            table=table,
            binding=binding,
            index=index_def,
            eq_exprs=tuple(eq_exprs),
            predicate=predicate,
            index_only=index_only,
        )
        if range_spec is not None:
            col, low, high, li, hi_inc = range_spec
            plan.range_column = col
            plan.range_low = low
            plan.range_high = high
            plan.range_low_inclusive = li
            plan.range_high_inclusive = hi_inc
        plan.est_rows = result_rows
        heap_pages = self.catalog.table(table).heap.page_count
        probes = self._probe_count(index_def, table, eq_columns)
        plan.est_cost = self.index_scan_cost(
            shape, scan_sel, stats.row_count, index_only, heap_pages,
            probes,
        )
        return plan

    def _probe_count(
        self, index_def: IndexDef, table: str, eq_columns: List[str]
    ) -> int:
        """Trees a lookup must descend: 1 unless the index is LOCAL on
        a partitioned table and the partition key is not bound."""
        shape = self.catalog.index_shape(index_def)
        if shape.partitions <= 1:
            return 1
        schema = self.catalog.table(table).schema
        if schema.partition_key in eq_columns:
            return 1
        return shape.partitions

    def index_scan_cost(
        self,
        shape: IndexShape,
        scan_selectivity: float,
        table_rows: int,
        index_only: bool,
        heap_pages: float = 0.0,
        probes: int = 1,
    ) -> float:
        """Optimizer cost of one B+Tree scan with given selectivity.

        Heap access is bitmap-style: matched rows are fetched in rid
        order, so the IO charge is the expected number of *distinct*
        heap pages (Cardenas), not one random page per row. ``probes``
        multiplies the descent cost — a LOCAL index on a partitioned
        table descends one tree per partition unless the lookup prunes.
        """
        matched = max(scan_selectivity * max(table_rows, 1), 0.0)
        descent = shape.height * self.params.random_page_cost * max(probes, 1)
        leaf_pages = max(1.0, math.ceil(scan_selectivity * shape.leaf_pages))
        leaf_io = leaf_pages * self.params.random_page_cost
        entry_cpu = matched * self.params.cpu_index_tuple_cost
        if index_only:
            heap = 0.0
        else:
            heap = (
                pages_fetched(matched, heap_pages)
                * self.params.random_page_cost
                + matched * self.params.cpu_tuple_cost
            )
        return descent + leaf_io + entry_cpu + heap

    def parameterized_index_path(
        self,
        table: str,
        binding: str,
        join_column: str,
        outer_expr: ast.Expr,
        local_predicate: Optional[ast.Expr],
    ) -> Optional[pl.IndexScanPlan]:
        """An inner index scan probed once per outer row (index NL join).

        The join column may follow a prefix of columns bound by the
        inner relation's own equality filters — e.g. probing a
        composite primary key (s_w_id, s_i_id) with a constant s_w_id
        and the join key s_i_id from the outer row.
        """
        eq_map, _ranges = self._sargable_maps(local_predicate, binding)
        # As in best_access_path, the memo key fingerprints only the
        # indexes this probe could use: those reaching the join column
        # through a prefix of locally-bound equality columns.
        servable = [
            d
            for d in self.catalog.visible_index_defs(table)
            if _param_usable(d, join_column, eq_map)
        ]
        cache_key = None
        if self.plan_cache_enabled:
            cache_key = (
                "param",
                table,
                binding,
                join_column,
                outer_expr,
                local_predicate,
                self.catalog.index_identity(servable),
                self.catalog.data_version,
            )
            cached = self.plan_cache.get(cache_key)
            if cached is not None:
                return cached or None  # False sentinel = "no path"
        self.access_paths_computed += 1
        stats = self.catalog.stats(table)
        best: Optional[pl.IndexScanPlan] = None
        for index_def in servable:
            eq_exprs: List[ast.Expr] = []
            prefix_sel = 1.0
            matched_join = False
            for col in index_def.columns:
                if col == join_column:
                    eq_exprs.append(outer_expr)
                    prefix_sel *= stats.column(col).eq_selectivity(None)
                    matched_join = True
                    break
                if col in eq_map:
                    eq_exprs.append(eq_map[col])
                    prefix_sel *= stats.column(col).eq_selectivity(
                        _literal_value(eq_map[col])
                    )
                    continue
                break
            if not matched_join:
                continue
            plan = pl.IndexScanPlan(
                table=table,
                binding=binding,
                index=index_def,
                eq_exprs=tuple(eq_exprs),
                predicate=local_predicate,
            )
            local_sel = self.estimate_selectivity(
                local_predicate, stats, binding
            )
            shape = self.catalog.index_shape(index_def)
            plan.est_rows = max(
                stats.row_count
                * stats.column(join_column).eq_selectivity(None)
                * local_sel,
                0.0,
            )
            heap_pages = self.catalog.table(table).heap.page_count
            bound_columns = list(
                index_def.columns[: len(eq_exprs)]
            )
            probes = self._probe_count(index_def, table, bound_columns)
            plan.est_cost = self.index_scan_cost(
                shape, prefix_sel, stats.row_count, False, heap_pages,
                probes,
            )
            if best is None or plan.est_cost < best.est_cost:
                best = plan
        if cache_key is not None:
            # Store False (not None) so "no usable index" also caches.
            self.plan_cache.put(cache_key, best if best is not None else False)
        return best

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _plan_joins(
        self,
        rels: Dict[str, _BaseRel],
        join_preds: List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]],
        cross: List[ast.Expr],
        order_hint: List[str],
    ) -> pl.PlanNode:
        if len(rels) == 1:
            plan = next(iter(rels.values())).plan
        else:
            plan = self._greedy_join(rels, join_preds, order_hint)
        if cross:
            predicate = _and_all(cross)
            flt = pl.FilterPlan(child=plan, predicate=predicate)
            flt.est_rows = max(plan.est_rows * 0.3, 1.0)
            flt.est_cost = plan.est_cost + plan.est_rows * (
                self.params.cpu_operator_cost * len(cross)
            )
            plan = flt
        return plan

    def _greedy_join(
        self,
        rels: Dict[str, _BaseRel],
        join_preds: List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]],
        order_hint: List[str],
    ) -> pl.PlanNode:
        remaining = dict(rels)
        start_binding = min(
            remaining, key=lambda b: (remaining[b].plan.est_rows, order_hint.index(b))
        )
        current = remaining.pop(start_binding)
        plan = current.plan
        joined: Set[str] = {start_binding}
        pending = list(join_preds)

        while remaining:
            step = self._pick_join_step(plan, joined, remaining, pending)
            if step is None:
                # No connecting predicate: cartesian with the smallest.
                binding = min(
                    remaining, key=lambda b: remaining[b].plan.est_rows
                )
                rel = remaining.pop(binding)
                nl = pl.NestedLoopPlan(outer=plan, inner=rel.plan)
                nl.est_rows = max(plan.est_rows * rel.plan.est_rows, 1.0)
                nl.est_cost = (
                    plan.est_cost
                    + max(plan.est_rows, 1.0) * rel.plan.est_cost
                )
                plan = nl
                joined.add(binding)
                continue
            plan, binding, used = step
            joined.add(binding)
            remaining.pop(binding)
            pending = [p for p in pending if p not in used]
        return plan

    def _pick_join_step(
        self,
        outer: pl.PlanNode,
        joined: Set[str],
        remaining: Dict[str, _BaseRel],
        pending: List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]],
    ) -> Optional[Tuple[pl.PlanNode, str, List]]:
        best: Optional[Tuple[float, pl.PlanNode, str, List]] = None
        for binding, rel in remaining.items():
            usable = []
            for pred in pending:
                left, right, _conj = pred
                sides = {left.table, right.table}
                if binding in sides and (sides - {binding}) <= joined:
                    usable.append(pred)
            if not usable:
                continue
            candidate = self._build_join(outer, rel, usable)
            if best is None or candidate.est_cost < best[0]:
                best = (candidate.est_cost, candidate, binding, usable)
        if best is None:
            return None
        _, candidate, binding, usable = best
        return candidate, binding, usable

    def _build_join(
        self,
        outer: pl.PlanNode,
        rel: _BaseRel,
        preds: List[Tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]],
    ) -> pl.PlanNode:
        """Build the cheaper of hash join / index NL for this step."""
        outer_keys: List[ast.Expr] = []
        inner_keys: List[ast.Expr] = []
        for left, right, _conj in preds:
            if left.table == rel.binding:
                inner_keys.append(left)
                outer_keys.append(right)
            else:
                inner_keys.append(right)
                outer_keys.append(left)

        join_rows = self._join_cardinality(outer, rel, inner_keys)

        hash_join = pl.HashJoinPlan(
            left=outer,
            right=rel.plan,
            left_keys=tuple(outer_keys),
            right_keys=tuple(inner_keys),
        )
        hash_join.est_rows = join_rows
        hash_join.est_cost = (
            outer.est_cost
            + rel.plan.est_cost
            + rel.plan.est_rows * self.params.cpu_operator_cost * 2
            + outer.est_rows * self.params.cpu_operator_cost * 2
        )
        best: pl.PlanNode = hash_join

        if rel.table is not None:
            first_inner = inner_keys[0]
            param_scan = self.parameterized_index_path(
                rel.table,
                rel.binding,
                first_inner.column,
                outer_keys[0],
                rel.local_predicate,
            )
            if param_scan is not None:
                residual = _and_all(
                    [conj for _, _, conj in preds[1:]]
                )
                nl = pl.NestedLoopPlan(
                    outer=outer, inner=param_scan, predicate=residual
                )
                nl.est_rows = join_rows
                nl.est_cost = (
                    outer.est_cost
                    + max(outer.est_rows, 1.0) * param_scan.est_cost
                )
                if nl.est_cost < best.est_cost:
                    best = nl
        return best

    def _join_cardinality(
        self,
        outer: pl.PlanNode,
        rel: _BaseRel,
        inner_keys: List[ast.ColumnRef],
    ) -> float:
        distinct = 1.0
        if rel.table is not None and inner_keys:
            stats = self.catalog.stats(rel.table)
            distinct = max(
                float(stats.column(inner_keys[0].column).n_distinct), 1.0
            )
        denom = max(distinct, 1.0)
        return max(outer.est_rows * rel.plan.est_rows / denom, 1.0)

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------

    def _order_satisfied(
        self, plan: pl.PlanNode, order_by: Tuple[ast.OrderItem, ...]
    ) -> bool:
        """True if ``plan`` already emits rows in the requested order."""
        node = plan
        while isinstance(node, (pl.ProjectPlan, pl.FilterPlan, pl.LimitPlan)):
            node = node.child
        if not isinstance(node, pl.IndexScanPlan):
            return False
        if any(o.descending for o in order_by):
            return False
        offset = len(node.eq_exprs)
        available = node.index.columns[offset:]
        wanted: List[str] = []
        for item in order_by:
            if not isinstance(item.expr, ast.ColumnRef):
                return False
            if item.expr.table != node.binding:
                return False
            wanted.append(item.expr.column)
        return tuple(wanted) == tuple(available[: len(wanted)])

    # ------------------------------------------------------------------
    # selectivity
    # ------------------------------------------------------------------

    @staticmethod
    def _unique_atoms(items) -> List[ast.Expr]:
        """Items deduped on semantic identity, order preserved.

        Independence-assumption selectivity math squares (or worse)
        when the same condition appears twice, so equivalent atoms
        that merely differ in spelling must collapse: an IN-list is
        keyed by its value set, and a one-element IN is the same atom
        as the corresponding equality.
        """
        seen = {}
        for item in items:
            key: object = item
            if isinstance(item, ast.InList):
                values = frozenset(item.items)
                if len(values) == 1:
                    (only,) = values
                    key = ("=", item.expr, only)
                else:
                    key = ("in", item.expr, values)
            elif isinstance(item, ast.Comparison) and item.op == "=":
                key = ("=", item.left, item.right)
            if key not in seen:
                seen[key] = item
        return list(seen.values())

    @staticmethod
    def _merged_range_selectivity(
        atoms: Sequence[ast.Expr], stats: TableStats
    ) -> Tuple[float, List[ast.Expr]]:
        """Estimate multi-bound range conjuncts as single intervals.

        Under the independence assumption ``b > 9 AND b < 10``
        multiplies two loose one-sided selectivities, grossly
        overestimating narrow (or empty) ranges. Bounds on the same
        column are intersected instead and estimated with one
        ``range_selectivity`` call. Returns the merged selectivity
        product plus the atoms left for the per-atom path — columns
        with fewer than two usable bounds, unknown values
        (placeholders), and non-comparable bound types all fall back.
        """
        bounds: Dict[str, List[Tuple[str, Tuple[object, ...]]]] = {}
        atoms_by_column: Dict[str, List[ast.Expr]] = {}
        for atom in atoms:
            kind, payload = classify_atom(atom)
            if kind != "filter":
                continue
            fp: FilterPredicate = payload  # type: ignore[assignment]
            if fp.op not in ("<", "<=", ">", ">=", "between"):
                continue
            if not fp.values or any(v is None for v in fp.values):
                continue
            bounds.setdefault(fp.column.column, []).append(
                (fp.op, fp.values)
            )
            atoms_by_column.setdefault(fp.column.column, []).append(atom)
        sel = 1.0
        merged_atoms: set = set()
        for column, entries in bounds.items():
            if len(entries) < 2:
                continue
            interval = _intersect_bounds(entries)
            if interval is None:
                continue
            low, high, low_inc, high_inc = interval
            sel *= stats.column(column).range_selectivity(
                low, high, low_inc, high_inc
            )
            merged_atoms.update(id(a) for a in atoms_by_column[column])
        rest = [a for a in atoms if id(a) not in merged_atoms]
        return sel, rest

    def estimate_selectivity(
        self,
        predicate: Optional[ast.Expr],
        stats: TableStats,
        binding: str,
    ) -> float:
        if predicate is None:
            return 1.0
        if isinstance(predicate, ast.And):
            # Dedupe repeated conjuncts: `a IN (1,2) AND a IN (2,1)`
            # must not square the selectivity. Atoms are deduped on a
            # canonical key (IN-lists by value *set*, one-element
            # IN ≡ equality), not raw node equality.
            atoms = self._unique_atoms(predicate.items)
            sel, rest = self._merged_range_selectivity(atoms, stats)
            for item in rest:
                sel *= self.estimate_selectivity(item, stats, binding)
            return sel
        if isinstance(predicate, ast.Or):
            sel = 0.0
            for item in self._unique_atoms(predicate.items):
                s = self.estimate_selectivity(item, stats, binding)
                sel = sel + s - sel * s
            return sel
        if isinstance(predicate, ast.Not):
            return max(
                1.0 - self.estimate_selectivity(predicate.child, stats, binding),
                1e-9,
            )
        kind, payload = classify_atom(predicate)
        if kind == "filter":
            fp: FilterPredicate = payload  # type: ignore[assignment]
            return stats.column(fp.column.column).selectivity(fp.op, fp.values)
        if kind == "join":
            return 1.0  # handled at the join step
        return 0.25  # unknown atom

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def plan_insert(self, stmt: ast.Insert) -> pl.InsertPlan:
        """Plan an INSERT; cost = heap IO + per-index maintenance."""
        if not self.catalog.has_table(stmt.table):
            raise PlanningError(f"unknown table {stmt.table!r}")
        schema = self.catalog.table(stmt.table).schema
        for col in stmt.columns:
            if not schema.has_column(col):
                raise PlanningError(
                    f"no column {col!r} in table {stmt.table!r}"
                )
        rows = tuple(
            tuple(_require_literal(v) for v in row) for row in stmt.rows
        )
        plan = pl.InsertPlan(table=stmt.table, columns=stmt.columns, rows=rows)
        plan.est_rows = float(len(rows))
        plan.est_cost = len(rows) * (
            self.params.random_page_cost + self.params.cpu_tuple_cost
        ) + len(rows) * self.maintenance_cost_per_row(stmt.table)
        return plan

    def plan_update(self, stmt: ast.Update) -> pl.UpdatePlan:
        """Plan an UPDATE: scan access path + maintenance on indexes
        covering any assigned column."""
        scope = self._scope_for((ast.TableRef(name=stmt.table),))
        where = self._qualify_opt(stmt.where, scope)
        schema = self.catalog.table(stmt.table).schema
        for a in stmt.assignments:
            if not schema.has_column(a.column):
                raise PlanningError(
                    f"no column {a.column!r} in table {stmt.table!r}"
                )
        assignments = tuple(
            ast.Assignment(
                column=a.column, value=self._qualify(a.value, scope)
            )
            for a in stmt.assignments
        )
        child = self.best_access_path(stmt.table, stmt.table, where)
        plan = pl.UpdatePlan(
            child=child,
            table=stmt.table,
            binding=stmt.table,
            assignments=assignments,
        )
        changed = {a.column for a in assignments}
        plan.est_rows = child.est_rows
        plan.est_cost = child.est_cost + child.est_rows * (
            self.params.random_page_cost
            + self.maintenance_cost_per_row(stmt.table, changed)
        )
        return plan

    def plan_delete(self, stmt: ast.Delete) -> pl.DeletePlan:
        """Plan a DELETE; per the paper, no index maintenance charge."""
        scope = self._scope_for((ast.TableRef(name=stmt.table),))
        where = self._qualify_opt(stmt.where, scope)
        child = self.best_access_path(stmt.table, stmt.table, where)
        plan = pl.DeletePlan(child=child, table=stmt.table, binding=stmt.table)
        plan.est_rows = child.est_rows
        # Per the paper's model, DELETE defers index maintenance: only
        # heap work is charged.
        plan.est_cost = child.est_cost + child.est_rows * (
            self.params.random_page_cost
        )
        return plan

    def maintenance_components_per_row(
        self, table: str, changed_columns: Optional[Set[str]] = None
    ) -> Tuple[float, float]:
        """Per-row index maintenance (io, cpu) over *visible* indexes.

        Implements the Section V formulas: ``C_cpu = t_start +
        t_running`` per affected index, plus amortized page-write IO
        (one leaf write per insert plus 1/fanout of split writes).
        Under a what-if overlay this charges hypothetical indexes too,
        which is how the advisor sees the write penalty of a candidate
        before building it.
        """
        io_total = 0.0
        cpu_total = 0.0
        schema = self.catalog.table(table).schema
        partition_moves = (
            changed_columns is not None
            and schema.partition_key is not None
            and schema.partition_key in changed_columns
        )
        for index_def in self.catalog.visible_index_defs(table):
            keyed = changed_columns is None or bool(
                set(index_def.columns) & changed_columns
            )
            rerouted = partition_moves and (
                index_def.scope.value == "local" and schema.is_partitioned
            )
            if not keyed and not rerouted:
                continue
            shape = self.catalog.index_shape(index_def)
            cpu_total += index_cpu_cost(
                max(shape.entry_count, 1), shape.height, 1, self.params
            )
            leaf_fanout = max(
                shape.entry_count / max(shape.leaf_pages, 1), 8.0
            )
            io_total += (1.0 + 1.0 / leaf_fanout) * self.params.seq_page_cost
        return io_total, cpu_total

    def maintenance_cost_per_row(
        self, table: str, changed_columns: Optional[Set[str]] = None
    ) -> float:
        """Scalar form of :meth:`maintenance_components_per_row`."""
        io, cpu = self.maintenance_components_per_row(table, changed_columns)
        return io + cpu

    # ------------------------------------------------------------------
    # collection helpers
    # ------------------------------------------------------------------

    def _collect_aggregates(
        self,
        items: Tuple[ast.SelectItem, ...],
        having: Optional[ast.Expr],
        order_by: Tuple[ast.OrderItem, ...],
    ) -> List[ast.FuncCall]:
        seen: Dict[str, ast.FuncCall] = {}
        nodes: List[ast.Node] = [i.expr for i in items]
        if having is not None:
            nodes.append(having)
        nodes.extend(o.expr for o in order_by)
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.FuncCall) and sub.is_aggregate:
                    seen.setdefault(str(sub), sub)
        return list(seen.values())


# ---------------------------------------------------------------------------
# module helpers
# ---------------------------------------------------------------------------


def _and_all(conjuncts: List[ast.Expr]) -> Optional[ast.Expr]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ast.And(items=tuple(conjuncts))


def _output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column
    return f"c{position}"


def _intersect_bounds(
    entries: Sequence[Tuple[str, Tuple[object, ...]]],
) -> Optional[Tuple[object, object, bool, bool]]:
    """Intersect ``(op, values)`` range bounds into one interval.

    Returns ``(low, high, low_inclusive, high_inclusive)`` with open
    ends as ``None``, or ``None`` when any pair of bounds is not
    mutually comparable (mixed types) — callers then fall back to
    independent per-atom estimation. An exclusive bound wins over an
    inclusive one at the same value (the tighter constraint).
    """
    low: object = None
    high: object = None
    low_inc = True
    high_inc = True

    def tighter_low(value: object, inclusive: bool) -> None:
        nonlocal low, low_inc
        if low is None or value > low:  # type: ignore[operator]
            low, low_inc = value, inclusive
        elif value == low:
            low_inc = low_inc and inclusive

    def tighter_high(value: object, inclusive: bool) -> None:
        nonlocal high, high_inc
        if high is None or value < high:  # type: ignore[operator]
            high, high_inc = value, inclusive
        elif value == high:
            high_inc = high_inc and inclusive

    try:
        for op, values in entries:
            if op == "<":
                tighter_high(values[0], False)
            elif op == "<=":
                tighter_high(values[0], True)
            elif op == ">":
                tighter_low(values[0], False)
            elif op == ">=":
                tighter_low(values[0], True)
            elif op == "between":
                tighter_low(values[0], True)
                tighter_high(values[1], True)
    except TypeError:
        return None
    return low, high, low_inc, high_inc


# lint: ignore[ast-exhaustive] -- validator, not a dispatcher: rejects all non-constants by design
def _require_literal(expr: ast.Expr) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    if (
        isinstance(expr, ast.Arith)
        and isinstance(expr.left, ast.Literal)
        and isinstance(expr.right, ast.Literal)
    ):
        from repro.engine.executor import apply_arith

        return apply_arith(expr.op, expr.left.value, expr.right.value)
    raise PlanningError(f"INSERT values must be literals, got {expr}")


def _param_usable(
    index_def: IndexDef,
    join_column: str,
    eq_map: Dict[str, ast.Expr],
) -> bool:
    """Can this index serve an index-NL probe on ``join_column``?

    Mirrors the column walk in :meth:`Planner.parameterized_index_path`:
    the join column must be reachable through a prefix of columns bound
    by the inner relation's own equality filters.
    """
    for col in index_def.columns:
        if col == join_column:
            return True
        if col in eq_map:
            continue
        return False
    return False


def _value_exprs_of(conj: ast.Expr) -> List[ast.Expr]:
    """Constant-side expressions of a sargable filter conjunct."""
    if isinstance(conj, ast.Comparison):
        if isinstance(conj.left, ast.ColumnRef):
            return [conj.right]
        return [conj.left]
    if isinstance(conj, ast.Between):
        return [conj.low, conj.high]
    if isinstance(conj, ast.Like):
        return [conj.pattern]
    if isinstance(conj, ast.InList):
        return list(conj.items)
    return []


def _literal_value(expr: Optional[ast.Expr]) -> Optional[object]:
    if isinstance(expr, ast.Literal):
        return expr.value
    return None


def _like_prefix_bounds(pattern_expr: ast.Expr):
    """Convert a constant prefix LIKE pattern into range bounds."""
    if not isinstance(pattern_expr, ast.Literal):
        return None
    pattern = pattern_expr.value
    if not isinstance(pattern, str):
        return None
    prefix = pattern.split("%", 1)[0].split("_", 1)[0]
    if not prefix or prefix == pattern:
        return None
    low = ast.Literal(value=prefix)
    high = ast.Literal(value=prefix + "￿")
    return (low, high, True, False)
