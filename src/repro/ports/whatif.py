"""Shared what-if costing used by every backend adapter.

Both adapters own a shadow/real :class:`repro.engine.catalog.Catalog`
and a :class:`repro.engine.planner.Planner`, so the hypopg-style
what-if question — "what would this statement cost under that index
configuration?" — is answered the same way everywhere: strip
placeholders, overlay the configuration on the catalog, plan, and read
the maintenance charge off the plan shape. Keeping the whole
computation here is what stops the placeholder-stripping / costing
logic from drifting between copies again (it did once, pre-PR 1).
:class:`CatalogAdapter` hangs the same computation, and the cache
keys derived from the catalog, on both adapters as methods.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.engine.catalog import Catalog
from repro.engine.index import IndexDef
from repro.engine.metrics import CacheStats
from repro.engine.plan import DeletePlan, InsertPlan, PlanNode, UpdatePlan
from repro.engine.planner import Planner
from repro.ports.backend import WhatIfCost
from repro.sql import ast
from repro.sql.fingerprint import strip_placeholders

__all__ = [
    "CatalogAdapter",
    "overlay_split",
    "whatif_overlay",
    "planned_whatif",
    "planned_whatif_batch",
    "strip_placeholders",
]


def overlay_split(
    real_defs: Sequence[IndexDef], config: Sequence[IndexDef]
) -> Tuple[List[IndexDef], List[IndexDef]]:
    """Split a target configuration into (hypothetical, masked).

    ``config`` is the *complete* index set to assume: entries not yet
    built become hypothetical additions; real indexes absent from the
    config are masked out.
    """
    real = {d.key: d for d in real_defs}
    wanted = {d.key: d for d in config}
    hypothetical = [d for key, d in wanted.items() if key not in real]
    masked = [d for key, d in real.items() if key not in wanted]
    return hypothetical, masked


@contextmanager
def whatif_overlay(
    catalog: Catalog, config: Optional[Sequence[IndexDef]]
) -> Iterator[None]:
    """Temporarily make ``catalog`` present ``config`` as its index set.

    ``None`` means "the current real set" — no overlay at all.
    """
    if config is None:
        yield
        return
    hypothetical, masked = overlay_split(catalog.real_index_defs(), config)
    catalog.set_whatif(hypothetical, masked)
    try:
        yield
    finally:
        catalog.clear_whatif()


def planned_whatif(
    planner: Planner,
    catalog: Catalog,
    statement: ast.Statement,
    config: Optional[Sequence[IndexDef]] = None,
) -> Tuple[WhatIfCost, PlanNode]:
    """Cost ``statement`` under ``config`` without executing anything.

    Returns the full :class:`WhatIfCost` (plan cost plus the
    maintenance split for write plans) and the chosen plan. Planning
    and the maintenance components are computed inside one overlay
    window so both see the same hypothetical index set.
    """
    statement = strip_placeholders(statement)
    with whatif_overlay(catalog, config):
        plan = planner.plan(statement)
        io, cpu, affected = _maintenance_of_plan(
            planner, catalog, plan, config
        )
    return (
        WhatIfCost(
            total=plan.est_cost,
            maintenance_io=io,
            maintenance_cpu=cpu,
            is_write=isinstance(
                plan, (InsertPlan, UpdatePlan, DeletePlan)
            ),
            num_affected_indexes=affected,
        ),
        plan,
    )


def planned_whatif_batch(
    planner: Planner,
    catalog: Catalog,
    statements: Sequence[ast.Statement],
    config: Optional[Sequence[IndexDef]] = None,
) -> List[Tuple[WhatIfCost, PlanNode]]:
    """Cost a batch of statements under one shared overlay window.

    Semantically ``[planned_whatif(..., s, config) for s in
    statements]`` — planning is a pure function of (statement, visible
    index set), so amortising the overlay split/set/clear across the
    batch returns bitwise-identical costs while paying the overlay
    bookkeeping once instead of once per statement. This is the bulk
    path behind the estimator's vectorized feature extraction.
    """
    out: List[Tuple[WhatIfCost, PlanNode]] = []
    with whatif_overlay(catalog, config):
        for statement in statements:
            statement = strip_placeholders(statement)
            plan = planner.plan(statement)
            io, cpu, affected = _maintenance_of_plan(
                planner, catalog, plan, config
            )
            out.append(
                (
                    WhatIfCost(
                        total=plan.est_cost,
                        maintenance_io=io,
                        maintenance_cpu=cpu,
                        is_write=isinstance(
                            plan, (InsertPlan, UpdatePlan, DeletePlan)
                        ),
                        num_affected_indexes=affected,
                    ),
                    plan,
                )
            )
    return out


def _maintenance_of_plan(
    planner: Planner,
    catalog: Catalog,
    plan: PlanNode,
    config: Optional[Sequence[IndexDef]],
) -> Tuple[float, float, int]:
    """Maintenance (io, cpu, #affected_indexes) charged by a write plan.

    Deletes are maintenance-free per the paper's cost model (removing
    an entry is charged to the scan, not the index).
    """
    if isinstance(plan, InsertPlan):
        table = plan.table
        changed: Optional[Set[str]] = None
        rows = max(plan.est_rows, 1.0)
    elif isinstance(plan, UpdatePlan):
        table = plan.table
        changed = {a.column for a in plan.assignments}
        rows = max(plan.est_rows, 0.0)
    else:
        return 0.0, 0.0, 0
    affected = _affected_indexes(catalog, table, changed, config)
    if not affected:
        return 0.0, 0.0, 0
    io, cpu = planner.maintenance_components_per_row(table, changed)
    return io * rows, cpu * rows, len(affected)


def _affected_indexes(
    catalog: Catalog,
    table: str,
    changed: Optional[Set[str]],
    config: Optional[Sequence[IndexDef]],
) -> List[IndexDef]:
    if config is None:
        defs = [ix.definition for ix in catalog.real_indexes(table)]
    else:
        defs = [d for d in config if d.table == table]
    if changed is None:
        return defs
    return [d for d in defs if set(d.columns) & changed]


class CatalogAdapter:
    """Backend methods shared by every adapter that owns a catalog.

    Both adapters cost what-if questions with a :class:`Planner` over
    a :class:`Catalog` (real or shadow), so the costing entry points
    and the cache keys read off that catalog are written once, here.
    """

    catalog: Catalog
    planner: Planner
    parse_statement: Callable[[str], ast.Statement]

    def whatif_cost(
        self,
        statement: ast.Statement,
        config: Optional[Sequence[IndexDef]] = None,
    ) -> WhatIfCost:
        cost, _plan = planned_whatif(
            self.planner, self.catalog, statement, config
        )
        return cost

    def whatif_cost_batch(
        self,
        statements: Sequence[ast.Statement],
        config: Optional[Sequence[IndexDef]] = None,
    ) -> List[WhatIfCost]:
        return [
            cost
            for cost, _plan in planned_whatif_batch(
                self.planner, self.catalog, statements, config
            )
        ]

    def estimate_cost(
        self,
        statement: Union[str, ast.Statement],
        config: Optional[Sequence[IndexDef]] = None,
    ) -> Tuple[float, PlanNode]:
        """Optimizer cost of a statement under an index configuration.

        ``config`` is the complete index set to assume (real indexes
        not in the config are masked; config entries not built are
        added hypothetically). ``None`` means the current real set.
        Nothing is executed.
        """
        if isinstance(statement, str):
            statement = self.parse_statement(statement)
        cost, plan = planned_whatif(
            self.planner, self.catalog, statement, config
        )
        return cost.total, plan

    def catalog_version(self) -> int:
        return self.catalog.version

    def data_version(self) -> int:
        return self.catalog.data_version

    def index_identity(self, defs: Sequence[IndexDef]) -> Tuple:
        return self.catalog.index_identity(defs)

    def plan_cache_stats(self) -> CacheStats:
        return self.planner.plan_cache_stats()
