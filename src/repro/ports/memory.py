"""The in-memory adapter: our own engine behind the backend protocol.

:class:`MemoryBackend` extends :class:`repro.engine.database.Database`
with the few protocol methods the facade does not already expose
(what-if costing via the shared ports helper, a stats/schema surface,
fingerprinting). It is the reference adapter: real B+Trees, measured
execution costs, deterministic everything.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.engine.cost import CostParams, DEFAULT_PARAMS
from repro.engine.database import Database
from repro.engine.faults import FaultInjector
from repro.engine.index import IndexDef
from repro.engine.plan import PlanNode
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.ports.backend import WhatIfCost
from repro.ports.whatif import planned_whatif, planned_whatif_batch
from repro.sql import ast
from repro.sql.fingerprint import fingerprint as _fingerprint


class MemoryBackend(Database):
    """The in-process engine speaking :class:`TuningBackend`."""

    name = "memory"

    def __init__(
        self,
        params: CostParams = DEFAULT_PARAMS,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(params=params, faults=faults)

    # -- parse / fingerprint ------------------------------------------------

    def fingerprint(self, statement: ast.Statement) -> str:
        return _fingerprint(statement)

    # -- what-if costing ----------------------------------------------------

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

    # -- stats & schema surface ---------------------------------------------

    def table_stats(self, table: str) -> TableStats:
        return self.catalog.stats(table)

    def schema(self, table: str) -> TableSchema:
        return self.catalog.table(table).schema

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def catalog_version(self) -> int:
        return self.catalog.version
