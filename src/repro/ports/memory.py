"""The in-memory adapter: our own engine behind the backend protocol.

:class:`MemoryBackend` extends :class:`repro.engine.database.Database`
with the few protocol methods the facade does not already expose
(a stats/schema surface, fingerprinting); what-if costing and the
catalog-derived cache keys come from the shared
:class:`~repro.ports.whatif.CatalogAdapter`. It is the reference
adapter: real B+Trees, measured execution costs, deterministic
everything.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.cost import CostParams, DEFAULT_PARAMS
from repro.engine.database import Database
from repro.engine.faults import FaultInjector
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.ports.whatif import CatalogAdapter
from repro.sql import ast
from repro.sql.fingerprint import fingerprint as _fingerprint


class MemoryBackend(Database, CatalogAdapter):
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

    # -- stats & schema surface ---------------------------------------------

    def table_stats(self, table: str) -> TableStats:
        return self.catalog.stats(table)

    def schema(self, table: str) -> TableSchema:
        return self.catalog.table(table).schema

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)
