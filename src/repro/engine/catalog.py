"""System catalog: tables, indexes, and statistics in one registry.

The catalog also implements the *what-if* overlay: a set of
hypothetical index definitions can be layered on (and real indexes
masked off) so the planner sees an alternative index configuration
without anything being built — the hypopg mechanism of Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.index import (
    Index,
    IndexDef,
    IndexShape,
    hypothetical_shape,
    shape_of_index,
)
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.engine.storage import HeapFile

IndexKey = Tuple[str, Tuple[str, ...]]


@dataclass
class TableEntry:
    """Everything the engine knows about one table."""

    schema: TableSchema
    heap: HeapFile
    stats: TableStats = field(default_factory=TableStats)
    indexes: Dict[IndexKey, Index] = field(default_factory=dict)


class Catalog:
    """Registry of tables, indexes, statistics, and what-if overlays."""

    # cache-keys: fields[_tables] invalidator[bump_version]

    def __init__(self) -> None:
        self._tables: Dict[str, TableEntry] = {}
        self._hypothetical: Dict[IndexKey, IndexDef] = {}
        self._masked: Set[IndexKey] = set()
        # Two monotonic versions. ``version`` moves on every change to
        # data, stats, the table set *or* the real index set: state
        # that must see DDL (diagnosis) keys on it. ``data_version``
        # moves on data, stats and table-set changes only. Cached
        # plans and features key on it plus :meth:`index_identity`,
        # which lists indexes in the planner's order and tags the
        # built ones whose real shape a plan could tell apart from
        # the estimate, so creating or dropping an index invalidates
        # nothing. What-if overlays bump neither: identities capture
        # them.
        self.version = 0
        self.data_version = 0
        # (version, key -> (creation rank, divergence tag)), see
        # index_identity.
        self._identity_memo: Tuple[int, Dict[IndexKey, Tuple]] = (-1, {})

    def bump_version(self) -> None:
        """Signal that data, stats, or the table set changed."""
        self.version += 1
        self.data_version += 1

    # -- tables ---------------------------------------------------------------

    def add_table(self, schema: TableSchema) -> TableEntry:
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        entry = TableEntry(schema=schema, heap=HeapFile(schema))
        self._tables[schema.name] = entry
        self.bump_version()
        return entry

    def drop_table(self, name: str) -> None:
        self._tables.pop(name)
        self.bump_version()

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def stats(self, table: str) -> TableStats:
        return self.table(table).stats

    # -- real indexes ------------------------------------------------------------

    def add_index(self, index: Index) -> None:
        entry = self.table(index.definition.table)
        key = index.definition.key
        if key in entry.indexes:
            raise ValueError(f"index on {key} already exists")
        entry.indexes[key] = index
        self.version += 1

    def drop_index(self, definition: IndexDef) -> Index:
        entry = self.table(definition.table)
        try:
            index = entry.indexes.pop(definition.key)
        except KeyError:
            raise KeyError(f"no such index: {definition}") from None
        self.version += 1
        return index

    def get_index(self, definition: IndexDef) -> Optional[Index]:
        entry = self._tables.get(definition.table)
        if entry is None:
            return None
        return entry.indexes.get(definition.key)

    def real_indexes(self, table: Optional[str] = None) -> List[Index]:
        if table is not None:
            return list(self.table(table).indexes.values())
        result: List[Index] = []
        for entry in self._tables.values():
            result.extend(entry.indexes.values())
        return result

    def real_index_defs(self) -> List[IndexDef]:
        return [ix.definition for ix in self.real_indexes()]

    # -- what-if overlay -----------------------------------------------------------

    def set_whatif(
        self,
        hypothetical: Iterable[IndexDef] = (),
        masked: Iterable[IndexDef] = (),
    ) -> None:
        """Install a what-if overlay.

        ``hypothetical`` definitions become visible to the planner, in
        key order whatever order the caller lists them in; ``masked``
        real indexes become invisible. The executor never consults
        the overlay, so hypothetical indexes can never be *used*, only
        costed.
        """
        self._hypothetical = {
            d.key: d for d in sorted(hypothetical, key=lambda d: d.key)
        }
        self._masked = {d.key for d in masked}

    def clear_whatif(self) -> None:
        self._hypothetical = {}
        self._masked = set()

    @property
    def whatif_active(self) -> bool:
        return bool(self._hypothetical) or bool(self._masked)

    def visible_index_defs(self, table: str) -> List[IndexDef]:
        """Index definitions the planner may consider for ``table``.

        Built indexes in creation order, then hypothetical ones in
        key order. The planner sums maintenance charges and breaks
        cost ties in this order, so :meth:`index_identity` encodes it.
        """
        entry = self.table(table)
        defs = [
            ix.definition
            for key, ix in entry.indexes.items()
            if key not in self._masked
        ]
        defs.extend(
            d for d in self._hypothetical.values() if d.table == table
        )
        return defs

    def index_identity(self, defs: Sequence[IndexDef]) -> Tuple:
        """Cache identity of an index set: the one rule for such keys.

        A plan sees an index set through :meth:`index_shape` and
        through the order of :meth:`visible_index_defs`, so the
        identity is that order: per table, the built indexes by
        creation, then the others by key. Each index is named by its
        ``key``, except a *divergent* one — built, and its real shape
        differs from :func:`hypothetical_shape` under the current
        stats — whose key carries its real shape. Equal identities
        under one :attr:`data_version` therefore plan bit-identically,
        whichever indexes are built; a freshly built index that is
        not divergent keeps its hypothetical identity whenever it
        sorts first among the table's unbuilt indexes.

        The planner keys its access-path memo on the identity of the
        indexes that can serve a probe, and the estimator keys both
        of its tiers on the identity of a statement's relevant
        indexes.
        """
        version, memo = self._identity_memo
        if version != self.version:
            memo = {}
            self._identity_memo = (self.version, memo)
        masked = self._masked
        ordered = []
        for d in defs:
            key = d.key
            try:
                position, tag = memo[key]
            except KeyError:
                position, tag = memo[key] = self._built_position(d)
            if position is None or key in masked:
                ordered.append((d.table, 1, key, key))
            else:
                name = key if tag is None else key + tag
                ordered.append((d.table, 0, position, name))
        ordered.sort()
        return tuple(entry[3] for entry in ordered)

    def _built_position(
        self, definition: IndexDef
    ) -> Tuple[Optional[int], Optional[Tuple]]:
        """(creation rank, divergence tag) of a built index, else Nones.

        The tag is ``("built", *real shape)`` when the real shape
        differs from the estimate. Both move only with
        :attr:`version`, so :meth:`index_identity` memoises them per
        key until it moves.
        """
        entry = self._tables.get(definition.table)
        index = None if entry is None else entry.indexes.get(definition.key)
        if index is None:
            return None, None
        position = list(entry.indexes).index(definition.key)
        shape = shape_of_index(index)
        estimate = hypothetical_shape(
            index.definition, entry.schema, entry.stats
        )
        if shape == estimate:
            return position, None
        return position, (
            "built",
            shape.height,
            shape.leaf_pages,
            shape.total_pages,
            shape.entry_count,
            shape.partitions,
        )

    def index_shape(self, definition: IndexDef) -> IndexShape:
        """Physical shape for costing — exact if built, estimated if not."""
        real = self.get_index(definition)
        if real is not None and definition.key not in self._masked:
            return shape_of_index(real)
        entry = self.table(definition.table)
        return hypothetical_shape(definition, entry.schema, entry.stats)

    def is_materialized(self, definition: IndexDef) -> bool:
        real = self.get_index(definition)
        return real is not None and definition.key not in self._masked

    # -- sizes -----------------------------------------------------------------------

    def total_index_bytes(self, table: Optional[str] = None) -> int:
        return sum(ix.byte_size for ix in self.real_indexes(table))
