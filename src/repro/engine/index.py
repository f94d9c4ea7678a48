"""Index definitions, materialised indexes, and hypothetical indexes.

Hypothetical indexes reproduce the hypopg mechanism the paper uses
(Section V, C2.1): the planner costs them from catalog statistics as if
they existed, but no B+Tree is built, so candidate configurations can
be evaluated at near-zero cost.

Index **scope** implements the paper's partitioned-table extension
(Section III): on a hash-partitioned table a GLOBAL index is one tree
whose entries carry wider cross-partition row pointers (fast lookup,
more space), while a LOCAL index is one smaller tree per partition
(less space per entry, but a lookup that cannot prune to one partition
must probe every per-partition tree).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.btree import (
    BTree,
    EncodedKey,
    encode_key,
    estimate_btree_shape,
)
from repro.engine.cost import PAGE_SIZE, CostTracker
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.engine.storage import Rid, Row

# Extra bytes per entry for a global index over a partitioned table
# (cross-partition row pointer).
GLOBAL_POINTER_WIDTH = 16


class IndexScope(enum.Enum):
    """Index scope for partitioned tables (paper, Section III)."""

    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class IndexDef:
    """The logical identity of an index: table + ordered column list.

    This is the unit the advisor reasons about; two IndexDefs with the
    same table, columns, and scope are the same index regardless of
    name.
    """

    table: str
    columns: Tuple[str, ...]
    name: Optional[str] = None
    unique: bool = False
    scope: IndexScope = IndexScope.GLOBAL

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("an index must cover at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(
                f"duplicate columns in index on {self.table}: {self.columns}"
            )
        # ``key`` is read on every cache lookup and sort in the
        # advisor's hot path; build it once.
        if self.scope is IndexScope.LOCAL:
            key = (self.table, self.columns, "local")
        else:
            key = (self.table, self.columns)
        object.__setattr__(self, "_key", key)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (checkpoint components, review queue)."""
        return {
            "table": self.table,
            "columns": list(self.columns),
            "name": self.name,
            "unique": self.unique,
            "scope": self.scope.value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "IndexDef":
        return cls(
            table=str(data["table"]),
            columns=tuple(data["columns"]),  # type: ignore[arg-type]
            name=data.get("name"),  # type: ignore[arg-type]
            unique=bool(data.get("unique", False)),
            scope=IndexScope(data.get("scope", "global")),
        )

    @property
    def key(self) -> Tuple:
        """Identity key: (table, columns[, scope for LOCAL]).

        Scope only differentiates LOCAL indexes so that unpartitioned
        catalogs keep the compact two-element key.
        """
        return self._key

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        suffix = "_local" if self.scope is IndexScope.LOCAL else ""
        return f"idx_{self.table}_" + "_".join(self.columns) + suffix

    def is_prefix_of(self, other: "IndexDef") -> bool:
        """True if this index is redundant given ``other``.

        Implements the paper's leftmost-matching merge rule: an index
        on ``(a)`` is subsumed by an index on ``(a, b)`` of the same
        scope.
        """
        if self.table != other.table or self.scope is not other.scope:
            return False
        if len(self.columns) > len(other.columns):
            return False
        return other.columns[: len(self.columns)] == self.columns

    def __str__(self) -> str:
        scope = " LOCAL" if self.scope is IndexScope.LOCAL else ""
        return f"{self.table}({', '.join(self.columns)}){scope}"


class Index:
    """A materialised secondary index backed by real B+Trees.

    GLOBAL scope (or an unpartitioned table): one tree. LOCAL scope on
    a partitioned table: one tree per partition, routed by the table's
    hash partition key.
    """

    def __init__(self, definition: IndexDef, schema: TableSchema):
        self.definition = definition
        self.schema = schema
        self._column_positions = tuple(
            schema.column_index(c) for c in definition.columns
        )
        key_width = sum(
            schema.column(c).byte_width for c in definition.columns
        )
        if (
            definition.scope is IndexScope.GLOBAL
            and schema.is_partitioned
        ):
            key_width += GLOBAL_POINTER_WIDTH
        self._is_local = (
            definition.scope is IndexScope.LOCAL and schema.is_partitioned
        )
        self.partition_count = (
            schema.partition_count if self._is_local else 1
        )
        self._partition_position = (
            schema.column_index(schema.partition_key)
            if self._is_local and schema.partition_key is not None
            else None
        )
        self._trees = [
            BTree(key_byte_width=key_width)
            for _ in range(self.partition_count)
        ]
        # Usage metrics consumed by index diagnosis.
        self.lookup_count = 0
        self.maintenance_count = 0

    # -- structure ---------------------------------------------------------------

    @property
    def tree(self) -> BTree:
        """The single tree of a global/unpartitioned index."""
        if len(self._trees) != 1:
            raise AttributeError(
                "local partitioned index has no single tree; use "
                "scan_range / search_eq"
            )
        return self._trees[0]

    @property
    def trees(self) -> List[BTree]:
        return list(self._trees)

    @property
    def num_columns(self) -> int:
        return len(self.definition.columns)

    @property
    def height(self) -> int:
        return max(tree.height for tree in self._trees)

    @property
    def page_count(self) -> int:
        return sum(tree.page_count for tree in self._trees)

    @property
    def leaf_page_count(self) -> int:
        return sum(tree.leaf_page_count for tree in self._trees)

    @property
    def byte_size(self) -> int:
        return self.page_count * PAGE_SIZE

    @property
    def entry_count(self) -> int:
        return sum(tree.entry_count for tree in self._trees)

    # -- routing ------------------------------------------------------------------

    def key_for_row(self, row: Row) -> Tuple[object, ...]:
        return tuple(row[pos] for pos in self._column_positions)

    def _partition_for_row(self, row: Row) -> int:
        if self._partition_position is None:
            return 0
        return self.schema.partition_of(row[self._partition_position])

    def prune_partition(
        self, eq_values: Dict[str, object]
    ) -> Optional[int]:
        """Partition a lookup can be pruned to, if the equality values
        bind the table's partition key; None means probe all."""
        if not self._is_local or self.schema.partition_key is None:
            return 0 if len(self._trees) == 1 else None
        value = eq_values.get(self.schema.partition_key, _MISSING)
        if value is _MISSING:
            return None
        return self.schema.partition_of(value)

    # -- maintenance ---------------------------------------------------------------

    def build(self, rows: Sequence[Tuple[Rid, Row]]) -> None:
        """Bulk-load the index from the table's current contents.

        ``rows`` must be in ascending rid order, as ``HeapFile.scan``
        yields them. Each tree then gets exactly the entries, in
        exactly the order, of ``sorted((encode_key(key), rid))``, but
        sorted on the raw column values: a stable sort of rid-ordered
        rows breaks ties on rid just as the ``(key, rid)`` sort does.
        """
        if not self._is_local:
            self._trees[0]._load_sorted(self._sorted_entries(rows))
            return
        buckets: List[List[Tuple[Rid, Row]]] = [[] for _ in self._trees]
        for rid, row in rows:
            buckets[self._partition_for_row(row)].append((rid, row))
        for tree, bucket in zip(self._trees, buckets):
            tree._load_sorted(self._sorted_entries(bucket))

    def _sorted_entries(
        self, bucket: Sequence[Tuple[Rid, Row]]
    ) -> List[Tuple[EncodedKey, Rid]]:
        """The ``(key, rid)`` entries of one tree, in tree order."""
        multi = len(self._column_positions) > 1
        # A scalar for one column, a tuple for several.
        raw_key = itemgetter(*self._column_positions)
        keys = [raw_key(row) for _rid, row in bucket]
        columns = list(zip(*keys)) if multi else [keys]
        kinds = [set(map(type, column)) for column in columns]
        # One value type per column, of a type whose equal values are
        # indistinguishable: then equal keys can share one encoded key.
        exact = all(len(kind) == 1 and kind <= _EXACT_TYPES for kind in kinds)
        # NULL orders below every value only in its encoded form, and
        # NaN compares false with everything, so the raw sort may order
        # either differently from the reference sort.
        if not exact and (
            any(type(None) in kind for kind in kinds)
            or any(v != v for column in columns for v in column)
        ):
            return self._reference_entries(bucket)
        try:
            order = sorted(range(len(keys)), key=keys.__getitem__)
        except TypeError:
            # Unorderable mixed types: the reference sort decides.
            return self._reference_entries(bucket)
        encode = encode_key if multi else _encode_scalar
        sorted_keys = map(keys.__getitem__, order)
        if exact:
            memo = {key: encode(key) for key in dict.fromkeys(keys)}
            encoded = map(memo.__getitem__, sorted_keys)
        else:
            # ``1``, ``1.0`` and ``True`` (and ``0.0``, ``-0.0``) are
            # equal but must keep their own stored value, since
            # index-only scans return it.
            encoded = map(encode, sorted_keys)
        return list(zip(encoded, [bucket[i][0] for i in order]))

    def _reference_entries(
        self, bucket: Sequence[Tuple[Rid, Row]]
    ) -> List[Tuple[EncodedKey, Rid]]:
        """Encode every row's key, then sort on ``(key, rid)``."""
        return sorted(
            (encode_key(self.key_for_row(row)), rid) for rid, row in bucket
        )

    def insert_row(self, rid: Rid, row: Row) -> int:
        """Index a new row; returns the number of page splits."""
        self.maintenance_count += 1
        tree = self._trees[self._partition_for_row(row)]
        return tree.insert(encode_key(self.key_for_row(row)), rid)

    def delete_row(self, rid: Rid, row: Row) -> bool:
        self.maintenance_count += 1
        tree = self._trees[self._partition_for_row(row)]
        return tree.delete(encode_key(self.key_for_row(row)), rid)

    # -- lookups -----------------------------------------------------------------

    def scan_range(
        self,
        lo: EncodedKey,
        hi: EncodedKey,
        tracker: Optional[CostTracker] = None,
        partition: Optional[int] = None,
    ) -> Iterator[Tuple[EncodedKey, Rid]]:
        """Scan [lo, hi]; a LOCAL index probes every partition unless
        ``partition`` prunes the lookup to one tree."""
        if partition is not None:
            yield from self._trees[partition].scan_range(lo, hi, tracker)
            return
        for tree in self._trees:
            yield from tree.scan_range(lo, hi, tracker)

    def covers_columns(self, columns: Sequence[str]) -> bool:
        """True if all ``columns`` appear in the index (for index-only)."""
        return set(columns) <= set(self.definition.columns)


_MISSING = object()

# Value types that are never NULL or NaN and whose equal values are
# indistinguishable (unlike ``-0.0`` and ``0.0``).
_EXACT_TYPES = frozenset({int, str, bool})


def _encode_scalar(value: object) -> EncodedKey:
    """``encode_key((value,))`` for a known non-NULL value."""
    return ((1, value),)


@dataclass(frozen=True)
class IndexShape:
    """Physical shape used for costing (real or estimated)."""

    height: int
    leaf_pages: int
    total_pages: int
    entry_count: int
    partitions: int = 1  # trees probed by a non-pruning lookup

    @property
    def byte_size(self) -> int:
        return self.total_pages * PAGE_SIZE


def shape_of_index(index: Index) -> IndexShape:
    """Shape of a materialised index (exact)."""
    return IndexShape(
        height=index.height,
        leaf_pages=index.leaf_page_count,
        total_pages=index.page_count,
        entry_count=index.entry_count,
        partitions=index.partition_count,
    )


def hypothetical_shape(
    definition: IndexDef, schema: TableSchema, stats: TableStats
) -> IndexShape:
    """Estimated shape of an index that does not exist (hypopg-style).

    Uses the same fanout math as the real B+Tree so what-if costs line
    up with materialised indexes; scope changes entry width (GLOBAL on
    a partitioned table) or tree count (LOCAL).
    """
    key_width = sum(
        schema.column(c).byte_width for c in definition.columns
    )
    is_local = (
        definition.scope is IndexScope.LOCAL and schema.is_partitioned
    )
    if definition.scope is IndexScope.GLOBAL and schema.is_partitioned:
        key_width += GLOBAL_POINTER_WIDTH
    if is_local:
        partitions = schema.partition_count
        per_partition = max(stats.row_count // partitions, 0)
        height, leaves, total = estimate_btree_shape(
            per_partition, key_width
        )
        return IndexShape(
            height=height,
            leaf_pages=leaves * partitions,
            total_pages=total * partitions,
            entry_count=stats.row_count,
            partitions=partitions,
        )
    height, leaves, total = estimate_btree_shape(stats.row_count, key_width)
    return IndexShape(
        height=height,
        leaf_pages=leaves,
        total_pages=total,
        entry_count=stats.row_count,
    )
