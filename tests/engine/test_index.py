"""IndexDef / Index / hypothetical shape tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import encode_key
from repro.engine.index import (
    Index,
    IndexDef,
    IndexScope,
    hypothetical_shape,
    shape_of_index,
)
from repro.engine.schema import ColumnType as T
from repro.engine.schema import table
from repro.engine.stats import TableStats
from repro.engine.storage import HeapFile


SCHEMA = table(
    "t", [("a", T.INT), ("b", T.INT), ("c", T.TEXT)], primary_key=["a"]
)


class TestIndexDef:
    def test_key_identity(self):
        a = IndexDef(table="t", columns=("a", "b"), name="x")
        b = IndexDef(table="t", columns=("a", "b"), name="y")
        assert a.key == b.key

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            IndexDef(table="t", columns=())

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            IndexDef(table="t", columns=("a", "a"))

    def test_display_name_generated(self):
        d = IndexDef(table="t", columns=("a", "b"))
        assert d.display_name == "idx_t_a_b"

    def test_display_name_explicit(self):
        d = IndexDef(table="t", columns=("a",), name="my_idx")
        assert d.display_name == "my_idx"

    def test_prefix_relation(self):
        narrow = IndexDef(table="t", columns=("a",))
        wide = IndexDef(table="t", columns=("a", "b"))
        assert narrow.is_prefix_of(wide)
        assert not wide.is_prefix_of(narrow)
        assert narrow.is_prefix_of(narrow)

    def test_prefix_requires_same_table(self):
        a = IndexDef(table="t", columns=("a",))
        b = IndexDef(table="u", columns=("a", "b"))
        assert not a.is_prefix_of(b)

    def test_prefix_respects_order(self):
        ab = IndexDef(table="t", columns=("a", "b"))
        ba = IndexDef(table="t", columns=("b", "a"))
        assert not ab.is_prefix_of(ba)

    def test_default_scope_global(self):
        assert IndexDef(table="t", columns=("a",)).scope is IndexScope.GLOBAL


def build_index(rows, columns=("b",)):
    heap = HeapFile(SCHEMA)
    for row in rows:
        heap.insert(row)
    index = Index(IndexDef(table="t", columns=columns), SCHEMA)
    index.build(list(heap.scan()))
    return index


class TestMaterializedIndex:
    def test_build_and_count(self):
        index = build_index([(i, i % 4, "x") for i in range(100)])
        assert index.entry_count == 100

    def test_key_for_row_orders_columns(self):
        index = build_index([], columns=("c", "a"))
        assert index.key_for_row((1, 2, "z")) == ("z", 1)

    def test_insert_delete_row(self):
        index = build_index([(i, i, "x") for i in range(10)])
        index.insert_row((0, 99), (99, 99, "x"))
        assert index.entry_count == 11
        assert index.delete_row((0, 99), (99, 99, "x"))
        assert index.entry_count == 10

    def test_covers_columns(self):
        index = build_index([], columns=("a", "b"))
        assert index.covers_columns(["a"])
        assert index.covers_columns(["b", "a"])
        assert not index.covers_columns(["c"])

    def test_usage_counters(self):
        index = build_index([(1, 1, "x")])
        assert index.maintenance_count == 0
        index.insert_row((0, 1), (2, 2, "x"))
        assert index.maintenance_count == 1


_NAN = float("nan")

# Per column kind: the values a column may hold. "mixed" puts equal
# values of different types (1, 1.0, True; 0.0, -0.0) in one column.
_KINDS = {
    "int": st.integers(-4, 4),
    "float": st.floats(-4, 4, width=16)
    | st.sampled_from([0.0, -0.0, _NAN]),
    "text": st.text(alphabet="ab", max_size=3),
    "bool": st.booleans(),
    "mixed": st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.5]),
}
_COLUMNS = ("a", "b", "c", "d")


@st.composite
def _tables(draw):
    """A heap (with deleted and reused slots) plus an index over it."""
    kinds = [draw(st.sampled_from(sorted(_KINDS))) for _ in _COLUMNS]
    values = [
        st.none() | _KINDS[kind] if draw(st.booleans()) else _KINDS[kind]
        for kind in kinds
    ]
    # Wide columns make 8-entry pages, so small tables get tall trees.
    width = draw(st.sampled_from([None, 2000]))
    partitions = draw(st.sampled_from([1, 3]))
    schema = table(
        "t",
        [(c, T.INT) for c in _COLUMNS] + [("p", T.INT)],
        widths={c: width for c in _COLUMNS} if width else None,
        partition_count=partitions,
        partition_key="p" if partitions > 1 else None,
    )
    heap = HeapFile(schema)
    row = st.tuples(*values, st.integers(0, 20))
    rids = [heap.insert(r) for r in draw(st.lists(row, max_size=250))]
    if rids:
        for rid in draw(st.lists(st.sampled_from(rids), unique=True)):
            heap.delete(rid)
    for r in draw(st.lists(row, max_size=20)):
        heap.insert(r)
    columns = draw(st.permutations(_COLUMNS))[: draw(st.integers(1, 3))]
    scope = draw(st.sampled_from(list(IndexScope)))
    definition = IndexDef(table="t", columns=tuple(columns), scope=scope)
    return schema, heap, definition


def _reference_trees(definition, schema, rows):
    """Trees bulk-loaded from ``sorted((encode_key(key), rid))``."""
    reference = Index(definition, schema)
    local = definition.scope is IndexScope.LOCAL and schema.is_partitioned
    position = schema.column_index("p")
    buckets = [[] for _ in reference.trees]
    for rid, row in rows:
        tree = schema.partition_of(row[position]) if local else 0
        buckets[tree].append((encode_key(reference.key_for_row(row)), rid))
    for tree, entries in zip(reference.trees, buckets):
        tree.bulk_load(entries)
    return reference.trees


def _leaves(tree):
    return list(tree._iter_entries_structurally(tree._root))


class TestBuildMatchesReference:
    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_build_equals_reference_sort(self, case):
        schema, heap, definition = case
        rows = list(heap.scan())
        index = Index(definition, schema)
        index.build(rows)
        reference = _reference_trees(definition, schema, rows)
        assert len(index.trees) == len(reference)
        for got, want in zip(index.trees, reference):
            assert _leaves(got) == _leaves(want)
            # Equal is not enough: 1, 1.0 and True (and 0.0, -0.0) are
            # equal, but an index-only scan returns the stored value.
            assert repr(_leaves(got)) == repr(_leaves(want))
            assert (got.height, got.leaf_page_count, got.page_count) == (
                want.height, want.leaf_page_count, want.page_count
            )
            assert got.entry_count == want.entry_count
            got.check_invariants()

    @pytest.mark.parametrize("scope", list(IndexScope))
    def test_empty_table(self, scope):
        schema = table(
            "t", [("a", T.INT), ("p", T.INT)],
            partition_count=3, partition_key="p",
        )
        index = Index(IndexDef(table="t", columns=("a",), scope=scope), schema)
        index.build([])
        for tree in index.trees:
            assert _leaves(tree) == [[]]
            assert (tree.height, tree.page_count) == (1, 1)
            tree.check_invariants()

    def test_equal_values_share_one_encoded_key(self):
        index = build_index([(i, i % 3, "x") for i in range(60)])
        keys = {id(key) for key, _rid in index.tree.scan_all()}
        assert len(keys) == 3


class TestShapes:
    def test_real_shape_matches_tree(self):
        index = build_index([(i, i, "x") for i in range(5000)])
        shape = shape_of_index(index)
        assert shape.height == index.tree.height
        assert shape.entry_count == 5000
        assert shape.byte_size == index.byte_size

    def test_hypothetical_tracks_row_count(self):
        small = hypothetical_shape(
            IndexDef(table="t", columns=("b",)), SCHEMA,
            TableStats(row_count=100),
        )
        large = hypothetical_shape(
            IndexDef(table="t", columns=("b",)), SCHEMA,
            TableStats(row_count=100000),
        )
        assert large.total_pages > small.total_pages
        assert large.height >= small.height

    def test_wider_keys_cost_more_pages(self):
        stats = TableStats(row_count=50000)
        narrow = hypothetical_shape(
            IndexDef(table="t", columns=("a",)), SCHEMA, stats
        )
        wide = hypothetical_shape(
            IndexDef(table="t", columns=("a", "b", "c")), SCHEMA, stats
        )
        assert wide.total_pages > narrow.total_pages
