"""B+Tree unit and property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import (
    BTree,
    encode_bound,
    encode_key,
    estimate_btree_shape,
)


def make_tree(n, key_width=8, seed=3):
    tree = BTree(key_byte_width=key_width)
    rng = random.Random(seed)
    values = list(range(n))
    rng.shuffle(values)
    for v in values:
        tree.insert(encode_key((v,)), (v // 100, v % 100))
    return tree


class TestInsertAndSearch:
    def test_empty_tree(self):
        tree = BTree(key_byte_width=8)
        assert tree.entry_count == 0
        assert tree.height == 1
        assert tree.search_eq((5,), 1) == []

    def test_single_insert(self):
        tree = BTree(key_byte_width=8)
        tree.insert(encode_key((5,)), (0, 0))
        assert tree.search_eq((5,), 1) == [(0, 0)]

    def test_point_lookups_after_many_inserts(self):
        tree = make_tree(2000)
        for v in (0, 1, 999, 1998, 1999):
            assert tree.search_eq((v,), 1) == [(v // 100, v % 100)]

    def test_missing_key(self):
        tree = make_tree(100)
        assert tree.search_eq((12345,), 1) == []

    def test_duplicate_keys_all_returned(self):
        tree = BTree(key_byte_width=8)
        for slot in range(10):
            tree.insert(encode_key((7,)), (0, slot))
        assert sorted(tree.search_eq((7,), 1)) == [(0, s) for s in range(10)]

    def test_height_grows_with_size(self):
        small = make_tree(10)
        large = make_tree(20000)
        assert large.height > small.height

    def test_splits_counted(self):
        tree = make_tree(5000)
        assert tree.split_count > 0
        assert tree.page_count > 1

    def test_insert_returns_split_count(self):
        tree = BTree(key_byte_width=8)
        splits = sum(
            tree.insert(encode_key((i,)), (0, i)) for i in range(5000)
        )
        assert splits == tree.split_count


class TestDelete:
    def test_delete_existing(self):
        tree = make_tree(500)
        assert tree.delete(encode_key((42,)), (0, 42))
        assert tree.search_eq((42,), 1) == []
        assert tree.entry_count == 499

    def test_delete_missing_returns_false(self):
        tree = make_tree(100)
        assert not tree.delete(encode_key((42,)), (9, 9))

    def test_delete_specific_duplicate(self):
        tree = BTree(key_byte_width=8)
        tree.insert(encode_key((7,)), (0, 0))
        tree.insert(encode_key((7,)), (0, 1))
        assert tree.delete(encode_key((7,)), (0, 0))
        assert tree.search_eq((7,), 1) == [(0, 1)]

    def test_delete_then_reinsert(self):
        tree = make_tree(200)
        tree.delete(encode_key((5,)), (0, 5))
        tree.insert(encode_key((5,)), (3, 3))
        assert tree.search_eq((5,), 1) == [(3, 3)]


class TestRangeScan:
    def test_inclusive_range(self):
        tree = make_tree(1000)
        lo = encode_bound((100,), 1, low=True)
        hi = encode_bound((110,), 1, low=False)
        keys = [k[0][1] for k, _ in tree.scan_range(lo, hi)]
        assert keys == list(range(100, 111))

    def test_range_is_sorted(self):
        tree = make_tree(3000, seed=9)
        lo = encode_bound((0,), 1, low=True)
        hi = encode_bound((2999,), 1, low=False)
        keys = [k for k, _ in tree.scan_range(lo, hi)]
        assert keys == sorted(keys)

    def test_empty_range(self):
        tree = make_tree(100)
        lo = encode_bound((1000,), 1, low=True)
        hi = encode_bound((2000,), 1, low=False)
        assert list(tree.scan_range(lo, hi)) == []

    def test_scan_all_returns_everything(self):
        tree = make_tree(1234)
        assert len(list(tree.scan_all())) == 1234


class TestCompositeKeys:
    def test_prefix_search(self):
        tree = BTree(key_byte_width=16)
        for a in range(10):
            for b in range(10):
                tree.insert(encode_key((a, b)), (a, b))
        # All rows with first column == 3.
        assert len(tree.search_eq((3,), 2)) == 10
        # Exact two-column match.
        assert tree.search_eq((3, 7), 2) == [(3, 7)]

    def test_prefix_range_bounds(self):
        tree = BTree(key_byte_width=16)
        for a in range(5):
            for b in range(5):
                tree.insert(encode_key((a, b)), (a, b))
        lo = encode_bound((2, 1), 2, low=True)
        hi = encode_bound((2, 3), 2, low=False)
        rids = [rid for _k, rid in tree.scan_range(lo, hi)]
        assert rids == [(2, 1), (2, 2), (2, 3)]

    def test_null_sorts_first(self):
        tree = BTree(key_byte_width=8)
        tree.insert(encode_key((None,)), (0, 0))
        tree.insert(encode_key((1,)), (0, 1))
        keys = [k for k, _ in tree.scan_all()]
        assert keys[0] == encode_key((None,))

    def test_string_keys(self):
        tree = BTree(key_byte_width=24)
        for i, word in enumerate(["pear", "apple", "mango", "fig"]):
            tree.insert(encode_key((word,)), (0, i))
        keys = [k[0][1] for k, _ in tree.scan_all()]
        assert keys == sorted(keys)


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self):
        entries = [
            (encode_key((v,)), (0, v)) for v in range(777)
        ]
        bulk = BTree(key_byte_width=8)
        bulk.bulk_load(list(entries))
        incremental = BTree(key_byte_width=8)
        for key, rid in entries:
            incremental.insert(key, rid)
        assert (
            [e for e in bulk.scan_all()]
            == [e for e in incremental.scan_all()]
        )

    def test_bulk_load_empty(self):
        tree = BTree(key_byte_width=8)
        tree.bulk_load([])
        assert tree.entry_count == 0
        assert list(tree.scan_all()) == []

    def test_bulk_load_resets_state(self):
        tree = make_tree(100)
        tree.bulk_load([(encode_key((1,)), (0, 0))])
        assert tree.entry_count == 1

    def test_bulk_load_invariants(self):
        tree = BTree(key_byte_width=8)
        tree.bulk_load([(encode_key((v,)), (0, v)) for v in range(5000)])
        tree.check_invariants()
        assert tree.height >= 2


class TestShapeEstimation:
    def test_estimate_equals_bulk_loaded_shape(self):
        """Hypothetical-index costing assumes the estimate *is* the
        shape CREATE INDEX builds, for every size and key width."""
        for width in (1, 8, 16, 40, 200, 2000):
            fill = max(1, int(BTree(key_byte_width=width).leaf_capacity * 0.9))
            for n in (0, 1, fill - 1, fill, fill + 1, 30000):
                tree = BTree(key_byte_width=width)
                tree.bulk_load([(encode_key((v,)), (0, v)) for v in range(n)])
                assert estimate_btree_shape(n, width) == (
                    tree.height, tree.leaf_page_count, tree.page_count
                ), (n, width)

    def test_estimate_empty(self):
        height, leaves, total = estimate_btree_shape(0, 8)
        assert (height, leaves, total) == (1, 1, 1)


@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 5)),
        min_size=0,
        max_size=300,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_tree_matches_sorted_reference(operations):
    """Random inserts (and deletes of seen entries) keep sorted order,
    the leaf chain, and the entry count consistent."""
    tree = BTree(key_byte_width=8)
    reference = []
    for i, (value, action) in enumerate(operations):
        if action == 0 and reference:
            key, rid = reference.pop(len(reference) // 2)
            assert tree.delete(key, rid)
        else:
            entry = (encode_key((value,)), (0, i))
            tree.insert(*entry)
            reference.append(entry)
    reference.sort()
    assert list(tree.scan_all()) == reference
    tree.check_invariants()


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=200), st.data())
@settings(max_examples=60, deadline=None)
def test_property_range_scan_equals_filter(values, data):
    tree = BTree(key_byte_width=8)
    for i, v in enumerate(values):
        tree.insert(encode_key((v,)), (0, i))
    lo_v = data.draw(st.integers(-10, 1010))
    hi_v = data.draw(st.integers(lo_v, 1010))
    lo = encode_bound((lo_v,), 1, low=True)
    hi = encode_bound((hi_v,), 1, low=False)
    got = sorted(rid for _k, rid in tree.scan_range(lo, hi))
    want = sorted((0, i) for i, v in enumerate(values) if lo_v <= v <= hi_v)
    assert got == want
