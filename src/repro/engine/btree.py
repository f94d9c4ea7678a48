"""A real B+Tree with node splits, height tracking, and composite keys.

This is the physical structure behind every secondary index in the
engine. It matters to the reproduction for three reasons:

* **height** and **page counts** feed the paper's Section V cost
  features (`t_start` depends on tree height ``H``; `C_io` on pages);
* **splits** make maintenance cost grow realistically with index size,
  which is what separates AutoIndex's write-aware estimator from the
  plain optimizer model;
* **leftmost-prefix scans** implement the multi-column index semantics
  the candidate generator's merge rule assumes.

Keys are tuples of column values. NULLs sort first. Duplicate keys are
supported by ordering entries on ``(key, rid)``.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.engine.cost import PAGE_SIZE, CostTracker
from repro.engine.storage import Rid

# Encoded key parts are tuples whose first element orders value
# classes: -1 = below everything, 0 = NULL, 1 = a real value,
# 2 = above everything.
_NEG_INF = (-1,)
_POS_INF = (2,)

EncodedKey = Tuple[Tuple[object, ...], ...]


def encode_key(values: Sequence[object]) -> EncodedKey:
    """Encode raw column values into a totally-ordered composite key."""
    return tuple([(0, 0) if v is None else (1, v) for v in values])


def encode_bound(
    values: Sequence[object], num_columns: int, low: bool
) -> EncodedKey:
    """Encode a (possibly partial) bound, padding with ±infinity.

    A prefix bound on the first k of n columns becomes a full n-part
    key whose missing parts are -inf (for low bounds) or +inf (for
    high bounds), which is exactly leftmost-prefix range semantics.
    """
    parts: List[Tuple[object, ...]] = []
    for v in values[:num_columns]:
        if v is _NEG_INF or v is _POS_INF:
            parts.append(v)  # caller-provided open end on this column
        elif v is None:
            parts.append((0, 0))
        else:
            parts.append((1, v))
    fill = _NEG_INF if low else _POS_INF
    parts.extend([fill] * (num_columns - len(parts)))
    return tuple(parts)


class _Leaf:
    __slots__ = ("entries", "next")

    def __init__(self) -> None:
        self.entries: List[Tuple[EncodedKey, Rid]] = []
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds entries < keys[i]; children[-1] holds the rest.
        self.keys: List[Tuple[EncodedKey, Rid]] = []
        self.children: List[object] = []


class BTree:
    """B+Tree index over composite keys with duplicate support."""

    def __init__(self, key_byte_width: int):
        # Fanout derived from real byte widths so page counts and
        # heights scale with data like a disk-resident tree.
        entry_width = key_byte_width + 16  # key + rid + slot overhead
        self.leaf_capacity = max(8, PAGE_SIZE // entry_width)
        self.inner_capacity = max(8, PAGE_SIZE // (key_byte_width + 24))
        self._root: object = _Leaf()
        self._height = 1  # levels, leaf-only tree has height 1
        self._num_leaves = 1
        self._num_inners = 0
        self._num_entries = 0
        self._split_count = 0

    # -- observability ----------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    @property
    def entry_count(self) -> int:
        return self._num_entries

    @property
    def page_count(self) -> int:
        return self._num_leaves + self._num_inners

    @property
    def leaf_page_count(self) -> int:
        return self._num_leaves

    @property
    def byte_size(self) -> int:
        return self.page_count * PAGE_SIZE

    @property
    def split_count(self) -> int:
        """Total page splits since creation (a maintenance-cost signal)."""
        return self._split_count

    # -- bulk load ---------------------------------------------------------------

    def bulk_load(self, entries: List[Tuple[EncodedKey, Rid]]) -> None:
        """Build the tree from scratch out of (key, rid) pairs.

        Entries are sorted and packed into leaves at ~90% fill, then
        inner levels are built bottom-up — the standard fast build used
        by CREATE INDEX.
        """
        self._load_sorted(sorted(entries))

    def _load_sorted(self, entries: List[Tuple[EncodedKey, Rid]]) -> None:
        """``bulk_load`` without the sort: ``entries`` must already be
        in ``(key, rid)`` order."""
        self._num_entries = len(entries)
        self._split_count = 0
        fill = max(1, int(self.leaf_capacity * 0.9))
        leaves: List[_Leaf] = []
        for start in range(0, len(entries), fill) or [0]:
            leaf = _Leaf()
            leaf.entries = entries[start : start + fill]
            leaves.append(leaf)
        if not leaves:
            leaves = [_Leaf()]
        for prev, nxt in zip(leaves, leaves[1:]):
            prev.next = nxt
        self._num_leaves = len(leaves)
        self._num_inners = 0

        level: List[object] = list(leaves)
        height = 1
        inner_fill = max(2, int(self.inner_capacity * 0.9))
        while len(level) > 1:
            parents: List[object] = []
            for start in range(0, len(level), inner_fill):
                group = level[start : start + inner_fill]
                inner = _Inner()
                inner.children = list(group)
                inner.keys = [self._lowest_entry(child) for child in group[1:]]
                parents.append(inner)
                self._num_inners += 1
            level = parents
            height += 1
        self._root = level[0]
        self._height = height

    @staticmethod
    def _lowest_entry(node: object) -> Tuple[EncodedKey, Rid]:
        while isinstance(node, _Inner):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        return node.entries[0]

    # -- point mutations -----------------------------------------------------------

    def insert(self, key: EncodedKey, rid: Rid) -> int:
        """Insert an entry; returns the number of page splits caused."""
        splits_before = self._split_count
        result = self._insert(self._root, (key, rid))
        if result is not None:
            sep, right = result
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
            self._num_inners += 1
        self._num_entries += 1
        return self._split_count - splits_before

    def _insert(
        self, node: object, entry: Tuple[EncodedKey, Rid]
    ) -> Optional[Tuple[Tuple[EncodedKey, Rid], object]]:
        if isinstance(node, _Leaf):
            bisect.insort(node.entries, entry)
            if len(node.entries) <= self.leaf_capacity:
                return None
            return self._split_leaf(node)
        assert isinstance(node, _Inner)
        idx = bisect.bisect_right(node.keys, entry)
        result = self._insert(node.children[idx], entry)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self.inner_capacity:
            return None
        return self._split_inner(node)

    def _split_leaf(
        self, leaf: _Leaf
    ) -> Tuple[Tuple[EncodedKey, Rid], object]:
        mid = len(leaf.entries) // 2
        right = _Leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next = leaf.next
        leaf.next = right
        self._num_leaves += 1
        self._split_count += 1
        return right.entries[0], right

    def _split_inner(
        self, inner: _Inner
    ) -> Tuple[Tuple[EncodedKey, Rid], object]:
        mid = len(inner.keys) // 2
        sep = inner.keys[mid]
        right = _Inner()
        right.keys = inner.keys[mid + 1 :]
        right.children = inner.children[mid + 1 :]
        inner.keys = inner.keys[:mid]
        inner.children = inner.children[: mid + 1]
        self._num_inners += 1
        self._split_count += 1
        return sep, right

    def delete(self, key: EncodedKey, rid: Rid) -> bool:
        """Remove one entry. Nodes are allowed to underfill (no merge),
        which matches how B-trees behave under DELETE in practice
        (space is reclaimed by VACUUM, not eagerly)."""
        node = self._root
        entry = (key, rid)
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, entry)
            node = node.children[idx]
        assert isinstance(node, _Leaf)
        idx = bisect.bisect_left(node.entries, entry)
        if idx < len(node.entries) and node.entries[idx] == entry:
            node.entries.pop(idx)
            self._num_entries -= 1
            return True
        return False

    # -- lookups --------------------------------------------------------------------

    def _descend(
        self, key: EncodedKey, tracker: Optional[CostTracker]
    ) -> _Leaf:
        node = self._root
        probe = (key, (-1, -1))
        while isinstance(node, _Inner):
            if tracker is not None:
                tracker.charge_random_pages(1)
            idx = bisect.bisect_right(node.keys, probe)
            node = node.children[idx]
        if tracker is not None:
            tracker.charge_random_pages(1)
        assert isinstance(node, _Leaf)
        return node

    def scan_range(
        self,
        lo: EncodedKey,
        hi: EncodedKey,
        tracker: Optional[CostTracker] = None,
    ) -> Iterator[Tuple[EncodedKey, Rid]]:
        """Yield entries with lo <= key <= hi in key order.

        Charges the descent plus one page per leaf visited and one
        index-tuple op per entry returned.
        """
        leaf = self._descend(lo, tracker)
        lo_probe = (lo, (-1, -1))
        idx = bisect.bisect_left(leaf.entries, lo_probe)
        while leaf is not None:
            while idx < len(leaf.entries):
                key, rid = leaf.entries[idx]
                if key > hi:
                    return
                if tracker is not None:
                    tracker.charge_index_tuples(1)
                yield key, rid
                idx += 1
            leaf = leaf.next
            idx = 0
            if leaf is not None and tracker is not None:
                tracker.charge_random_pages(1)

    def search_eq(
        self,
        values: Sequence[object],
        num_columns: int,
        tracker: Optional[CostTracker] = None,
    ) -> List[Rid]:
        """Point/prefix lookup: all rids whose key starts with ``values``."""
        lo = encode_bound(values, num_columns, low=True)
        hi = encode_bound(values, num_columns, low=False)
        return [rid for _, rid in self.scan_range(lo, hi, tracker)]

    def scan_all(
        self, tracker: Optional[CostTracker] = None
    ) -> Iterator[Tuple[EncodedKey, Rid]]:
        """Full ordered scan of every entry (for index-only plans)."""
        node = self._root
        while isinstance(node, _Inner):
            if tracker is not None:
                tracker.charge_random_pages(1)
            node = node.children[0]
        leaf: Optional[_Leaf] = node  # type: ignore[assignment]
        while leaf is not None:
            if tracker is not None:
                tracker.charge_seq_pages(1)
            for key, rid in leaf.entries:
                if tracker is not None:
                    tracker.charge_index_tuples(1)
                yield key, rid
            leaf = leaf.next

    # -- integrity (used by property tests) -------------------------------------------

    def check_invariants(self) -> None:
        """Validate ordering, linkage, and entry counts; raises on violation."""
        entries = list(self._iter_entries_structurally(self._root))
        flat = [e for leaf in entries for e in leaf]
        if flat != sorted(flat):
            raise AssertionError("B+Tree entries out of order")
        if len(flat) != self._num_entries:
            raise AssertionError(
                f"entry count mismatch: {len(flat)} != {self._num_entries}"
            )
        linked = []
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        leaf: Optional[_Leaf] = node  # type: ignore[assignment]
        while leaf is not None:
            linked.extend(leaf.entries)
            leaf = leaf.next
        if linked != flat:
            raise AssertionError("leaf chain disagrees with tree structure")

    def _iter_entries_structurally(self, node: object):
        if isinstance(node, _Leaf):
            yield node.entries
            return
        assert isinstance(node, _Inner)
        for child in node.children:
            yield from self._iter_entries_structurally(child)


def estimate_btree_shape(
    num_entries: int, key_byte_width: int
) -> Tuple[int, int, int]:
    """Estimate (height, leaf_pages, total_pages) without building.

    Used for hypothetical indexes: same fanout math as the real tree at
    ~90% fill, so what-if costing matches materialised indexes closely.
    """
    entry_width = key_byte_width + 16
    leaf_capacity = max(8, PAGE_SIZE // entry_width)
    inner_capacity = max(8, PAGE_SIZE // (key_byte_width + 24))
    fill = max(1, int(leaf_capacity * 0.9))
    inner_fill = max(2, int(inner_capacity * 0.9))
    leaves = max(1, math.ceil(num_entries / fill))
    total = leaves
    level = leaves
    height = 1
    while level > 1:
        level = math.ceil(level / inner_fill)
        total += level
        height += 1
    return height, leaves, total
