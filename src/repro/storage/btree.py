"""In-memory B-tree for range-scannable secondary indexes.

A classic B-tree (not B+); every node stores keys and per-key value lists so
duplicate index keys (many records sharing a year, say) cost one key slot.
Each key's values are kept in ascending order, so for a secondary index
(values are primary keys) a scan yields ``(key, primary key)`` pairs in
that composite order: the tie order ``ORDER BY`` uses, which lets a
range scan serve it and shards merge on it.
``order`` is the maximum number of children; nodes hold between
``ceil(order/2) - 1`` and ``order - 1`` keys except the root.

Keys must be mutually comparable (the store layer guarantees this by
building keys as same-shape tuples).  The structure is single-threaded by
design, matching the embedded single-writer store.

The implementation favours clarity over micro-optimization but keeps the
right asymptotics: O(log n) point ops, O(log n + k) range scans.
``validate()`` checks every structural invariant and is exercised heavily by
the property-based tests.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Any, Iterable, Iterator

from repro.obs import metrics as _metrics

_SPLITS = _metrics.counter("storage.btree.node_splits")
_SEARCHES = _metrics.counter("storage.btree.searches")
_BULK_LOADS = _metrics.counter("storage.btree.bulk_loads")
_BULK_PAIRS = _metrics.counter("storage.btree.bulk_load.pairs")


class _Node:
    __slots__ = ("keys", "values", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[Any]] = []  # parallel to keys
        self.children: list[_Node] = []  # empty iff leaf

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _group_sorted(pairs: Iterable[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Group key-ordered ``(key, value)`` pairs into ``(key, values)`` runs."""
    grouped: list[tuple[Any, list[Any]]] = []
    for key, value in pairs:
        if grouped and grouped[-1][0] == key:
            grouped[-1][1].append(value)
        else:
            grouped.append((key, [value]))
    return grouped


class BTree:
    """Ordered multimap backed by a B-tree.

    >>> tree = BTree(order=4)
    >>> for k in [5, 1, 9, 3, 7]:
    ...     tree.insert(k, f"v{k}")
    >>> tree.search(3)
    ['v3']
    >>> [k for k, _ in tree.range(3, 7)]
    [3, 5, 7]
    >>> tree.remove(3, "v3")
    True
    >>> tree.search(3)
    []
    """

    def __init__(self, *, order: int = 32):
        if order < 3:
            raise ValueError(f"order must be >= 3, got {order}")
        self.order = order
        # Classic CLRS formulation via minimum degree t: nodes hold between
        # t-1 and 2t-1 keys.  An odd maximum is required so a preemptive
        # split of a full node yields two valid t-1-key halves plus the
        # median; deriving both bounds from t guarantees that for any
        # requested order.
        self._t = max(2, order // 2)
        self._root = _Node()
        self._len = 0  # number of (key, value) pairs
        self._key_count = 0  # number of distinct keys

    @classmethod
    def from_sorted(
        cls, items: "Iterator[tuple[Any, list[Any]]] | list[tuple[Any, list[Any]]]",
        *,
        order: int = 32,
    ) -> "BTree":
        """Bulk-load a tree from ``(key, values)`` pairs sorted by key.

        Builds bottom-up in O(n).  Node counts per level are computed
        first and the content distributed as evenly as possible (sizes
        differing by at most one), which keeps every node provably within
        the B-tree fill bounds — no rebalancing pass needed.  Keys must be
        strictly increasing; each key's values may come in any order and
        are stored sorted.

        >>> tree = BTree.from_sorted([(k, [f"v{k}"]) for k in range(100)], order=4)
        >>> tree.validate()
        >>> [k for k, _ in tree.range(40, 44)]
        [40, 41, 42, 43, 44]
        """
        tree = cls(order=order)
        pairs = list(items)
        _BULK_LOADS.inc()
        _BULK_PAIRS.inc(sum(len(v) for _, v in pairs))
        if not pairs:
            return tree
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if not a < b:
                raise ValueError(f"keys not strictly increasing: {a!r} !< {b!r}")

        cap = tree._max_keys
        total = len(pairs)

        # Leaf level.  A run of m leaves plus the m-1 promoted separators
        # holds at most m*cap + (m-1) pairs; the smallest such m keeps the
        # evenly-distributed leaf sizes within [cap/2, cap] ⊆ [min, cap].
        leaf_count = -(-(total + 1) // (cap + 1))  # ceil((N+1)/(cap+1))
        key_total = total - (leaf_count - 1)
        base, extra = divmod(key_total, leaf_count)
        leaves: list[_Node] = []
        separators: list[tuple[Any, list[Any]]] = []
        i = 0
        for leaf_index in range(leaf_count):
            size = base + (1 if leaf_index < extra else 0)
            node = _Node()
            node.keys = [k for k, _ in pairs[i : i + size]]
            node.values = [sorted(v) for _, v in pairs[i : i + size]]
            leaves.append(node)
            i += size
            if leaf_index < leaf_count - 1:
                separator_key, separator_values = pairs[i]
                separators.append((separator_key, sorted(separator_values)))
                i += 1
        assert i == total

        # Internal levels: distribute children evenly over
        # ceil(C/(cap+1)) parents; separator j of a level sits between
        # that level's nodes j and j+1, and the separator between two
        # parent groups is promoted upward.
        level = leaves
        level_separators = separators
        while len(level) > 1:
            child_count = len(level)
            parent_count = -(-child_count // (cap + 1))
            base, extra = divmod(child_count, parent_count)
            parents: list[_Node] = []
            upper_separators: list[tuple[Any, list[Any]]] = []
            i = 0
            for parent_index in range(parent_count):
                take = base + (1 if parent_index < extra else 0)
                node = _Node()
                node.children = level[i : i + take]
                node.keys = [k for k, _ in level_separators[i : i + take - 1]]
                node.values = [v for _, v in level_separators[i : i + take - 1]]
                parents.append(node)
                i += take
                if parent_index < parent_count - 1:
                    upper_separators.append(level_separators[i - 1])
            level = parents
            level_separators = upper_separators

        tree._root = level[0]
        tree._len = sum(len(v) for _, v in pairs)
        tree._key_count = total
        return tree

    @classmethod
    def bulk_load(
        cls, pairs: "Iterable[tuple[Any, Any]]", *, order: int = 32
    ) -> "BTree":
        """Bulk-load a tree from ``(key, value)`` pairs sorted by key.

        The streaming entry point for batched index builds: duplicate
        keys are allowed (their values are stored sorted) and the tree
        is constructed bottom-up with no per-insert node splits.

        >>> tree = BTree.bulk_load([(1, "b"), (1, "a"), (2, "c")], order=4)
        >>> tree.search(1)
        ['a', 'b']
        """
        return cls.from_sorted(_group_sorted(pairs), order=order)

    def insert_many(self, pairs: list[tuple[Any, Any]]) -> None:
        """Insert many ``(key, value)`` pairs, sorted by key, in one batch.

        A batch that fills an empty tree — or is at least a quarter of the
        tree's current size — is merged with the existing items and the
        tree rebuilt bottom-up: O(n + m) with zero node splits.  Smaller
        batches fall back to ordinary inserts (sorted order still helps:
        consecutive inserts descend mostly-warm paths).
        """
        if not pairs:
            return
        if self._key_count and len(pairs) * 4 < self._len:
            for key, value in pairs:
                self.insert(key, value)
            return
        # Merge-rebuild: items() and pairs are both key-ordered, and the
        # rebuild sorts each key's values, as insert() keeps them.
        merged = _group_sorted(
            heapq.merge(self.items(), pairs, key=lambda kv: kv[0])
        )
        rebuilt = BTree.from_sorted(merged, order=self.order)
        self._root = rebuilt._root
        self._len = rebuilt._len
        self._key_count = rebuilt._key_count

    # -- capacity rules ----------------------------------------------------

    @property
    def _max_keys(self) -> int:
        return 2 * self._t - 1

    @property
    def _min_keys(self) -> int:
        return self._t - 1

    def __len__(self) -> int:
        return self._len

    @property
    def distinct_keys(self) -> int:
        return self._key_count

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone root)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # -- search ------------------------------------------------------------

    def search(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list when absent)."""
        _SEARCHES.inc()
        node = self._root
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return list(node.values[i])
            if node.is_leaf:
                return []
            node = node.children[i]

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def min_key(self) -> Any:
        """Smallest key; raises ``KeyError`` on an empty tree."""
        if self._key_count == 0:
            raise KeyError("empty tree")
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> Any:
        """Largest key; raises ``KeyError`` on an empty tree."""
        if self._key_count == 0:
            raise KeyError("empty tree")
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # -- iteration ----------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order (values ascending)."""
        yield from self._iter_node(self._root)

    def keys(self) -> Iterator[Any]:
        """Distinct keys in order."""
        last_sentinel = object()
        last: Any = last_sentinel
        for key, _ in self.items():
            if last is last_sentinel or key != last:
                yield key
                last = key

    def _iter_node(self, node: _Node) -> Iterator[tuple[Any, Any]]:
        if node.is_leaf:
            for key, values in zip(node.keys, node.values):
                for value in values:
                    yield (key, value)
            return
        for i, (key, values) in enumerate(zip(node.keys, node.values)):
            yield from self._iter_node(node.children[i])
            for value in values:
                yield (key, value)
        yield from self._iter_node(node.children[-1])

    def range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with ``low <= key <= high`` in key order.

        ``None`` bounds are open ends.  Inclusivity of each bound is
        controlled independently.
        """
        yield from self._range_node(self._root, low, high, include_low, include_high)

    def _range_node(
        self, node: _Node, low: Any, high: Any, inc_low: bool, inc_high: bool
    ) -> Iterator[tuple[Any, Any]]:
        # keys[start] is the first key >= low; children[start] may still
        # hold in-range keys in (keys[start-1], keys[start]).
        start = 0 if low is None else bisect.bisect_left(node.keys, low)
        for i in range(start, len(node.keys) + 1):
            if not node.is_leaf:
                yield from self._range_node(node.children[i], low, high, inc_low, inc_high)
            if i == len(node.keys):
                break
            key = node.keys[i]
            if high is not None and (key > high or (key == high and not inc_high)):
                return  # this key and every subtree to the right exceed high
            if low is None or key > low or (key == low and inc_low):
                for value in node.values[i]:
                    yield (key, value)

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key`` (duplicates under one key allowed,
        kept in ascending order)."""
        root = self._root
        if len(root.keys) == self._max_keys:
            new_root = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)
        self._len += 1

    def _split_child(self, parent: _Node, index: int) -> None:
        _SPLITS.inc()
        full = parent.children[index]
        mid = len(full.keys) // 2
        sibling = _Node()
        sibling.keys = full.keys[mid + 1 :]
        sibling.values = full.values[mid + 1 :]
        if not full.is_leaf:
            sibling.children = full.children[mid + 1 :]
            full.children = full.children[: mid + 1]
        parent.keys.insert(index, full.keys[mid])
        parent.values.insert(index, full.values[mid])
        parent.children.insert(index + 1, sibling)
        full.keys = full.keys[:mid]
        full.values = full.values[:mid]

    def _insert_nonfull(self, node: _Node, key: Any, value: Any) -> None:
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                bisect.insort(node.values[i], value)
                return
            if node.is_leaf:
                node.keys.insert(i, key)
                node.values.insert(i, [value])
                self._key_count += 1
                return
            child = node.children[i]
            if len(child.keys) == self._max_keys:
                self._split_child(node, i)
                if node.keys[i] == key:
                    bisect.insort(node.values[i], value)
                    return
                if key > node.keys[i]:
                    i += 1
            node = node.children[i]

    # -- deletion --------------------------------------------------------------

    def remove(self, key: Any, value: Any | None = None) -> bool:
        """Remove ``value`` from ``key``'s list (or the whole key).

        With ``value=None`` the key and all its values are removed.  Returns
        True when something was removed.
        """
        values = self.search(key)
        if not values:
            return False
        if value is not None:
            if value not in values:
                return False
            if len(values) > 1:
                self._remove_one_value(key, value)
                self._len -= 1
                return True
            # fall through: removing the last value removes the key
        removed_count = len(values)
        self._delete_key(self._root, key)
        self._len -= removed_count
        self._key_count -= 1
        if not self._root.keys and not self._root.is_leaf:
            self._root = self._root.children[0]
        return True

    def _remove_one_value(self, key: Any, value: Any) -> None:
        node = self._root
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].remove(value)
                return
            node = node.children[i]

    def _delete_key(self, node: _Node, key: Any) -> None:
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            if node.is_leaf:
                node.keys.pop(i)
                node.values.pop(i)
                return
            self._delete_internal(node, i)
            return
        if node.is_leaf:
            return  # key absent; callers pre-check via search()
        child_index = i
        self._ensure_child_min(node, child_index)
        # _ensure_child_min may have shifted separators; recompute position.
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            self._delete_internal(node, i)
            return
        self._delete_key(node.children[i], key)

    def _delete_internal(self, node: _Node, i: int) -> None:
        """Delete the separator key at ``node.keys[i]`` (internal node)."""
        left, right = node.children[i], node.children[i + 1]
        if len(left.keys) > self._min_keys:
            pred_key, pred_values = self._pop_max(left)
            node.keys[i] = pred_key
            node.values[i] = pred_values
        elif len(right.keys) > self._min_keys:
            succ_key, succ_values = self._pop_min(right)
            node.keys[i] = succ_key
            node.values[i] = succ_values
        else:
            # Merge the separator and the right child into the left child,
            # then delete from the merged node.
            key = node.keys[i]
            self._merge_children(node, i)
            self._delete_key(node.children[i], key)

    def _pop_max(self, node: _Node) -> tuple[Any, list[Any]]:
        while not node.is_leaf:
            self._ensure_child_min(node, len(node.children) - 1)
            node = node.children[-1]
        return node.keys.pop(), node.values.pop()

    def _pop_min(self, node: _Node) -> tuple[Any, list[Any]]:
        while not node.is_leaf:
            self._ensure_child_min(node, 0)
            node = node.children[0]
        key = node.keys.pop(0)
        values = node.values.pop(0)
        return key, values

    def _ensure_child_min(self, node: _Node, i: int) -> None:
        """Guarantee ``node.children[i]`` has more than the minimum keys."""
        i = min(i, len(node.children) - 1)
        child = node.children[i]
        if len(child.keys) > self._min_keys:
            return
        if i > 0 and len(node.children[i - 1].keys) > self._min_keys:
            self._rotate_right(node, i - 1)
        elif i + 1 < len(node.children) and len(node.children[i + 1].keys) > self._min_keys:
            self._rotate_left(node, i)
        elif i > 0:
            self._merge_children(node, i - 1)
        else:
            self._merge_children(node, i)

    def _rotate_right(self, node: _Node, sep: int) -> None:
        """Move one key from children[sep] through separator into children[sep+1]."""
        left, right = node.children[sep], node.children[sep + 1]
        right.keys.insert(0, node.keys[sep])
        right.values.insert(0, node.values[sep])
        node.keys[sep] = left.keys.pop()
        node.values[sep] = left.values.pop()
        if not left.is_leaf:
            right.children.insert(0, left.children.pop())

    def _rotate_left(self, node: _Node, sep: int) -> None:
        """Move one key from children[sep+1] through separator into children[sep]."""
        left, right = node.children[sep], node.children[sep + 1]
        left.keys.append(node.keys[sep])
        left.values.append(node.values[sep])
        node.keys[sep] = right.keys.pop(0)
        node.values[sep] = right.values.pop(0)
        if not right.is_leaf:
            left.children.append(right.children.pop(0))

    def _merge_children(self, node: _Node, sep: int) -> None:
        """Merge children[sep], separator, children[sep+1] into children[sep]."""
        left, right = node.children[sep], node.children[sep + 1]
        left.keys.append(node.keys.pop(sep))
        left.values.append(node.values.pop(sep))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        node.children.pop(sep + 1)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check all B-tree invariants; raises ``AssertionError`` on failure.

        Checked: key ordering within nodes, separator ordering across
        subtrees, node fill bounds, uniform leaf depth, parallel
        keys/values lengths, ascending values under each key, and the
        cached counters.
        """
        leaf_depths: set[int] = set()
        seen_pairs = self._validate_node(self._root, None, None, 0, leaf_depths, is_root=True)
        assert len(leaf_depths) <= 1, f"leaves at differing depths: {leaf_depths}"
        assert seen_pairs == self._len, f"len cache {self._len} != actual {seen_pairs}"
        keys = list(self.keys())
        assert keys == sorted(keys), "keys() not sorted"
        assert len(keys) == self._key_count, (
            f"key-count cache {self._key_count} != actual {len(keys)}"
        )

    def _validate_node(
        self,
        node: _Node,
        low: Any,
        high: Any,
        depth: int,
        leaf_depths: set[int],
        *,
        is_root: bool,
    ) -> int:
        assert len(node.keys) == len(node.values), "keys/values length mismatch"
        if not is_root:
            assert len(node.keys) >= self._min_keys, (
                f"underfull node: {len(node.keys)} < {self._min_keys}"
            )
        assert len(node.keys) <= self._max_keys, "overfull node"
        for a, b in zip(node.keys, node.keys[1:]):
            assert a < b, f"node keys out of order: {a!r} >= {b!r}"
        for key, values in zip(node.keys, node.values):
            assert values, f"empty value list under key {key!r}"
            assert values == sorted(values), f"values under {key!r} out of order"
            if low is not None:
                assert key > low, f"key {key!r} <= lower bound {low!r}"
            if high is not None:
                assert key < high, f"key {key!r} >= upper bound {high!r}"
        count = sum(len(v) for v in node.values)
        if node.is_leaf:
            leaf_depths.add(depth)
            return count
        assert len(node.children) == len(node.keys) + 1, "child count mismatch"
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            count += self._validate_node(
                child, bounds[i], bounds[i + 1], depth + 1, leaf_depths, is_root=False
            )
        return count
