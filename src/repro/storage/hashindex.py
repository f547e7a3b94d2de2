"""Secondary indexes: one dict of buckets, with or without key order.

Both index kinds keep ``dict[key, list[value]]`` buckets (for a secondary
index the values are primary keys), so a point probe is one dict lookup
whatever the kind:

* :class:`HashIndex` (``IndexKind.HASH``) keeps each key's values in
  arrival order and no key order.  Range scans are intentionally
  unsupported — the planner must fall back to an ordered index or a full
  scan, which is exactly the E4 crossover experiment.
* :class:`OrderedIndex` (``IndexKind.BTREE``) adds one sorted list of the
  distinct keys, which :meth:`OrderedIndex.range` bisects, and keeps each
  key's values ascending.  A scan therefore yields ``(key, primary key)``
  pairs in that composite order: the tie order ``ORDER BY`` uses, which
  lets a range scan serve it and shards merge on it.  Keys must be
  mutually comparable.

Both are built through :meth:`HashIndex.from_buckets`, which takes over
buckets filled elsewhere (the record store fills every index it builds in
one scan of its records).  A write's new keys are checked by
:meth:`~HashIndex.place` before the store logs anything, then inserted
where it placed them (:meth:`~HashIndex.insert_many`).  The structures
are single-threaded by design, matching the embedded single-writer store.

Observability: hash probes bump ``storage.hash.probes``; hash writes bump
``storage.hash.insert.count`` (entries inserted, builds included) and
``storage.hash.remove.count`` (entries actually removed); hash builds bump
``storage.hash.bulk_loads``.  Ordered lookups (probes, and one per entry
removed) bump ``storage.btree.searches``; ordered builds bump
``storage.btree.bulk_loads`` and ``storage.btree.bulk_load.pairs``.
Catalogue in ``docs/observability.md``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator

from repro.obs import metrics as _metrics

_PROBES = _metrics.counter("storage.hash.probes")
_INSERTS = _metrics.counter("storage.hash.insert.count")
_REMOVES = _metrics.counter("storage.hash.remove.count")
_BULK_LOADS = _metrics.counter("storage.hash.bulk_loads")
_SEARCHES = _metrics.counter("storage.btree.searches")
_ORDERED_BUILDS = _metrics.counter("storage.btree.bulk_loads")
_ORDERED_BUILD_PAIRS = _metrics.counter("storage.btree.bulk_load.pairs")


class HashIndex:
    """Unordered multimap with the secondary-index interface.

    >>> idx = HashIndex.from_buckets({"smith": [1]})
    >>> idx.insert_many([("smith", 2), ("jones", 3)], [])
    2
    >>> idx.search("smith")
    [1, 2]
    >>> idx.remove_many([("smith", 1), ("smith", 9)])
    1
    >>> idx.search("smith")
    [2]
    """

    supports_range = False

    def __init__(self) -> None:
        self._buckets: dict[Any, list[Any]] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def distinct_keys(self) -> int:
        return len(self._buckets)

    @classmethod
    def from_buckets(cls, buckets: dict[Any, list[Any]]) -> "HashIndex":
        """An index that takes over ``buckets`` (key → non-empty value list).

        Every build ends here; ``buckets`` must not be used afterwards.
        """
        index = cls()
        index._buckets = buckets
        index._len = sum(map(len, buckets.values()))
        index._take_over()
        return index

    def _take_over(self) -> None:
        """Finish a build from taken-over buckets (one metrics update)."""
        _INSERTS.inc(self._len)
        _BULK_LOADS.inc()

    def place(self, pairs: list[tuple[Any, Any]]) -> list[tuple[int, list[Any]]]:
        """Where the new keys of ``pairs`` go: nowhere, without key order."""
        return []

    def insert_many(self, pairs: list[tuple[Any, Any]], placed: list) -> int:
        """Insert ``(key, value)`` pairs, each value after its key's
        others; returns how many.  One metrics update for the batch."""
        buckets = self._buckets
        for key, value in pairs:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [value]
            else:
                bucket.append(value)
        self._len += len(pairs)
        if pairs:
            _INSERTS.inc(len(pairs))
        return len(pairs)

    def search(self, key: Any) -> list[Any]:
        """All values under ``key`` (empty list when absent)."""
        _PROBES.inc()
        return list(self._buckets.get(key, ()))

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets

    def remove_many(self, pairs: list[tuple[Any, Any]]) -> int:
        """Remove one entry per ``(key, value)`` pair; returns how many
        the index held."""
        removed = sum(self._discard(key, value) for key, value in pairs)
        if removed:
            _REMOVES.inc(removed)
        return removed

    def _discard(self, key: Any, value: Any) -> int:
        """Remove one ``value`` under ``key``; 1 if it was there.  A key
        whose last value goes leaves the index."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return 0
        try:
            bucket.remove(value)
        except ValueError:
            return 0
        self._len -= 1
        if not bucket:
            del self._buckets[key]
            self._drop_key(key)
        return 1

    def _drop_key(self, key: Any) -> None:
        """Hook: ``key`` has left the buckets."""

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in arbitrary key order."""
        for key, bucket in self._buckets.items():
            for value in bucket:
                yield (key, value)

    def keys(self) -> Iterator[Any]:
        """Distinct keys in arbitrary order."""
        return iter(self._buckets)


class OrderedIndex(HashIndex):
    """Ordered multimap: the hash buckets plus a sorted list of their keys.

    >>> idx = OrderedIndex.from_buckets({5: ["b", "a"], 9: ["y"], 1: ["x"]})
    >>> idx.search(5)
    ['a', 'b']
    >>> [k for k, _ in idx.range(1, 5, include_low=False)]
    [5, 5]
    >>> pairs = [(3, "z"), (7, "w"), (5, "c")]
    >>> idx.place(pairs)
    [(1, [3]), (2, [7])]
    >>> idx.insert_many(pairs, idx.place(pairs))
    3
    >>> list(idx.keys())
    [1, 3, 5, 7, 9]
    >>> idx.remove_many([(5, "a"), (5, "b"), (5, "c")])
    3
    >>> list(idx.items())
    [(1, 'x'), (3, 'z'), (7, 'w'), (9, 'y')]
    """

    supports_range = True

    def __init__(self) -> None:
        super().__init__()
        self._keys: list[Any] = []  #: the buckets' keys, ascending

    def _take_over(self) -> None:
        # Raises TypeError when the keys do not compare.
        self._keys = sorted(self._buckets)
        for bucket in self._buckets.values():
            bucket.sort()
        _ORDERED_BUILDS.inc()
        _ORDERED_BUILD_PAIRS.inc(self._len)

    def place(self, pairs: list[tuple[Any, Any]]) -> list[tuple[int, list[Any]]]:
        """Sort the keys of ``pairs`` the index does not hold and bisect
        each into the key list: ``(position, keys)`` groups, ascending.
        The bisection is the check, at O(k log n) comparisons: keys that
        do not compare raise ``TypeError``, and nothing has changed."""
        buckets = self._buckets
        new_keys = set()
        for key, _ in pairs:
            if key not in buckets:
                new_keys.add(key)
        if not new_keys:
            return []
        keys = self._keys
        placed: list[tuple[int, list[Any]]] = []
        at = 0
        for key in sorted(new_keys):
            at = bisect_left(keys, key, at)
            if placed and placed[-1][0] == at:
                placed[-1][1].append(key)
            else:
                placed.append((at, [key]))
        return placed

    def insert_many(self, pairs: list[tuple[Any, Any]], placed: list) -> int:
        """Insert ``(key, value)`` pairs, in any order, where :meth:`place`
        placed their new keys (the index unchanged since); returns how
        many.  Each group of new keys is one slice insert, highest first,
        so one new key costs what ``insort`` does."""
        keys = self._keys
        for at, group in reversed(placed):
            keys[at:at] = group
        buckets = self._buckets
        for key, value in pairs:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [value]
            else:
                insort(bucket, value)
        self._len += len(pairs)
        return len(pairs)

    def search(self, key: Any) -> list[Any]:
        """All values under ``key``, ascending (empty list when absent)."""
        _SEARCHES.inc()
        return list(self._buckets.get(key, ()))

    def remove_many(self, pairs: list[tuple[Any, Any]]) -> int:
        """Remove one entry per ``(key, value)`` pair; returns how many
        the index held."""
        if pairs:
            _SEARCHES.inc(len(pairs))
        return sum(self._discard(key, value) for key, value in pairs)

    def _drop_key(self, key: Any) -> None:
        del self._keys[bisect_left(self._keys, key)]

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
        keys = self._keys
        start, stop = 0, len(keys)
        if low is not None:
            start = (bisect_left if include_low else bisect_right)(keys, low)
        if high is not None:
            stop = (bisect_right if include_high else bisect_left)(keys, high)
        buckets = self._buckets
        for i in range(start, stop):
            key = keys[i]
            for value in buckets[key]:
                yield (key, value)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order (values ascending)."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        """Distinct keys in order."""
        return iter(self._keys)

    def validate(self) -> None:
        """Check the invariants; raises ``AssertionError`` on failure.

        Checked: the key list is strictly ascending and holds exactly the
        buckets' keys, every bucket is non-empty and ascending, and the
        cached length matches.
        """
        keys = self._keys
        assert all(a < b for a, b in zip(keys, keys[1:])), "keys not ascending"
        assert len(keys) == len(self._buckets), "key list and buckets differ"
        for key in keys:
            bucket = self._buckets[key]
            assert bucket, f"empty bucket under {key!r}"
            assert bucket == sorted(bucket), f"values under {key!r} out of order"
        assert self._len == sum(map(len, self._buckets.values())), "len cache"
