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
  mutually comparable.  A new key costs a list insert that shifts the
  keys above it; an existing key costs only its bucket's insert.

Both are built through :meth:`HashIndex.from_buckets`, which takes over
buckets filled elsewhere (the record store fills every index it builds in
one scan of its records).  The structures are single-threaded by design,
matching the embedded single-writer store.

Observability: hash probes bump ``storage.hash.probes``; hash writes bump
``storage.hash.insert.count`` (entries inserted, builds included) and
``storage.hash.remove.count`` (entries actually removed); hash builds bump
``storage.hash.bulk_loads``.  Ordered lookups (probes and removals) bump
``storage.btree.searches``; ordered builds bump
``storage.btree.bulk_loads`` and ``storage.btree.bulk_load.pairs``.
Catalogue in ``docs/observability.md``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterable, Iterator

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

    >>> idx = HashIndex()
    >>> idx.insert("smith", 1)
    >>> idx.insert("smith", 2)
    >>> sorted(idx.search("smith"))
    [1, 2]
    >>> idx.remove("smith", 1)
    True
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
    def bulk_load(cls, pairs: Iterable[tuple[Any, Any]]) -> "HashIndex":
        """Build an index from ``(key, value)`` pairs in one pass.

        Pairs may arrive in any order; a hash index keeps each key's
        values in arrival order.  One metrics update covers the whole
        build.

        >>> idx = HashIndex.bulk_load([("a", 3), ("b", 2), ("a", 1)])
        >>> idx.search("a")
        [3, 1]
        """
        buckets: dict[Any, list[Any]] = {}
        for key, value in pairs:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [value]
            else:
                bucket.append(value)
        return cls.from_buckets(buckets)

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

    def insert_many(self, pairs: Iterable[tuple[Any, Any]]) -> int:
        """Insert many ``(key, value)`` pairs; returns how many.

        Equivalent to repeated :meth:`insert` but with a single metrics
        update for the whole batch.
        """
        buckets = self._buckets
        inserted = 0
        for key, value in pairs:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [value]
            else:
                bucket.append(value)
            inserted += 1
        self._len += inserted
        _INSERTS.inc(inserted)
        return inserted

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``."""
        self._buckets.setdefault(key, []).append(value)
        self._len += 1
        _INSERTS.inc()

    def search(self, key: Any) -> list[Any]:
        """All values under ``key`` (empty list when absent)."""
        _PROBES.inc()
        return list(self._buckets.get(key, ()))

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets

    def remove(self, key: Any, value: Any | None = None) -> bool:
        """Remove one ``value`` (or the whole key); True if removed."""
        removed = self._discard(key, value)
        if removed:
            _REMOVES.inc(removed)
        return bool(removed)

    def _discard(self, key: Any, value: Any | None) -> int:
        """Remove ``value`` (or every value) under ``key``; the entries
        removed.  A key whose last value goes leaves the index."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return 0
        if value is None:
            removed = len(bucket)
        else:
            try:
                bucket.remove(value)
            except ValueError:
                return 0
            removed = 1
        self._len -= removed
        if value is None or not bucket:
            del self._buckets[key]
            self._drop_key(key)
        return removed

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

    >>> idx = OrderedIndex.bulk_load([(5, "b"), (9, "y"), (1, "x"), (5, "a")])
    >>> idx.search(5)
    ['a', 'b']
    >>> [k for k, _ in idx.range(1, 5, include_low=False)]
    [5, 5]
    >>> idx.insert(3, "z")
    >>> list(idx.keys())
    [1, 3, 5, 9]
    >>> idx.remove(5)
    True
    >>> list(idx.items())
    [(1, 'x'), (3, 'z'), (9, 'y')]
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

    def insert_many(self, pairs: Iterable[tuple[Any, Any]]) -> int:
        """Insert many ``(key, value)`` pairs, in any order; returns how many.

        The batch's new keys are merged into the key list in one sort,
        which raises ``TypeError`` before anything changes when they do
        not compare with each other or with the keys already held.
        """
        pairs = list(pairs)
        buckets = self._buckets
        new_keys = dict.fromkeys(key for key, _ in pairs if key not in buckets)
        if new_keys:
            self._keys = sorted([*self._keys, *new_keys])
        for key, value in pairs:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [value]
            else:
                insort(bucket, value)
        self._len += len(pairs)
        return len(pairs)

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``, keeping the key's values ascending."""
        bucket = self._buckets.get(key)
        if bucket is None:
            insort(self._keys, key)
            self._buckets[key] = [value]
        else:
            insort(bucket, value)
        self._len += 1

    def search(self, key: Any) -> list[Any]:
        """All values under ``key``, ascending (empty list when absent)."""
        _SEARCHES.inc()
        return list(self._buckets.get(key, ()))

    def remove(self, key: Any, value: Any | None = None) -> bool:
        """Remove one ``value`` (or the whole key); True if removed."""
        _SEARCHES.inc()
        return bool(self._discard(key, value))

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
