"""Unit tests for building ordered indexes (``IndexKind.BTREE``) in one
step: :meth:`OrderedIndex.from_buckets`, which sorts the keys and each
key's values it takes over, and the record store's one-scan build."""

import random

import pytest

from repro.storage.hashindex import OrderedIndex


class TestFromSorted:
    def test_empty(self):
        index = OrderedIndex.from_buckets({})
        index.validate()
        assert len(index) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 17, 100, 1000])
    @pytest.mark.parametrize("seed", [3, 4, 8, 32])
    def test_sizes_and_orders(self, n, seed):
        # The buckets arrive in a shuffled key order; the build sorts it.
        keys = list(range(n))
        random.Random(seed).shuffle(keys)
        index = OrderedIndex.from_buckets({k: [f"v{k}"] for k in keys})
        index.validate()
        assert list(index.keys()) == list(range(n))
        assert len(index) == n

    def test_multi_values_preserved(self):
        index = OrderedIndex.from_buckets({2: ["c"], 1: ["b", "a"]})
        assert index.search(1) == ["a", "b"]
        assert len(index) == 3

    def test_equivalent_to_inserts(self):
        buckets = {k: [k * 10 + 1, k * 10] for k in range(200)}
        manual = OrderedIndex()
        for key, values in buckets.items():
            for value in values:
                manual.insert(key, value)
        bulk = OrderedIndex.from_buckets(buckets)
        assert list(bulk.items()) == list(manual.items())

    def test_mutable_after_bulk_load(self):
        index = OrderedIndex.from_buckets({k: [k] for k in range(50)})
        index.insert(25, 999)
        assert index.search(25) == [25, 999]
        assert index.remove(10)
        index.validate()

    def test_values_copied_not_aliased(self):
        pairs = [(1, "a")]
        index = OrderedIndex.bulk_load(pairs)
        pairs.append((1, "mutated"))
        assert index.search(1) == ["a"]

    def test_string_keys(self):
        names = ["zed", "cole", "abel", "mcateer", "brown"]
        index = OrderedIndex.from_buckets({n: [n] for n in names})
        index.validate()
        assert [k for k, _ in index.range("b", "n")] == ["brown", "cole", "mcateer"]


class TestStoreUsesBulkLoad:
    def test_index_over_existing_data_correct(self, memory_store):
        for i in range(500):
            memory_store.insert({"id": i, "name": f"n{i % 7}", "year": 1900 + i % 50})
        memory_store.create_index("year")
        got = [r["year"] for r in memory_store.range_by("year", 1910, 1915)]
        assert got == sorted(got)
        assert all(1910 <= y <= 1915 for y in got)
        assert len(got) == sum(1 for i in range(500) if 1910 <= 1900 + i % 50 <= 1915)

    def test_mixed_type_keys_rejected_clearly(self, simple_schema):
        # An ordered index cannot hold mutually incomparable keys; the
        # build must fail with a clear StorageError and declare nothing.
        # Schema validation keeps such keys out of a store, so the record
        # comes in through the pre-validated bulk path.
        from repro.errors import StorageError
        from repro.storage.store import RecordStore

        store = RecordStore(simple_schema)
        store.insert({"id": 1, "name": "a", "year": 1990})
        store.put_many([{"id": 2, "name": "b", "year": "MCMXC"}], _prevalidated=True)
        with pytest.raises(StorageError, match="mutually comparable"):
            store.create_index("year")
        assert not store.has_index("year")
