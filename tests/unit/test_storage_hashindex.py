"""Unit tests for repro.storage.hashindex."""

from repro.storage.hashindex import HashIndex
from tests.index_helpers import built, insert, remove_key


class TestHashIndex:
    def test_empty(self):
        idx = HashIndex()
        assert len(idx) == 0
        assert idx.search("x") == []
        assert "x" not in idx

    def test_insert_search(self):
        idx = HashIndex()
        insert(idx, [("smith", 1)])
        insert(idx, [("smith", 2)])
        assert idx.search("smith") == [1, 2]
        assert len(idx) == 2
        assert idx.distinct_keys == 1

    def test_search_returns_copy(self):
        idx = HashIndex()
        insert(idx, [("a", 1)])
        result = idx.search("a")
        result.append(99)
        assert idx.search("a") == [1]

    def test_remove_value(self):
        idx = HashIndex()
        insert(idx, [("a", 1)])
        insert(idx, [("a", 2)])
        assert idx.remove_many([("a", 1)]) == 1
        assert idx.search("a") == [2]
        assert len(idx) == 1

    def test_remove_last_value_drops_key(self):
        idx = HashIndex()
        insert(idx, [("a", 1)])
        idx.remove_many([("a", 1)])
        assert "a" not in idx
        assert idx.distinct_keys == 0

    def test_remove_whole_key(self):
        idx = HashIndex()
        insert(idx, [("a", 1)])
        insert(idx, [("a", 2)])
        assert remove_key(idx, "a") == 2
        assert len(idx) == 0

    def test_remove_missing(self):
        idx = HashIndex()
        assert remove_key(idx, "a") == 0
        insert(idx, [("a", 1)])
        assert idx.remove_many([("a", 42)]) == 0

    def test_items_and_keys(self):
        idx = HashIndex()
        insert(idx, [("a", 1)])
        insert(idx, [("b", 2)])
        insert(idx, [("a", 3)])
        assert sorted(idx.items()) == [("a", 1), ("a", 3), ("b", 2)]
        assert sorted(idx.keys()) == ["a", "b"]

    def test_no_range_support_flag(self):
        assert HashIndex.supports_range is False


class TestMutationCounters:
    def test_insert_and_remove_counters(self):
        from repro.obs import metrics

        metrics.reset()
        idx = HashIndex()
        insert(idx, [("a", 1)])
        insert(idx, [("a", 2)])
        insert(idx, [("b", 3)])
        idx.remove_many([("a", 1)])        # one entry
        remove_key(idx, "b")               # whole key: one entry
        idx.remove_many([("missing", 1)])  # miss: uncounted
        counters = metrics.snapshot()["counters"]
        assert counters["storage.hash.insert.count"] == 3
        assert counters["storage.hash.remove.count"] == 2

    def test_whole_key_removal_counts_every_entry(self):
        from repro.obs import metrics

        metrics.reset()
        idx = HashIndex()
        for value in range(5):
            insert(idx, [("a", value)])
        remove_key(idx, "a")
        assert metrics.snapshot()["counters"]["storage.hash.remove.count"] == 5


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        pairs = [(f"k{i % 4}", i) for i in range(20)]
        bulk = built(HashIndex, pairs)
        serial = HashIndex()
        for key, value in pairs:
            insert(serial, [(key, value)])
        assert sorted(bulk.items()) == sorted(serial.items())
        assert len(bulk) == len(serial)
        assert bulk.distinct_keys == serial.distinct_keys

    def test_bulk_load_counts_once(self):
        from repro.obs import metrics

        metrics.reset()
        built(HashIndex, [("a", 1), ("b", 2), ("a", 3)])
        counters = metrics.snapshot()["counters"]
        assert counters["storage.hash.bulk_loads"] == 1
        assert counters["storage.hash.insert.count"] == 3

    def test_insert_many_returns_count(self):
        idx = HashIndex()
        assert insert(idx, [("a", 1), ("b", 2)]) == 2
        assert insert(idx, []) == 0
        assert len(idx) == 2
