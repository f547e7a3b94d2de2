"""Unit tests for the ordered secondary index (``IndexKind.BTREE``):
:class:`repro.storage.hashindex.OrderedIndex`."""

import random

import pytest

from repro.storage.hashindex import OrderedIndex
from repro.storage.store import _TAIL
from tests.index_helpers import built, insert, remove_key


class TestBasics:
    def test_empty(self):
        index = OrderedIndex()
        assert len(index) == 0
        assert index.search(1) == []
        assert 1 not in index
        assert list(index.range()) == []
        index.validate()

    def test_insert_search(self):
        index = OrderedIndex()
        insert(index, [(5, "a")])
        assert index.search(5) == ["a"]
        assert 5 in index

    def test_duplicate_key_values(self):
        index = OrderedIndex()
        insert(index, [(1, "b")])
        insert(index, [(1, "a")])
        assert index.search(1) == ["a", "b"]  # ascending, not arrival order
        assert len(index) == 2
        assert index.distinct_keys == 1

    def test_items_sorted(self):
        index = OrderedIndex()
        keys = list(range(100))
        random.Random(1).shuffle(keys)
        for k in keys:
            insert(index, [(k, f"v{k}")])
        assert [k for k, _ in index.items()] == list(range(100))
        index.validate()

    def test_keys_distinct_sorted(self):
        index = OrderedIndex()
        for k in [3, 1, 3, 2, 1]:
            insert(index, [(k, k)])
        assert list(index.keys()) == [1, 2, 3]

    def test_search_returns_copy(self):
        index = OrderedIndex()
        insert(index, [(1, "a")])
        index.search(1).append("mutated")
        assert index.search(1) == ["a"]


class TestRange:
    @pytest.fixture()
    def index(self) -> OrderedIndex:
        t = OrderedIndex()
        for k in range(0, 100, 2):  # evens 0..98
            insert(t, [(k, f"v{k}")])
        return t

    def test_inclusive_range(self, index):
        assert [k for k, _ in index.range(10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self, index):
        got = [k for k, _ in index.range(10, 20, include_low=False, include_high=False)]
        assert got == [12, 14, 16, 18]

    def test_open_low(self, index):
        assert [k for k, _ in index.range(None, 6)] == [0, 2, 4, 6]

    def test_open_high(self, index):
        assert [k for k, _ in index.range(94, None)] == [94, 96, 98]

    def test_full_range(self, index):
        assert len(list(index.range())) == 50

    def test_bounds_between_keys(self, index):
        assert [k for k, _ in index.range(11, 15)] == [12, 14]

    def test_empty_range(self, index):
        assert list(index.range(11, 11)) == []

    def test_single_key_range(self, index):
        assert [k for k, _ in index.range(10, 10)] == [10]

    def test_inverted_range(self, index):
        assert list(index.range(20, 10)) == []

    def test_duplicates_in_range(self):
        index = OrderedIndex()
        insert(index, [(5, "b")])
        insert(index, [(5, "a")])
        insert(index, [(6, "c")])
        assert list(index.range(5, 6)) == [(5, "a"), (5, "b"), (6, "c")]

    def test_tail_bounds_tuple_keys(self):
        # The bounds range_by_composite builds: a prefix tuple below, and
        # a prefix plus _TAIL above, which sorts after every real key
        # sharing the prefix.
        index = built(
            OrderedIndex,
            [((v, p), v * 1000 + p) for v in (94, 95, 96) for p in (1, 600, 601, 900)],
        )
        keys = lambda low, high: [k for k, _ in index.range(low, high)]  # noqa: E731
        assert keys((95,), (95, _TAIL)) == [(95, 1), (95, 600), (95, 601), (95, 900)]
        assert keys((95, 600), (95, 601, _TAIL)) == [(95, 600), (95, 601)]
        assert keys((95, 601), (95, _TAIL)) == [(95, 601), (95, 900)]
        assert keys((95,), (95, 600, _TAIL)) == [(95, 1), (95, 600)]
        assert keys((96, 901), (96, _TAIL)) == []


class TestRemove:
    def test_remove_missing(self):
        index = OrderedIndex()
        assert index.remove_many([(1, "a")]) == 0

    def test_remove_one_value(self):
        index = OrderedIndex()
        insert(index, [(1, "a")])
        insert(index, [(1, "b")])
        assert index.remove_many([(1, "a")]) == 1
        assert index.search(1) == ["b"]
        assert len(index) == 1
        index.validate()

    def test_remove_missing_value(self):
        index = OrderedIndex()
        insert(index, [(1, "a")])
        assert index.remove_many([(1, "zzz")]) == 0
        assert len(index) == 1

    def test_remove_last_value_removes_key(self):
        index = OrderedIndex()
        insert(index, [(1, "a")])
        insert(index, [(2, "b")])
        assert index.remove_many([(1, "a")]) == 1
        assert 1 not in index
        assert index.distinct_keys == 1
        assert list(index.keys()) == [2]
        index.validate()

    def test_remove_whole_key(self):
        index = OrderedIndex()
        insert(index, [(1, "a")])
        insert(index, [(1, "b")])
        assert remove_key(index, 1) == 2
        assert len(index) == 0
        assert list(index.keys()) == []

    def test_remove_all_descending(self):
        index = OrderedIndex()
        for k in range(64):
            insert(index, [(k, k)])
        for k in reversed(range(64)):
            assert index.remove_many([(k, k)]) == 1
            index.validate()
        assert len(index) == 0

    def test_remove_all_ascending(self):
        index = OrderedIndex()
        for k in range(64):
            insert(index, [(k, k)])
        for k in range(64):
            assert index.remove_many([(k, k)])
        index.validate()
        assert list(index.items()) == []

    @pytest.mark.parametrize("seed", [3, 4, 5, 8, 32])
    def test_mixed_workload_validates(self, seed):
        rng = random.Random(seed)
        index = OrderedIndex()
        reference: dict[int, list[int]] = {}
        for _ in range(800):
            key = rng.randrange(80)
            if rng.random() < 0.6:
                value = rng.randrange(1000)
                insert(index, [(key, value)])
                reference.setdefault(key, []).append(value)
            elif reference:
                key = rng.choice(list(reference))
                remove_key(index, key)
                del reference[key]
        index.validate()
        assert list(index.keys()) == sorted(reference)
        for key, values in reference.items():
            assert index.search(key) == sorted(values)


class TestNonIntegerKeys:
    def test_string_keys(self):
        index = OrderedIndex()
        for name in ["mcateer", "maxwell", "meadows", "abdalla"]:
            insert(index, [(name, name)])
        assert list(index.keys()) == ["abdalla", "maxwell", "mcateer", "meadows"]
        assert [k for k, _ in index.range("mb", "md")] == ["mcateer"]

    def test_tuple_keys(self):
        index = OrderedIndex()
        insert(index, [((95, 691), "a")])
        insert(index, [((95, 1), "b")])
        insert(index, [((69, 293), "c")])
        assert [k for k, _ in index.items()] == [(69, 293), (95, 1), (95, 691)]

    def test_incomparable_keys_change_nothing(self):
        index = built(OrderedIndex, [(1, "a"), (2, "b")])
        with pytest.raises(TypeError):
            index.place([("x", "c")])
        with pytest.raises(TypeError):
            insert(index, [(3, "c"), ("x", "d")])
        index.validate()
        assert list(index.items()) == [(1, "a"), (2, "b")]
        with pytest.raises(TypeError):
            built(OrderedIndex, [(1, "a"), ("x", "b")])
