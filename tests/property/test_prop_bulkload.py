"""Property tests: a built ordered index (:meth:`OrderedIndex.bulk_load`,
:meth:`OrderedIndex.from_buckets`) is indistinguishable from one built by
inserts, and batched inserts from one-by-one inserts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.hashindex import OrderedIndex

bucket_maps = st.dictionaries(
    st.integers(min_value=-10_000, max_value=10_000),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    max_size=120,
)


def _inserted(pairs) -> OrderedIndex:
    index = OrderedIndex()
    for key, value in pairs:
        index.insert(key, value)
    return index


def _same(a: OrderedIndex, b: OrderedIndex) -> None:
    assert list(a.items()) == list(b.items())
    assert len(a) == len(b)
    assert a.distinct_keys == b.distinct_keys


@given(bucket_maps)
@settings(max_examples=120, deadline=None)
def test_bulk_load_valid_and_complete(buckets):
    model = {k: sorted(v) for k, v in buckets.items()}
    index = OrderedIndex.from_buckets(buckets)
    index.validate()
    assert list(index.keys()) == sorted(model)
    for key, values in model.items():
        assert index.search(key) == values  # stored ascending


@given(bucket_maps)
@settings(max_examples=80, deadline=None)
def test_bulk_load_equals_insert_build(buckets):
    manual = _inserted((k, v) for k, values in buckets.items() for v in values)
    _same(OrderedIndex.from_buckets(buckets), manual)


@given(bucket_maps, st.lists(st.integers(-10_000, 10_000), max_size=30))
@settings(max_examples=60, deadline=None)
def test_bulk_loaded_tree_survives_mutation(buckets, extra_keys):
    model = {k: list(v) for k, v in buckets.items()}
    index = OrderedIndex.from_buckets(buckets)
    for key in extra_keys:
        index.insert(key, 42)
        model.setdefault(key, []).append(42)
    for key in extra_keys[: len(extra_keys) // 2]:
        if key in model:
            index.remove(key)
            del model[key]
    index.validate()
    assert list(index.keys()) == sorted(model)


flat_pairs = st.lists(
    st.tuples(
        st.integers(min_value=-10_000, max_value=10_000),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=150,
)

mutations = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), st.integers(-10_000, 10_000)),
    max_size=60,
)


@given(flat_pairs)
@settings(max_examples=80, deadline=None)
def test_bulk_load_flat_pairs_valid(pairs):
    index = OrderedIndex.bulk_load(pairs)
    index.validate()
    assert list(index.items()) == sorted(pairs)  # values ascending per key
    assert len(index) == len(pairs)


@given(flat_pairs, mutations)
@settings(max_examples=60, deadline=None)
def test_bulk_load_mutates_like_insert_built(pairs, ops):
    """A built index and an insert-built one receiving the same
    insert/remove sequence stay observationally identical."""
    bulk = OrderedIndex.bulk_load(pairs)
    manual = _inserted(pairs)
    for op, key in ops:
        if op == "insert":
            bulk.insert(key, -1)
            manual.insert(key, -1)
        else:
            assert bulk.remove(key) == manual.remove(key)
        bulk.validate()
        _same(bulk, manual)


narrow_pairs = st.lists(
    st.tuples(st.integers(min_value=-30, max_value=30), st.integers(0, 9)),
    max_size=80,
)


@given(narrow_pairs, narrow_pairs)
@settings(max_examples=60, deadline=None)
def test_insert_many_equals_per_insert(existing, batch):
    # Over a narrow key range the batch mixes keys the index holds with
    # new ones, in any order.
    batched = OrderedIndex.bulk_load(existing)
    batched.insert_many(batch)
    batched.validate()
    manual = OrderedIndex.bulk_load(existing)
    for key, value in batch:
        manual.insert(key, value)
    _same(batched, manual)
