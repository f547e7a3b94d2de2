"""Property tests: bulk-loaded B-trees are indistinguishable from built ones."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BTree

pair_lists = st.lists(
    st.tuples(
        st.integers(min_value=-10_000, max_value=10_000),
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    ),
    max_size=120,
    unique_by=lambda kv: kv[0],
).map(lambda pairs: sorted(pairs))

orders = st.integers(min_value=3, max_value=40)


@given(pair_lists, orders)
@settings(max_examples=120, deadline=None)
def test_bulk_load_valid_and_complete(pairs, order):
    tree = BTree.from_sorted(pairs, order=order)
    tree.validate()
    assert list(tree.keys()) == [k for k, _ in pairs]
    for key, values in pairs:
        assert tree.search(key) == sorted(values)  # stored ascending


@given(pair_lists, orders)
@settings(max_examples=80, deadline=None)
def test_bulk_load_equals_insert_build(pairs, order):
    bulk = BTree.from_sorted(pairs, order=order)
    manual = BTree(order=order)
    for key, values in pairs:
        for value in values:
            manual.insert(key, value)
    assert list(bulk.items()) == list(manual.items())
    assert len(bulk) == len(manual)
    assert bulk.distinct_keys == manual.distinct_keys


@given(pair_lists, orders, st.lists(st.integers(-10_000, 10_000), max_size=30))
@settings(max_examples=60, deadline=None)
def test_bulk_loaded_tree_survives_mutation(pairs, order, extra_keys):
    tree = BTree.from_sorted(pairs, order=order)
    model = {k: list(v) for k, v in pairs}
    for key in extra_keys:
        tree.insert(key, 42)
        model.setdefault(key, []).append(42)
    for key in extra_keys[: len(extra_keys) // 2]:
        if key in model:
            tree.remove(key)
            del model[key]
    tree.validate()
    assert list(tree.keys()) == sorted(model)


flat_pairs = st.lists(
    st.tuples(
        st.integers(min_value=-10_000, max_value=10_000),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=150,
).map(lambda pairs: sorted(pairs, key=lambda kv: kv[0]))

mutations = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), st.integers(-10_000, 10_000)),
    max_size=60,
)


@given(flat_pairs, orders)
@settings(max_examples=80, deadline=None)
def test_bulk_load_flat_pairs_valid(pairs, order):
    tree = BTree.bulk_load(pairs, order=order)
    tree.validate()
    assert list(tree.items()) == sorted(pairs)  # values ascending per key
    assert len(tree) == len(pairs)


@given(flat_pairs, orders, mutations)
@settings(max_examples=60, deadline=None)
def test_bulk_load_mutates_like_insert_built(pairs, order, ops):
    """The tentpole equivalence: a bulk-loaded tree and an insert-built
    tree receiving the same insert/remove sequence — driving splits and
    underflow merges from their different initial shapes — stay
    observationally identical (same items(), both valid)."""
    bulk = BTree.bulk_load(pairs, order=order)
    manual = BTree(order=order)
    for key, value in pairs:
        manual.insert(key, value)
    for op, key in ops:
        if op == "insert":
            bulk.insert(key, -1)
            manual.insert(key, -1)
        else:
            assert bulk.remove(key) == manual.remove(key)
        bulk.validate()
        manual.validate()
        assert list(bulk.items()) == list(manual.items())
    assert len(bulk) == len(manual)
    assert bulk.distinct_keys == manual.distinct_keys


@given(flat_pairs, flat_pairs, orders)
@settings(max_examples=60, deadline=None)
def test_insert_many_equals_per_insert(existing, batch, order):
    batched = BTree.bulk_load(existing, order=order)
    batched.insert_many(batch)
    batched.validate()
    manual = BTree.bulk_load(existing, order=order)
    for key, value in batch:
        manual.insert(key, value)
    assert list(batched.items()) == list(manual.items())
    assert len(batched) == len(manual)
    assert batched.distinct_keys == manual.distinct_keys
