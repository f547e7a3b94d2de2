"""Property-based tests for the B-tree: model-checked against dict/list."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.btree import BTree

keys = st.integers(min_value=-50, max_value=50)
values = st.integers(min_value=0, max_value=9)
orders = st.integers(min_value=3, max_value=12)


@given(orders, st.lists(st.tuples(keys, values), max_size=200))
def test_items_always_sorted(order, pairs):
    tree = BTree(order=order)
    for k, v in pairs:
        tree.insert(k, v)
    out_keys = [k for k, _ in tree.items()]
    assert out_keys == sorted(out_keys)
    tree.validate()


@given(orders, st.lists(st.tuples(keys, values), max_size=200))
def test_search_matches_model(order, pairs):
    tree = BTree(order=order)
    model: dict[int, list[int]] = {}
    for k, v in pairs:
        tree.insert(k, v)
        model.setdefault(k, []).append(v)
    for k, expected in model.items():
        assert sorted(tree.search(k)) == sorted(expected)
    assert len(tree) == sum(len(v) for v in model.values())


@given(
    orders,
    st.lists(st.tuples(keys, values), max_size=150),
    keys,
    keys,
    st.booleans(),
    st.booleans(),
)
def test_range_matches_model(order, pairs, low, high, inc_low, inc_high):
    tree = BTree(order=order)
    model: list[tuple[int, int]] = []
    for k, v in pairs:
        tree.insert(k, v)
        model.append((k, v))

    got = [k for k, _ in tree.range(low, high, include_low=inc_low, include_high=inc_high)]
    want = sorted(
        k
        for k, _ in model
        if (k > low or (k == low and inc_low)) and (k < high or (k == high and inc_high))
    )
    assert got == want


tree_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, values),
        st.tuples(st.just("remove"), keys, values),
        st.tuples(st.just("insert_many"), st.lists(st.tuples(keys, values), max_size=40)),
        st.tuples(st.just("bulk_load"), st.lists(st.tuples(keys, values), max_size=60)),
    ),
    max_size=30,
)


@given(orders, tree_ops)
@settings(max_examples=150, deadline=None)
def test_values_ascend_under_every_key(order, ops):
    # Secondary indexes store primary keys as values: ascending values
    # make a range scan yield (key, primary key) order, the ORDER BY tie
    # rule.  Batches come sorted by key only, values in any order.
    tree = BTree(order=order)
    model: dict[int, list[int]] = {}
    for op in ops:
        if op[0] == "insert":
            _, key, value = op
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        elif op[0] == "remove":
            _, key, value = op
            removed = value in model.get(key, [])
            assert tree.remove(key, value) is removed
            if removed:
                model[key].remove(value)
                if not model[key]:
                    del model[key]
        else:
            pairs = sorted(op[1], key=lambda kv: kv[0])
            if op[0] == "bulk_load":
                tree = BTree.bulk_load(pairs, order=order)
                model = {}
            else:
                tree.insert_many(pairs)
            for key, value in pairs:
                model.setdefault(key, []).append(value)
        tree.validate()
    for key, values in model.items():
        assert tree.search(key) == sorted(values)
    assert list(tree.items()) == sorted(
        (key, value) for key, values in model.items() for value in values
    )


class BTreeMachine(RuleBasedStateMachine):
    """Stateful test: arbitrary interleavings of insert/remove vs. a model."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(order=4)
        self.model: dict[int, list[int]] = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model.setdefault(key, []).append(value)

    @rule(key=keys, value=values)
    def remove_value(self, key, value):
        expected = value in self.model.get(key, [])
        assert self.tree.remove(key, value) is expected
        if expected:
            self.model[key].remove(value)
            if not self.model[key]:
                del self.model[key]

    @rule(key=keys)
    def remove_key(self, key):
        expected = key in self.model
        assert self.tree.remove(key) is expected
        self.model.pop(key, None)

    @invariant()
    def structure_valid(self):
        self.tree.validate()

    @invariant()
    def contents_match(self):
        assert list(self.tree.keys()) == sorted(self.model)


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(max_examples=40, stateful_step_count=30)
