"""Property-based tests for the ordered secondary index
(:class:`repro.storage.hashindex.OrderedIndex`): model-checked against a
dict of lists."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.hashindex import OrderedIndex
from repro.storage.store import _TAIL

keys = st.integers(min_value=-50, max_value=50)
values = st.integers(min_value=0, max_value=9)
bounds = st.none() | keys


@given(st.lists(st.tuples(keys, values), max_size=200))
def test_items_always_sorted(pairs):
    index = OrderedIndex()
    for k, v in pairs:
        index.insert(k, v)
    assert list(index.items()) == sorted(pairs)
    index.validate()


@given(st.lists(st.tuples(keys, values), max_size=200))
def test_search_matches_model(pairs):
    index = OrderedIndex()
    model: dict[int, list[int]] = {}
    for k, v in pairs:
        index.insert(k, v)
        model.setdefault(k, []).append(v)
    for k, expected in model.items():
        assert index.search(k) == sorted(expected)
    assert index.search(51) == []
    assert len(index) == sum(len(v) for v in model.values())
    assert index.distinct_keys == len(model)


def _in_range(k, low, high, inc_low, inc_high):
    return (low is None or k > low or (k == low and inc_low)) and (
        high is None or k < high or (k == high and inc_high)
    )


@given(
    st.lists(st.tuples(keys, values), max_size=150),
    bounds,
    bounds,
    st.booleans(),
    st.booleans(),
)
def test_range_matches_model(pairs, low, high, inc_low, inc_high):
    # Every bound combination: open or closed, inclusive or not, on a
    # key present or absent, inverted or not.
    index = OrderedIndex.bulk_load(pairs)
    got = list(index.range(low, high, include_low=inc_low, include_high=inc_high))
    want = sorted(p for p in pairs if _in_range(p[0], low, high, inc_low, inc_high))
    assert got == want


@given(
    st.lists(st.tuples(st.tuples(keys, keys), values), max_size=150),
    keys,
    st.none() | keys,
    st.none() | keys,
)
def test_tail_bounded_prefix_range_matches_model(pairs, prefix, low, high):
    # The bounds range_by_composite builds over (prefix, component) keys:
    # (prefix, low) or (prefix,) below, (prefix, high, _TAIL) or
    # (prefix, _TAIL) above, both inclusive.
    index = OrderedIndex.bulk_load(pairs)
    low_key = (prefix,) if low is None else (prefix, low)
    high_key = (prefix, _TAIL) if high is None else (prefix, high, _TAIL)
    got = list(index.range(low_key, high_key))
    want = sorted(
        (k, v) for k, v in pairs if k[0] == prefix and _in_range(k[1], low, high, True, True)
    )
    assert got == want


index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, values),
        st.tuples(st.just("remove"), keys, values),
        st.tuples(st.just("insert_many"), st.lists(st.tuples(keys, values), max_size=40)),
        st.tuples(st.just("bulk_load"), st.lists(st.tuples(keys, values), max_size=60)),
    ),
    max_size=30,
)


@given(index_ops)
@settings(max_examples=150, deadline=None)
def test_values_ascend_under_every_key(ops):
    # Secondary indexes store primary keys as values: ascending values
    # make a range scan yield (key, primary key) order, the ORDER BY tie
    # rule.  Batches come in any order.
    index = OrderedIndex()
    model: dict[int, list[int]] = {}
    for op in ops:
        if op[0] == "insert":
            _, key, value = op
            index.insert(key, value)
            model.setdefault(key, []).append(value)
        elif op[0] == "remove":
            _, key, value = op
            removed = value in model.get(key, [])
            assert index.remove(key, value) is removed
            if removed:
                model[key].remove(value)
                if not model[key]:
                    del model[key]
        else:
            if op[0] == "bulk_load":
                index = OrderedIndex.bulk_load(op[1])
                model = {}
            else:
                assert index.insert_many(op[1]) == len(op[1])
            for key, value in op[1]:
                model.setdefault(key, []).append(value)
        index.validate()
    for key, values_ in model.items():
        assert index.search(key) == sorted(values_)
    assert list(index.items()) == sorted(
        (key, value) for key, values_ in model.items() for value in values_
    )


class BTreeMachine(RuleBasedStateMachine):
    """Stateful test: arbitrary interleavings of insert/remove vs. a model."""

    def __init__(self):
        super().__init__()
        self.index = OrderedIndex()
        self.model: dict[int, list[int]] = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.index.insert(key, value)
        self.model.setdefault(key, []).append(value)

    @rule(key=keys, value=values)
    def remove_value(self, key, value):
        expected = value in self.model.get(key, [])
        assert self.index.remove(key, value) is expected
        if expected:
            self.model[key].remove(value)
            if not self.model[key]:
                del self.model[key]

    @rule(key=keys)
    def remove_key(self, key):
        expected = key in self.model
        assert self.index.remove(key) is expected
        self.model.pop(key, None)

    @invariant()
    def structure_valid(self):
        self.index.validate()

    @invariant()
    def contents_match(self):
        assert list(self.index.keys()) == sorted(self.model)
        for key, values_ in self.model.items():
            assert self.index.search(key) == sorted(values_)


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(max_examples=40, stateful_step_count=30)
