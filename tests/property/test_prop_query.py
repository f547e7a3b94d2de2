"""Property-based planner/scan equivalence over random data and queries."""

import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.query.ast_nodes import And, Comparison, Not, Operator, Or, Query
from repro.query.executor import QueryEngine, _sort_key
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.store import IndexKind, RecordStore

_SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
        Field("tags", FieldType.STRING_LIST, required=False),
    ],
    primary_key="id",
)

_NAMES = ["smith", "jones", "li", "garcia", "chen"]
_TAGS = ["coal", "tax", "tort", "labor"]

rows = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.integers(min_value=1960, max_value=2000),
        st.lists(st.sampled_from(_TAGS), max_size=3),
    ),
    max_size=40,
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        field = draw(st.sampled_from(["name", "year", "tags"]))
        if field == "name":
            op = draw(st.sampled_from([Operator.EQ, Operator.NE, Operator.MATCH]))
            value = draw(st.sampled_from(_NAMES + ["nobody"]))
        elif field == "year":
            op = draw(st.sampled_from(list(Operator)))
            value = draw(st.integers(min_value=1955, max_value=2005))
        else:
            op = draw(st.sampled_from([Operator.MATCH, Operator.EQ]))
            value = draw(st.sampled_from(_TAGS + ["missing"]))
        return Comparison(field, op, value)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(expressions(depth=depth + 1)))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def queries(draw):
    group_by = draw(st.sampled_from([None, None, "name", "year", "tags"]))
    if group_by is None:
        order_fields = [None, "year", "name", "id"]
    else:  # grouped rows are {group field, "count"}: only those sort
        order_fields = [None, group_by, "count"]
    return Query(
        where=draw(st.one_of(st.none(), expressions())),
        group_by=group_by,
        order_by=draw(st.sampled_from(order_fields)),
        descending=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=10))),
    )


def _build_engines(data):
    indexed = RecordStore(_SCHEMA)
    for i, (name, year, tags) in enumerate(data):
        indexed.insert({"id": i, "name": name, "year": year, "tags": tags})
    indexed.create_index("name", IndexKind.HASH)
    indexed.create_index("year", IndexKind.BTREE)
    indexed.create_index("tags", IndexKind.BTREE)
    return QueryEngine(indexed)


@given(rows, queries())
@settings(max_examples=150, deadline=None)
def test_planned_execution_equals_full_scan(data, query):
    engine = _build_engines(data)
    planned = engine.execute(query)
    scanned = engine.execute_without_indexes(query)
    if query.order_by is not None or query.group_by is not None:
        # Ties break on the primary key, and groups come out in value
        # order, so any plan gives these rows.
        assert planned == scanned
    elif query.limit is None:
        assert sorted(r["id"] for r in planned) == sorted(r["id"] for r in scanned)
    else:
        # LIMIT with no ORDER BY picks rows in access-path order, which
        # depends on the plan; the count must agree and every planned
        # row must satisfy the filter.
        assert len(planned) == len(scanned)
        for row in planned:
            assert query.matches(row)


@given(rows, queries())
@settings(max_examples=80, deadline=None)
def test_all_results_match_predicate(data, query):
    assume(query.group_by is None)  # grouped rows are counts, not records
    engine = _build_engines(data)
    for row in engine.execute(query):
        assert query.matches(row)


@given(rows, queries())
@settings(max_examples=80, deadline=None)
def test_order_by_respected(data, query):
    engine = _build_engines(data)
    rows_out = engine.execute(query)
    if query.order_by in ("year", "id", "count"):
        values = [r[query.order_by] for r in rows_out]
        assert values == sorted(values, reverse=query.descending)


@given(rows, queries())
@settings(max_examples=60, deadline=None)
def test_limit_respected(data, query):
    engine = _build_engines(data)
    rows_out = engine.execute(query)
    if query.limit is not None:
        assert len(rows_out) <= query.limit


# -- ordered, limited results against the materialize-and-sort oracle ------

_YEARS = st.integers(min_value=1960, max_value=1966)  # few values: many ties


def _oracle(engine, plan):
    """The sort-everything algorithm: materialize the access path's
    candidates, filter, sort by ``(ORDER BY value, primary key)`` — DESC
    reverses both — then slice."""
    rows = list(engine._candidates(plan))
    if plan.residual is not None:
        rows = [r for r in rows if plan.residual.evaluate(r)]
    if plan.order_by is not None:
        field, pk = plan.order_by, engine.store.schema.primary_key
        rows = sorted(
            rows,
            key=lambda r: (_sort_key(r.get(field)), _sort_key(r.get(pk))),
            reverse=plan.descending,
        )
    return rows if plan.limit is None else rows[: plan.limit]


@st.composite
def ordered_queries(draw):
    field = draw(st.sampled_from(["year", "tags"]))  # the range the index scans
    if field == "year":
        low = draw(_YEARS)
        where = Comparison("year", Operator.GE, low)
        if draw(st.booleans()):
            where = And(where, Comparison("year", Operator.LE, low + draw(_YEARS) - 1960))
    else:
        where = Comparison("tags", Operator.GE, draw(st.sampled_from(_TAGS)))
    if draw(st.booleans()):
        # A residual on another field (NE is never an index probe).
        where = And(where, Comparison("name", Operator.NE, draw(st.sampled_from(_NAMES))))
    return Query(
        where=where,
        # Weighted towards ORDER BY on the scanned field, the case that
        # may skip the sort.
        order_by=draw(st.sampled_from([field, field, "year", "tags", "name", "id", None])),
        descending=draw(st.booleans()),
        limit=draw(st.sampled_from([None, 0, 1, draw(st.integers(2, 12))])),
    )


shuffled_rows = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        _YEARS,
        st.lists(st.sampled_from(_TAGS), max_size=3),
    ),
    max_size=40,
).flatmap(lambda data: st.tuples(st.just(data), st.permutations(range(len(data)))))


def _records(data, order):
    # Insert in a shuffled primary-key order, so insertion order among
    # ties differs from the primary-key order ORDER BY breaks them in.
    return [
        {"id": i, "name": data[i][0], "year": data[i][1], "tags": data[i][2]}
        for i in order
    ]


def _declare(store):
    store.create_index("name", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("tags", IndexKind.BTREE)


def _assert_matches_oracle(engine, query):
    plan, _ = engine._plan(query)
    expected = _oracle(engine, plan)
    assert engine.execute(query) == expected
    assert engine.execute(query, profile=True).rows == expected


# Two pinned cases: a DESC scan's ties, and a list field whose index
# order (by element) is not the order ORDER BY sorts its lists in.
_DESC_TIES = example(
    (
        [("li", 1961, []), ("chen", 1962, []), ("li", 1962, []), ("li", 1961, [])],
        [2, 0, 3, 1],
    ),
    [Query(where=Comparison("year", Operator.GE, 1960), order_by="year",
           descending=True, limit=3)],
)
_LIST_ORDER = example(
    ([("li", 1961, ["tort", "coal"]), ("li", 1961, ["labor"])], [0, 1]),
    [Query(where=Comparison("tags", Operator.GE, "coal"), order_by="tags")],
)


@_DESC_TIES
@_LIST_ORDER
@given(shuffled_rows, st.lists(ordered_queries(), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_ordered_limited_results_equal_the_sort_oracle(rows_and_order, queries):
    data, order = rows_and_order
    memory = RecordStore(_SCHEMA)
    _declare(memory)
    for record in _records(data, order):  # indexes maintained insert by insert
        memory.insert(record)
    engine = QueryEngine(memory)
    for query in queries:
        _assert_matches_oracle(engine, query)


@_DESC_TIES
@_LIST_ORDER
@given(shuffled_rows, st.lists(ordered_queries(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_reopened_paged_store_equals_the_sort_oracle(rows_and_order, queries):
    # The benchmark's configuration: a durable store, checkpointed and
    # reopened, whose secondary indexes are rebuilt lazily on first use.
    data, order = rows_and_order
    with tempfile.TemporaryDirectory() as directory:
        with RecordStore(_SCHEMA, directory) as store:
            _declare(store)
            store.put_many(_records(data, order))
            store.checkpoint()
        with RecordStore(_SCHEMA, directory) as reopened:
            engine = QueryEngine(reopened)
            for query in queries:
                _assert_matches_oracle(engine, query)
