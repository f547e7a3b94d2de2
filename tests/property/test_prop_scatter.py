"""Property tests: aggregates and sorted queries over any partitioning.

Two layers of the same claim — spreading records over shards never
changes the answer:

* ``aggregate()`` over a store of any shard count finalizes identically
  to a single whole-list fold of :class:`PartialAggregate` (int values
  keep sums exact, so equality is strict).
* :class:`QueryEngine` over a plain :class:`RecordStore`, a 1-shard and
  a hypothesis-chosen N-shard :class:`ShardedStore` returns byte-identical
  sorted scans and aggregates, checked against a plain-Python ground
  truth and the sort oracle.  Its top-k queries run on a ``year`` index,
  read lazily in index order.  Every query also runs profiled, and the
  profiled run returns the same rows, charges its guard the same rows
  and reports them on its access node.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import PartialAggregate, QueryEngine
from repro.query.parser import parse_query
from repro.resilience.deadline import Guard
from repro.storage import IndexKind, RecordStore, ShardedStore
from repro.storage.schema import Field, FieldType, Schema
from tests.property.test_prop_query import _oracle

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("volume", FieldType.INT),
    ],
    primary_key="id",
)

values = st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=60)


def _fold(vals) -> PartialAggregate:
    partial = PartialAggregate()
    for v in vals:
        partial.add(v)
    return partial


@given(values=values, shards=st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_aggregate_is_shard_count_invariant(values, shards):
    with ShardedStore(SCHEMA, shards=shards) as store:
        store.put_many(
            {"id": i, "year": v, "volume": 0} for i, v in enumerate(values)
        )
        result = QueryEngine(store).aggregate("*", "year")
    assert result == _fold(values).finalize()


@given(values=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=40))
@settings(max_examples=100)
def test_partial_aggregate_ground_truth(values):
    result = _fold(values).finalize()
    assert result == {
        "count": len(values),
        "sum": sum(values),
        "min": min(values),
        "max": max(values),
        "avg": sum(values) / len(values),
    }


def _run_plain_and_profiled(engine, query):
    """``query``'s rows, after checking that a profiled run returns the
    same rows, charges its guard the same rows as a plain run, and
    reports those rows as its access node's rows examined."""
    plain_guard, profiled_guard = Guard(max_rows=10_000), Guard(max_rows=10_000)
    rows = engine.execute(query, guard=plain_guard)
    profile = engine.execute(query, guard=profiled_guard, profile=True)
    assert profile.rows == rows, query
    assert profiled_guard.rows_examined == plain_guard.rows_examined, query
    # The access node is the deepest one above the shard children.
    *_, access = (node for node in profile.root.iter_nodes() if node.op != "shard")
    assert access.rows_examined == plain_guard.rows_examined, query
    return rows


records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1900, max_value=1940),  # year
        st.integers(min_value=0, max_value=5),  # volume
    ),
    max_size=50,
).flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows)))))


@given(
    rows_and_order=records_strategy,
    shards=st.integers(min_value=2, max_value=8),
    year=st.integers(min_value=1900, max_value=1940),
    volume=st.integers(min_value=0, max_value=5),
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=50, deadline=None)
def test_scatter_gather_matches_single_shard(rows_and_order, shards, year, volume, k):
    rows, order = rows_and_order
    # Inserted in a shuffled primary-key order, so each shard's index
    # order among equal years is not primary-key order.
    records = [{"id": i, "year": rows[i][0], "volume": rows[i][1]} for i in order]
    topk = f"year >= {year} ORDER BY year LIMIT {k}"
    topk_filtered = f"year >= {year} AND volume = {volume} ORDER BY year LIMIT {k}"
    topk_desc = f"year >= {year} ORDER BY year DESC LIMIT {k}"

    def truth(keep, *, reverse=False):
        ordered = sorted(
            (r for r in records if keep(r)),
            key=lambda r: (r["year"], r["id"]),
            reverse=reverse,
        )
        return ordered[:k]

    # Third arm: a plain store, its records inserted one by one in the
    # same shuffled order, so its index is kept insert by insert.
    plain_store = RecordStore(SCHEMA)
    plain_store.create_index("year", IndexKind.BTREE)
    for record in records:
        plain_store.insert(record)
    engines = [QueryEngine(plain_store)]
    try:
        for n in (1, shards):
            store = ShardedStore(SCHEMA, shards=n)
            store.create_index("year", IndexKind.BTREE)
            store.put_many(records)
            engines.append(QueryEngine(store))
        plain, one, many = engines
        for query in (
            "* ORDER BY year",
            "* ORDER BY year DESC LIMIT 7",
            "* GROUP BY volume",
            "* GROUP BY year ORDER BY count DESC",
            "year >= 1920 ORDER BY volume",
            "year >= 1920 ORDER BY volume DESC LIMIT 5",
            topk,
            topk_filtered,
            topk_desc,
        ):
            expected = _run_plain_and_profiled(one, query)
            assert _run_plain_and_profiled(many, query) == expected, query
            assert _run_plain_and_profiled(plain, query) == expected, query
        assert one.execute(topk) == truth(lambda r: r["year"] >= year)
        assert one.execute(topk_filtered) == truth(
            lambda r: r["year"] >= year and r["volume"] == volume
        )
        assert one.execute(topk_desc) == truth(lambda r: r["year"] >= year, reverse=True)
        # Every store's rows equal the sort-everything oracle's.
        for engine in engines:
            for query in (topk, topk_filtered, topk_desc, f"year >= {year} ORDER BY year"):
                plan, _ = engine._plan(parse_query(query))
                assert engine.execute(query) == _oracle(engine, plan), query
        if records:
            agg = many.aggregate("*", "year")
            years = [r["year"] for r in records]
            assert agg == {
                "count": len(years),
                "sum": sum(years),
                "min": min(years),
                "max": max(years),
                "avg": sum(years) / len(years),
            }
    finally:
        for engine in engines:
            engine.store.close()
