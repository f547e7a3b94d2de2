"""Property tests: partial-aggregate combine and scatter-gather merges.

Two layers of the same claim — decomposing work over shards never changes
the answer:

* :class:`PartialAggregate` folded over *any* partitioning of the values,
  merged in *any* order, finalizes identically to a single whole-list fold
  (int values keep sums exact, so equality is strict).
* A :class:`ShardedQueryEngine` over a hypothesis-chosen shard count
  returns byte-identical sorted scans and aggregates to the 1-shard case,
  which is itself checked against a plain-Python ground truth.  Its
  top-k queries run on a ``year`` index, read lazily in index order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import PartialAggregate, QueryEngine, ShardedQueryEngine
from repro.query.parser import parse_query
from repro.storage import IndexKind, ShardedStore
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
# A partitioning is expressed as a bucket index per value.
bucket_picks = st.lists(st.integers(min_value=0, max_value=7), max_size=60)


def _fold(vals) -> PartialAggregate:
    partial = PartialAggregate()
    for v in vals:
        partial.add(v)
    return partial


@given(values=values, picks=bucket_picks, merge_order=st.randoms())
@settings(max_examples=200)
def test_partial_aggregate_partition_invariant(values, picks, merge_order):
    buckets: list[list[int]] = [[] for _ in range(8)]
    for i, v in enumerate(values):
        buckets[picks[i % len(picks)] if picks else 0].append(v)
    partials = [_fold(b) for b in buckets]
    merge_order.shuffle(partials)
    merged = PartialAggregate()
    for partial in partials:
        merged.merge(partial)
    assert merged.finalize() == _fold(values).finalize()


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

    engines = []
    try:
        for n in (1, shards):
            store = ShardedStore(SCHEMA, shards=n)
            store.create_index("year", IndexKind.BTREE)
            store.put_many(records)
            engines.append(ShardedQueryEngine(store))
        one, many = engines
        for query in (
            "* ORDER BY year",
            "* ORDER BY year DESC LIMIT 7",
            "* GROUP BY volume",
            "year >= 1920 ORDER BY volume",
            topk,
            topk_filtered,
            topk_desc,
        ):
            assert many.execute(query) == one.execute(query), query
        assert one.execute(topk) == truth(lambda r: r["year"] >= year)
        assert one.execute(topk_filtered) == truth(
            lambda r: r["year"] >= year and r["volume"] == volume
        )
        assert one.execute(topk_desc) == truth(lambda r: r["year"] >= year, reverse=True)
        # A plain engine over the sharded store keeps the sort-everything
        # order: ties shard by shard, each shard's in index order.
        plain = QueryEngine(many.store)
        for query in (topk, topk_filtered, topk_desc, f"year >= {year} ORDER BY year"):
            plan, _ = plain._plan(parse_query(query))
            assert plain.execute(query) == _oracle(plain, plan), query
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
            engine.close()
            engine.store.close()
