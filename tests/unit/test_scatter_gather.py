"""Queries over a sharded store: the exchange's merge, aggregates, guards.

The determinism contract under test (see ``QueryEngine``): sorted scans
and aggregates are byte-identical for *any* shard count and on a plain
store, because ORDER BY breaks ties on the primary key everywhere;
unordered results are multiset-equal with unspecified order.
"""

import json

import pytest

from repro.errors import BudgetExceeded, QueryCancelled, QueryPlanError, QueryTimeout
from repro.query import PartialAggregate, QueryEngine
from repro.resilience import CancelToken, Deadline, Guard
from repro.storage import IndexKind, RecordStore, ShardedStore
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("volume", FieldType.INT),
        Field("name", FieldType.STRING),
    ],
    primary_key="id",
)


def _corpus(n: int = 400) -> list[dict]:
    # year repeats every 37 ids: plenty of duplicate sort keys that land
    # on different shards, which is exactly what the k-way merge's
    # (sort value, pk) tiebreak must order deterministically.
    return [
        {"id": i, "year": 1900 + (i % 37), "volume": i % 7, "name": f"n{i:04d}"}
        for i in range(n)
    ]


def _sharded(shards: int, records: list[dict] | None = None) -> QueryEngine:
    store = ShardedStore(SCHEMA, shards=shards)
    store.put_many(records if records is not None else _corpus())
    return QueryEngine(store)


def _canon(rows: list[dict]) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in rows)


SORTED_QUERIES = [
    "* ORDER BY year",
    "* ORDER BY year DESC",
    "* ORDER BY name DESC LIMIT 13",
    "year >= 1910 AND year < 1930 ORDER BY year",
    "volume = 3 ORDER BY id DESC",
    "* GROUP BY volume",
    "* GROUP BY year ORDER BY count DESC LIMIT 5",
    "year < 1905 GROUP BY volume ORDER BY count",
]


class TestKWayMerge:
    @pytest.mark.parametrize("query", SORTED_QUERIES)
    def test_byte_identical_across_shard_counts(self, query):
        engines = [_sharded(n) for n in (1, 2, 4, 8)]
        try:
            baseline = engines[0].execute(query)
            for engine in engines[1:]:
                assert engine.execute(query) == baseline, query
        finally:
            for engine in engines:
                engine.store.close()

    def test_matches_plain_engine_on_unique_sort_keys(self):
        # On a unique sort key there are no ties, so the sharded store
        # must reproduce the single store byte for byte.
        records = _corpus()
        plain_store = RecordStore(SCHEMA)
        plain_store.put_many(records)
        plain = QueryEngine(plain_store)
        engine = _sharded(4, records)
        try:
            for query in ("* ORDER BY id", "* ORDER BY name DESC LIMIT 20"):
                assert engine.execute(query) == plain.execute(query)
        finally:
            engine.store.close()
            plain_store.close()

    def test_plain_store_breaks_ties_on_pk_too(self):
        # A single store filled in shuffled key order, with a year index
        # whose range scan serves the ascending ORDER BY: every tie under
        # a sort key still comes in primary-key order, as on 4 shards.
        records = _corpus(200)
        shuffled = records[::7] + [r for r in records if r["id"] % 7]
        plain_store = RecordStore(SCHEMA)
        for record in shuffled:
            plain_store.insert(record)
        plain_store.create_index("year", IndexKind.BTREE)
        sharded_store = ShardedStore(SCHEMA, shards=4)
        sharded_store.create_index("year", IndexKind.BTREE)
        sharded_store.put_many(shuffled)
        plain, engine = QueryEngine(plain_store), QueryEngine(sharded_store)
        try:
            for query in (
                "year >= 1900 ORDER BY year LIMIT 6",
                "* ORDER BY year DESC LIMIT 9",
                "volume = 3 ORDER BY year",
                "* GROUP BY year ORDER BY count DESC LIMIT 5",
            ):
                assert engine.execute(query) == plain.execute(query), query
            rows = plain.execute("year >= 1900 ORDER BY year LIMIT 6")
            assert [r["id"] for r in rows] == [0, 37, 74, 111, 148, 185]
        finally:
            sharded_store.close()
            plain_store.close()

    def test_count_ignores_group_by_and_limit(self):
        engine = _sharded(4)
        try:
            assert engine.count("year >= 1910 LIMIT 5") == engine.count("year >= 1910")
            assert engine.count("* GROUP BY volume") == 400
        finally:
            engine.store.close()

    def test_duplicate_sort_keys_tiebreak_on_pk(self):
        engine = _sharded(4)
        try:
            rows = engine.execute("* ORDER BY year")
            assert [(r["year"], r["id"]) for r in rows] == sorted(
                (r["year"], r["id"]) for r in _corpus()
            )
        finally:
            engine.store.close()

    def test_empty_shards(self):
        # 3 records over 8 shards: most shards contribute nothing and
        # the merge must not trip over their empty iterators.
        records = [
            {"id": i, "year": 2000 + i, "volume": 0, "name": f"n{i}"}
            for i in range(3)
        ]
        engine = _sharded(8, records)
        try:
            rows = engine.execute("* ORDER BY year DESC")
            assert [r["id"] for r in rows] == [2, 1, 0]
            assert engine.execute("* GROUP BY volume") == [
                {"volume": 0, "count": 3}
            ]
        finally:
            engine.store.close()

    def test_unordered_is_multiset_equal(self):
        one, four = _sharded(1), _sharded(4)
        try:
            # No ORDER BY: order is shard-major and unspecified, but the
            # record multiset must match exactly.
            assert _canon(four.execute("volume = 3")) == _canon(one.execute("volume = 3"))
        finally:
            for engine in (one, four):
                engine.store.close()

    def test_limit_pushdown_is_correct(self):
        engine = _sharded(4)
        try:
            full = engine.execute("* ORDER BY year DESC")
            assert engine.execute("* ORDER BY year DESC LIMIT 9") == full[:9]
            # LIMIT larger than the corpus is a no-op.
            assert engine.execute("* ORDER BY year LIMIT 10000") == full[::-1]
        finally:
            engine.store.close()

    def test_explain_shows_scatter_plan(self):
        engine = _sharded(4)
        try:
            assert engine.explain("* ORDER BY year DESC LIMIT 9").splitlines() == [
                "FULL SCAN",
                "EXCHANGE 4 shards, chain in shard order",
                "ORDER BY year DESC",
                "LIMIT 9",
            ]
            engine.store.create_index("year", IndexKind.BTREE)
            assert engine.explain("year >= 1910 ORDER BY year LIMIT 9").splitlines() == [
                "INDEX RANGE (btree) year in [1910, +inf)",
                "EXCHANGE 4 shards, merge on (year, id)",
                "ORDER BY year ASC (index order, no sort)",
                "LIMIT 9",
            ]
        finally:
            engine.store.close()


class TestGuards:
    def test_deadline_expires_mid_merge(self):
        engine = _sharded(4, _corpus(20_000))
        try:
            with pytest.raises(QueryTimeout) as exc_info:
                # Far too little time to scan 20k rows; the fail-fast
                # pre-check passes and the expiry fires mid-scan.
                engine.execute("* ORDER BY year", timeout_s=0.002)
            assert 0 < exc_info.value.rows_examined < 20_000
        finally:
            engine.store.close()

    def test_pre_expired_deadline_fails_fast(self):
        engine = _sharded(4)
        try:
            guard = Guard(deadline=Deadline.after(0.0))
            with pytest.raises(QueryTimeout):
                engine.execute("* ORDER BY year", guard=guard)
        finally:
            engine.store.close()

    def test_shared_row_budget_spans_shards(self):
        engine = _sharded(4)
        try:
            with pytest.raises(BudgetExceeded) as exc_info:
                engine.execute("* ORDER BY year", max_rows=50)
            # One guard counts every shard's rows, so the budget is exact
            # across shards: the row that crosses it is the 51st.
            assert exc_info.value.rows_examined == 51
        finally:
            engine.store.close()

    def test_limit_scatter_is_held_to_the_budget(self):
        engine = _sharded(4)
        try:
            # LIMIT stops the chained shard streams after 50 rows, inside
            # the budget, as on one store; a sort reads every shard and
            # crosses it at the 101st row.
            guard = Guard(max_rows=100)
            assert len(engine.execute("* LIMIT 50", guard=guard)) == 50
            assert guard.rows_examined == 50
            with pytest.raises(BudgetExceeded) as exc_info:
                engine.execute("* ORDER BY year", max_rows=100)
            assert exc_info.value.used == 101
            guard = Guard(max_rows=100)
            assert len(engine.execute("* LIMIT 20", guard=guard)) == 20
            assert guard.rows_examined == 20
        finally:
            engine.store.close()

    def test_budget_larger_than_corpus_passes(self):
        engine = _sharded(4)
        try:
            rows = engine.execute("* ORDER BY year", max_rows=10_000)
            assert len(rows) == 400
        finally:
            engine.store.close()

    def test_caller_cancel_token(self):
        engine = _sharded(4)
        try:
            token = CancelToken()
            token.cancel()
            with pytest.raises(QueryCancelled):
                engine.execute("* ORDER BY year", cancel=token)
        finally:
            engine.store.close()

    def test_caller_guard_sees_examined_rows(self):
        engine = _sharded(4)
        try:
            guard = Guard(max_rows=10_000)
            engine.execute("* ORDER BY year", guard=guard)
            assert guard.rows_examined == 400
        finally:
            engine.store.close()


class TestPartialAggregate:
    def test_all_empty_finalize(self):
        assert PartialAggregate().finalize() == {
            "count": 0, "sum": 0, "min": None, "max": None, "avg": None,
        }

    def test_aggregate_matches_ground_truth(self):
        records = _corpus()
        for shards in (1, 2, 4, 8):
            engine = _sharded(shards, records)
            try:
                agg = engine.aggregate("year >= 1910", "year")
                years = [r["year"] for r in records if r["year"] >= 1910]
                assert agg == {
                    "count": len(years),
                    "sum": sum(years),
                    "min": min(years),
                    "max": max(years),
                    "avg": sum(years) / len(years),
                }
            finally:
                engine.store.close()

    def test_aggregate_empty_filter(self):
        engine = _sharded(4)
        try:
            assert engine.aggregate("year > 9999", "year")["count"] == 0
        finally:
            engine.store.close()

    def test_aggregate_rejects_non_numeric_field(self):
        engine = _sharded(2)
        try:
            with pytest.raises(QueryPlanError, match="numeric"):
                engine.aggregate("*", "name")
            with pytest.raises(QueryPlanError, match="unknown"):
                engine.aggregate("*", "nope")
        finally:
            engine.store.close()

    def test_aggregate_rejects_presentation_clauses(self):
        engine = _sharded(2)
        try:
            with pytest.raises(QueryPlanError, match="bare filter"):
                engine.aggregate("* ORDER BY year", "year")
            with pytest.raises(QueryPlanError, match="bare filter"):
                engine.aggregate("* LIMIT 5", "year")
        finally:
            engine.store.close()
