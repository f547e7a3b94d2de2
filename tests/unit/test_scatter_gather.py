"""Scatter-gather execution: k-way merge, partial aggregates, guards.

The determinism contract under test (see ``ShardedQueryEngine``):
sorted scans and aggregates are byte-identical for *any* shard count;
unordered results are multiset-equal with unspecified order.
"""

import json

import pytest

from repro.errors import BudgetExceeded, QueryCancelled, QueryPlanError, QueryTimeout
from repro.query import PartialAggregate, QueryEngine, ShardedQueryEngine
from repro.resilience import CancelToken, Deadline, Guard
from repro.storage import RecordStore, ShardedStore
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


def _sharded(shards: int, records: list[dict] | None = None) -> ShardedQueryEngine:
    store = ShardedStore(SCHEMA, shards=shards)
    store.put_many(records if records is not None else _corpus())
    return ShardedQueryEngine(store)


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
                engine.close()
                engine.store.close()

    def test_matches_plain_engine_on_unique_sort_keys(self):
        # On a unique sort key there are no ties, so the scatter merge
        # must reproduce the single-store engine byte for byte.
        records = _corpus()
        plain_store = RecordStore(SCHEMA)
        plain_store.put_many(records)
        plain = QueryEngine(plain_store)
        engine = _sharded(4, records)
        try:
            for query in ("* ORDER BY id", "* ORDER BY name DESC LIMIT 20"):
                assert engine.execute(query) == plain.execute(query)
        finally:
            engine.close()
            engine.store.close()
            plain_store.close()

    def test_duplicate_sort_keys_tiebreak_on_pk(self):
        engine = _sharded(4)
        try:
            rows = engine.execute("* ORDER BY year")
            assert [(r["year"], r["id"]) for r in rows] == sorted(
                (r["year"], r["id"]) for r in _corpus()
            )
        finally:
            engine.close()
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
            engine.close()
            engine.store.close()

    def test_unordered_is_multiset_equal(self):
        one, four = _sharded(1), _sharded(4)
        try:
            # No ORDER BY: order is shard-major and unspecified, but the
            # record multiset must match exactly.
            assert _canon(four.execute("volume = 3")) == _canon(one.execute("volume = 3"))
        finally:
            for engine in (one, four):
                engine.close()
                engine.store.close()

    def test_limit_pushdown_is_correct(self):
        engine = _sharded(4)
        try:
            full = engine.execute("* ORDER BY year DESC")
            assert engine.execute("* ORDER BY year DESC LIMIT 9") == full[:9]
            # LIMIT larger than the corpus is a no-op.
            assert engine.execute("* ORDER BY year LIMIT 10000") == full[::-1]
        finally:
            engine.close()
            engine.store.close()

    def test_explain_shows_scatter_plan(self):
        engine = _sharded(4)
        try:
            text = engine.explain("* ORDER BY year DESC LIMIT 9")
            assert "SCATTER" in text and "GATHER" in text
            assert "MERGE SORTED" in text and "SHARD LIMIT 9" in text
        finally:
            engine.close()
            engine.store.close()


class TestGuards:
    def test_deadline_expires_mid_merge(self):
        engine = _sharded(4, _corpus(20_000))
        try:
            with pytest.raises(QueryTimeout) as exc_info:
                # Far too little time to scan 20k rows; the fail-fast
                # pre-check passes and the expiry fires inside a worker.
                engine.execute("* ORDER BY year", timeout_s=0.002)
            assert 0 < exc_info.value.rows_examined < 20_000
        finally:
            engine.close()
            engine.store.close()

    def test_pre_expired_deadline_fails_fast(self):
        engine = _sharded(4)
        try:
            guard = Guard(deadline=Deadline.after(0.0))
            with pytest.raises(QueryTimeout):
                engine.execute("* ORDER BY year", guard=guard)
        finally:
            engine.close()
            engine.store.close()

    def test_shared_row_budget_spans_shards(self):
        engine = _sharded(4)
        try:
            with pytest.raises(BudgetExceeded) as exc_info:
                engine.execute("* ORDER BY year", max_rows=50)
            # The ledger is shared: enforcement is at tick granularity,
            # so the scatter-wide total lands past the budget but never
            # past the corpus.
            assert 50 < exc_info.value.rows_examined <= 400
        finally:
            engine.close()
            engine.store.close()

    def test_limit_scatter_is_held_to_the_budget(self):
        engine = _sharded(4)
        try:
            # Every shard stops at LIMIT 50 before its first tick, so no
            # worker sees the shared ledger pass 100; the scatter's total
            # (4 x 50 rows) is checked once the workers are done.
            with pytest.raises(BudgetExceeded) as exc_info:
                engine.execute("* LIMIT 50", max_rows=100)
            assert exc_info.value.used == 200
            guard = Guard(max_rows=100)
            assert len(engine.execute("* LIMIT 20", guard=guard)) == 20
            assert guard.rows_examined == 80
        finally:
            engine.close()
            engine.store.close()

    def test_budget_larger_than_corpus_passes(self):
        engine = _sharded(4)
        try:
            rows = engine.execute("* ORDER BY year", max_rows=10_000)
            assert len(rows) == 400
        finally:
            engine.close()
            engine.store.close()

    def test_caller_cancel_token(self):
        engine = _sharded(4)
        try:
            token = CancelToken()
            token.cancel()
            with pytest.raises(QueryCancelled):
                engine.execute("* ORDER BY year", cancel=token)
        finally:
            engine.close()
            engine.store.close()

    def test_caller_guard_sees_examined_rows(self):
        engine = _sharded(4)
        try:
            guard = Guard(max_rows=10_000)
            engine.execute("* ORDER BY year", guard=guard)
            assert guard.rows_examined == 400
        finally:
            engine.close()
            engine.store.close()


class TestPartialAggregate:
    def test_merge_matches_whole_fold(self):
        values = [3, -1, 4, 1, 5, 9, 2, 6]
        whole = PartialAggregate()
        for v in values:
            whole.add(v)
        left, right = PartialAggregate(), PartialAggregate()
        for v in values[:3]:
            left.add(v)
        for v in values[3:]:
            right.add(v)
        left.merge(right)
        assert left.finalize() == whole.finalize()

    def test_merge_with_empty_partial(self):
        partial = PartialAggregate()
        partial.add(7)
        partial.merge(PartialAggregate())
        assert partial.finalize() == {
            "count": 1, "sum": 7, "min": 7, "max": 7, "avg": 7.0,
        }

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
                engine.close()
                engine.store.close()

    def test_aggregate_empty_filter(self):
        engine = _sharded(4)
        try:
            assert engine.aggregate("year > 9999", "year")["count"] == 0
        finally:
            engine.close()
            engine.store.close()

    def test_aggregate_rejects_non_numeric_field(self):
        engine = _sharded(2)
        try:
            with pytest.raises(QueryPlanError, match="numeric"):
                engine.aggregate("*", "name")
            with pytest.raises(QueryPlanError, match="unknown"):
                engine.aggregate("*", "nope")
        finally:
            engine.close()
            engine.store.close()

    def test_aggregate_rejects_presentation_clauses(self):
        engine = _sharded(2)
        try:
            with pytest.raises(QueryPlanError, match="bare filter"):
                engine.aggregate("* ORDER BY year", "year")
            with pytest.raises(QueryPlanError, match="bare filter"):
                engine.count("* LIMIT 5")
        finally:
            engine.close()
            engine.store.close()
