"""Graceful degradation over a sharded store: partial mode vs strict mode.

The contract under test (``QueryEngine.execute(partial=True)``):
quarantined shards are skipped up front, a shard whose read fails is
retried then skipped, and the result says exactly which shards are
missing — while strict mode stays all-or-nothing and refuses
quarantined shards.
"""

import json

import pytest

from repro.errors import BudgetExceeded, QueryTimeout, ShardUnavailableError
from repro.query.executor import PartialResult, QueryEngine, QueryProfile
from repro.resilience import Deadline, Guard
from repro.storage import QUARANTINED, IndexKind, ShardedStore
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("name", FieldType.STRING),
    ],
    primary_key="id",
)


def _corpus(n: int = 200) -> list[dict]:
    return [
        {"id": i, "year": 1900 + (i % 10), "name": f"n{i:04d}"} for i in range(n)
    ]


@pytest.fixture
def engine():
    store = ShardedStore(SCHEMA, shards=4)
    store.put_many(_corpus())
    yield QueryEngine(store)
    store.close()


def _break_reads(monkeypatch, shard):
    """Make the shard store's full scan fail like a dead disk."""

    def dead_disk(*args, **kwargs):
        raise OSError(5, "dead disk")

    monkeypatch.setattr(shard, "scan", dead_disk)


def _canon(rows):
    return sorted(json.dumps(r, sort_keys=True) for r in rows)


class TestPartialMode:
    def test_all_healthy_returns_complete_partial_result(self, engine):
        rows = engine.execute("* ORDER BY id", partial=True)
        assert isinstance(rows, PartialResult)
        assert rows.partial is False
        assert rows.shards_failed == ()
        assert len(rows) == 200

    def test_quarantined_shard_is_skipped(self, engine):
        engine.store.quarantine(2, "test damage")
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is True
        assert rows.shards_failed == (2,)
        # Exactly the healthy shards' rows, still correctly merged.
        expected = [
            r
            for r in _corpus()
            if engine.store.shard_for(r["id"]) != 2
        ]
        assert list(rows) == sorted(expected, key=lambda r: r["id"])

    def test_partial_filtered_query(self, engine):
        engine.store.quarantine(0, "test")
        rows = engine.execute("year >= 1905 ORDER BY id", partial=True)
        assert rows.partial and rows.shards_failed == (0,)

    def test_profile_carries_degradation_metadata(self, engine):
        engine.store.quarantine(1, "test")
        profile = engine.execute("* ORDER BY id", partial=True, profile=True)
        assert isinstance(profile, QueryProfile)
        assert profile.partial is True
        assert profile.shards_failed == (1,)
        rendered = profile.render()
        assert "SKIPPED" in rendered

    def test_worker_failure_is_skipped_not_fatal(self, engine, monkeypatch):
        # Break one shard's reads below the health layer: partial mode
        # must return the three healthy shards and name the casualty.
        _break_reads(monkeypatch, engine.store.shards[3])
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is True
        assert rows.shards_failed == (3,)
        assert engine.store.health.rows()[3]["window_errors"] == 1
        expected = [
            r for r in _corpus() if engine.store.shard_for(r["id"]) != 3
        ]
        assert _canon(rows) == _canon(expected)

    def test_readmit_restores_full_results(self, engine):
        engine.store.quarantine(2, "test")
        assert engine.execute("*", partial=True).shards_failed == (2,)
        engine.store.readmit(2)
        rows = engine.execute("* ORDER BY id", partial=True)
        assert rows.partial is False
        assert len(rows) == 200

    def test_aggregates_degrade_too(self, engine):
        engine.store.quarantine(0, "test")
        rows = engine.execute("* GROUP BY year", partial=True)
        assert rows.partial is True
        missing = sum(
            1 for r in _corpus() if engine.store.shard_for(r["id"]) == 0
        )
        assert sum(r["count"] for r in rows) == 200 - missing


class TestStrictMode:
    def test_strict_raises_on_quarantined_shard(self, engine):
        engine.store.quarantine(2, "bit rot")
        with pytest.raises(ShardUnavailableError) as err:
            engine.execute("* ORDER BY id")
        assert err.value.shard == 2
        assert err.value.state == QUARANTINED

    def test_strict_propagates_worker_failure(self, engine, monkeypatch):
        _break_reads(monkeypatch, engine.store.shards[1])
        with pytest.raises(OSError):
            engine.execute("* ORDER BY id")
        # The read error is recorded against the shard that raised it.
        assert [r["window_errors"] for r in engine.store.health.rows()] == [0, 1, 0, 0]

    def test_query_engine_refuses_a_quarantined_shard(self):
        # The one engine honours shard health on any sharded store: it
        # reads no quarantined shard in strict mode, and skips it when
        # the caller accepts a partial result.
        with ShardedStore(SCHEMA, shards=4) as store:
            store.put_many(_corpus())
            store.quarantine(1, "bit rot")
            engine = QueryEngine(store)
            with pytest.raises(ShardUnavailableError) as err:
                engine.execute("year >= 1905 ORDER BY id LIMIT 5")
            assert err.value.shard == 1
            rows = engine.execute("year >= 1905 ORDER BY id LIMIT 5", partial=True)
            assert rows.shards_failed == (1,)
            assert list(rows) == [
                r for r in _corpus()
                if r["year"] >= 1905 and store.shard_for(r["id"]) != 1
            ][:5]

    def test_strict_returns_plain_list_when_healthy(self, engine):
        rows = engine.execute("* ORDER BY id")
        assert not isinstance(rows, PartialResult)
        assert len(rows) == 200


def _count_reads(monkeypatch, store):
    """Count the rows each shard store's scan and range reads yield."""
    reads = [0] * store.shard_count
    for idx, shard in enumerate(store.shards):
        for name in ("scan", "iter_range"):

            def counted(*args, _read=getattr(shard, name), _idx=idx, **kwargs):
                for row in _read(*args, **kwargs):
                    reads[_idx] += 1
                    yield row

            monkeypatch.setattr(shard, name, counted)
    return reads


class TestPartialUnderAGuard:
    """Partial mode reads a shard whole before handing on its rows, so
    the guard and LIMIT must bound that read itself."""

    @pytest.fixture
    def big(self):
        # 1,000 rows a shard: more than any budget below.
        store = ShardedStore(SCHEMA, shards=4)
        store.put_many(_corpus(4_000))
        store.create_index("year", IndexKind.BTREE)
        yield QueryEngine(store)
        store.close()

    @pytest.mark.parametrize("query", ["* LIMIT 5", "name >= 'n2' LIMIT 5"])
    def test_limit_stops_the_read_where_strict_mode_does(self, big, monkeypatch, query):
        reads = _count_reads(monkeypatch, big.store)
        strict = big.execute(query)
        strict_reads = list(reads)
        reads[:] = [0] * len(reads)
        rows = big.execute(query, partial=True, max_rows=100_000)
        assert list(rows) == strict and rows.partial is False
        # The first shard fills the LIMIT: no other shard is read.
        assert reads == strict_reads
        assert reads[1:] == [0, 0, 0]

    def test_merged_limit_reads_at_most_limit_rows_a_shard(self, big, monkeypatch):
        query = "year >= 1905 ORDER BY year LIMIT 5"
        reads = _count_reads(monkeypatch, big.store)
        strict = big.execute(query)
        reads[:] = [0] * len(reads)
        rows = big.execute(query, partial=True, max_rows=100_000)
        assert list(rows) == strict and rows.partial is False
        assert max(reads) <= 5
        reads[:] = [0] * len(reads)
        profile = big.execute(query, partial=True, profile=True)
        access = next(
            node for node in profile.root.iter_nodes()
            if node.children and node.children[0].op == "shard"
        )
        assert access.rows_examined == sum(c.rows_examined for c in access.children)
        assert access.rows_examined == sum(reads)
        assert profile.rows == strict

    def test_limit_under_a_row_budget_passes(self, big, monkeypatch):
        reads = _count_reads(monkeypatch, big.store)
        guard = Guard(max_rows=100)
        rows = big.execute("* LIMIT 5", partial=True, guard=guard)
        assert len(rows) == 5 and rows.partial is False
        assert sum(reads) == 5
        assert guard.rows_examined == 5

    def test_row_budget_stops_a_shard_read(self, big, monkeypatch):
        reads = _count_reads(monkeypatch, big.store)
        with pytest.raises(BudgetExceeded) as exc_info:
            big.execute("* ORDER BY name", partial=True, max_rows=100)
        # The 101st row read trips the budget, as on one store; the
        # interruption is the caller's bound, not a shard fault.
        assert exc_info.value.used == 101
        assert reads == [101, 0, 0, 0]
        assert all(r["window_errors"] == 0 for r in big.store.health.rows())

    def test_deadline_interrupts_a_shard_read(self, big, monkeypatch):
        guard = Guard(deadline=Deadline.after(60.0), stride=64)
        shard = big.store.shards[0]
        scan = shard.scan
        reads = [0]

        def slow_scan(*args, **kwargs):
            for row in scan(*args, **kwargs):
                reads[0] += 1
                if reads[0] == 300:
                    guard.deadline.at = 0.0  # the deadline passes mid-read
                yield row

        monkeypatch.setattr(shard, "scan", slow_scan)
        with pytest.raises(QueryTimeout) as exc_info:
            big.execute("* ORDER BY name", partial=True, guard=guard)
        # Checked once per stride: the read stops at the next boundary.
        assert reads[0] == 320
        assert exc_info.value.rows_examined == 320
        assert big.store.health.rows()[0]["window_errors"] == 0


class TestFailureCounts:
    """Every read entry point counts one ``query.failures`` per call that
    raises, so the availability SLO (failures over executions) sees
    failed counts, aggregates and pages as it sees failed executes."""

    @pytest.fixture
    def three(self):
        store = ShardedStore(SCHEMA, shards=3)
        store.put_many(_corpus())
        yield QueryEngine(store)
        store.close()

    @staticmethod
    def _failures_moved(call) -> int:
        from repro.obs import metrics

        failures = metrics.counter("query.failures")
        before = failures.value
        try:
            call()
        except Exception:
            pass
        else:  # pragma: no cover - diagnostic
            raise AssertionError("the call was expected to raise")
        return failures.value - before

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: e.execute("year >= 1905", max_rows=10),
            lambda e: e.count("year >= "),
            lambda e: e.aggregate("year >= 1905", "year", guard=Guard(max_rows=10)),
            lambda e: e.aggregate("year >= 1905", "name"),
            lambda e: e.execute_paged("year >= 1905", page_size=0),
            lambda e: e.execute_paged("year >= 1905 LIMIT 3", page_size=5),
        ],
        ids=[
            "execute-budget", "count-syntax", "aggregate-budget",
            "aggregate-not-numeric", "paged-size", "paged-limit",
        ],
    )
    def test_each_failed_call_counts_once(self, three, call):
        assert self._failures_moved(lambda: call(three)) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: e.execute("year >= 1905"),
            lambda e: e.count("year >= 1905"),
            lambda e: e.aggregate("year >= 1905", "year"),
            lambda e: e.execute_paged("year >= 1905", page_size=5),
        ],
        ids=["execute", "count", "aggregate", "paged"],
    )
    def test_a_quarantined_shard_counts_once(self, three, call):
        three.store.quarantine(1, "test")
        assert self._failures_moved(lambda: call(three)) == 1
