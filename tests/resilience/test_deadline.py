"""Deadlines, cancellation tokens, and the execution guard.

Unit coverage for the substrate (:mod:`repro.resilience.deadline`) plus
its integration into the query executor: typed unwinding, exact row
budgets, amortized deadline checks, and partial-progress stats on the
raised errors (including the partial EXPLAIN ANALYZE tree).
"""

import time
from itertools import islice

import pytest

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout
from repro.obs import metrics
from repro.query.executor import QueryEngine
from repro.query.parser import parse_query
from repro.resilience import CancelToken, Deadline, Guard


class TestDeadline:
    def test_after_is_an_instant_on_the_monotonic_clock(self):
        before = time.perf_counter()
        deadline = Deadline.after(60.0)
        assert before + 59.0 < deadline.at < time.perf_counter() + 60.0
        assert deadline.timeout_s == 60.0
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0

    def test_zero_span_is_already_expired(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestCancelToken:
    def test_starts_clear_and_is_sticky(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.cancel()  # idempotent
        assert token.cancelled


class TestGuard:
    def test_row_budget_is_exact(self):
        guard = Guard(max_rows=5)
        for _ in range(5):
            guard.tick()
        with pytest.raises(BudgetExceeded) as exc_info:
            guard.tick()
        exc = exc_info.value
        assert exc.budget == "rows"
        assert exc.limit == 5
        assert exc.used == 6
        assert exc.rows_examined == 6

    def test_deadline_check_amortized_to_stride(self):
        # An already-expired deadline only trips on the stride boundary.
        guard = Guard(deadline=Deadline.after(0.0), stride=4)
        for _ in range(3):
            guard.tick()  # under the stride: no clock read, no raise
        with pytest.raises(QueryTimeout) as exc_info:
            guard.tick()
        assert exc_info.value.rows_examined == 4

    def test_check_forces_immediate_deadline(self):
        guard = Guard(deadline=Deadline.after(0.0), stride=1_000_000)
        with pytest.raises(QueryTimeout):
            guard.check()

    def test_cancellation_raises_on_check(self):
        token = CancelToken()
        guard = Guard(cancel=token, stride=1_000_000)
        guard.tick()
        token.cancel()
        with pytest.raises(QueryCancelled):
            guard.check()

    def test_cancellation_trips_inside_tick(self):
        token = CancelToken()
        token.cancel()
        guard = Guard(cancel=token, stride=3)
        guard.tick()
        guard.tick()
        with pytest.raises(QueryCancelled) as exc_info:
            guard.tick()
        assert exc_info.value.rows_examined == 3

    def test_byte_budget(self):
        guard = Guard(max_bytes=100)
        guard.add_bytes(60)
        with pytest.raises(BudgetExceeded) as exc_info:
            guard.add_bytes(60)
        exc = exc_info.value
        assert exc.budget == "bytes"
        assert exc.limit == 100
        assert exc.used == 120

    def test_stats_snapshot(self):
        guard = Guard()
        guard.tick(7)
        guard.add_bytes(42)
        stats = guard.stats()
        assert stats["rows_examined"] == 7
        assert stats["bytes_used"] == 42
        assert stats["elapsed_s"] >= 0.0

    def test_metrics_move_on_violation(self):
        timeouts = metrics.counter("resilience.deadline.timeouts")
        cancelled = metrics.counter("resilience.deadline.cancelled")
        budget = metrics.counter("resilience.budget.exceeded")
        with pytest.raises(QueryTimeout):
            Guard(deadline=Deadline.after(0.0)).check()
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            Guard(cancel=token).check()
        with pytest.raises(BudgetExceeded):
            Guard(max_rows=0).tick()
        assert timeouts.value == 1
        assert cancelled.value == 1
        assert budget.value == 1

    @pytest.fixture()
    def ten_rows(self, memory_store):
        memory_store.put_many(
            [{"id": i, "name": f"r{i}", "year": 1900} for i in range(10)]
        )
        return QueryEngine(memory_store)

    @staticmethod
    def _full_scan(engine, guard):
        # The executor's access-path stream, which charges each row to
        # the guard as its consumer takes it.
        plan, _ = engine._plan(parse_query("*"))
        return engine._candidates(plan, guard)

    def test_stream_charges_the_rows_taken(self, ten_rows):
        guard = Guard(stride=4)
        assert len(ten_rows.execute("* LIMIT 6", guard=guard)) == 6
        # LIMIT stopped the scan: nothing read ahead is charged.
        assert guard.rows_examined == 6
        assert len(ten_rows.execute("*", guard=guard)) == 10
        assert guard.rows_examined == 16

    def test_stream_budget_is_exact(self, ten_rows):
        guard = Guard(max_rows=5, stride=4)
        taken = []
        with pytest.raises(BudgetExceeded) as exc_info:
            for row in self._full_scan(ten_rows, guard):
                taken.append(row)
        # The sixth row crosses the budget and is never handed out.
        assert len(taken) == 5
        assert exc_info.value.used == 6
        assert guard.rows_examined == 6

    def test_stream_checks_the_deadline_once_per_stride(self, ten_rows):
        guard = Guard(deadline=Deadline.after(0.0), stride=4)
        stream = self._full_scan(ten_rows, guard)
        assert len(list(islice(stream, 3))) == 3
        with pytest.raises(QueryTimeout) as exc_info:
            next(stream)
        assert exc_info.value.rows_examined == 4

    @pytest.mark.parametrize(
        "kwargs", [{"stride": 0}, {"max_rows": -1}, {"max_bytes": -1}]
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Guard(**kwargs)


class TestExecutorIntegration:
    """The guard threaded through ``QueryEngine.execute``."""

    @pytest.fixture()
    def engine(self, memory_store):
        memory_store.put_many(
            [{"id": i, "name": f"rec-{i}", "year": 1900 + (i % 100)}
             for i in range(1000)]
        )
        return QueryEngine(memory_store)

    def test_expired_deadline_raises_before_work(self, engine):
        with pytest.raises(QueryTimeout) as exc_info:
            engine.execute("year >= 1900", timeout_s=0.0)
        # The upfront check fires before the scan touches a row.
        assert exc_info.value.rows_examined == 0

    def test_max_rows_bounds_the_scan(self, engine):
        with pytest.raises(BudgetExceeded) as exc_info:
            engine.execute("year >= 1900", max_rows=100)
        exc = exc_info.value
        assert exc.limit == 100
        assert exc.used == 101

    def test_limit_stops_a_guarded_scan(self, engine):
        # The guard charges rows as LIMIT takes them: no stride-sized
        # read-ahead, so a small LIMIT fits a small row budget.
        rows = engine.execute("year >= 1900 LIMIT 50", max_rows=100)
        assert len(rows) == 50

    def test_limit_stops_a_guarded_index_ordered_scan(self, engine, memory_store):
        from repro.obs import workload
        from repro.storage.store import IndexKind

        memory_store.create_index("year", IndexKind.BTREE)
        query = "year >= 1950 ORDER BY year LIMIT 5"
        guard = Guard(deadline=Deadline.after(60.0))  # what timeout_s builds
        rows = engine.execute(query, guard=guard)
        assert [r["year"] for r in rows] == [1950] * 5
        assert guard.rows_examined == 5
        workload.reset()
        assert engine.execute(query, timeout_s=60.0) == rows
        (row,) = workload.top(5)
        assert row["rows_examined"] == 5

    def test_generous_bounds_leave_results_identical(self, engine):
        plain = engine.execute("year >= 1950 LIMIT 20")
        bounded = engine.execute(
            "year >= 1950 LIMIT 20", timeout_s=60.0, max_rows=1_000_000
        )
        assert bounded == plain

    def test_explicit_guard_accumulates_rows_examined(self, engine):
        guard = Guard()
        engine.execute("year >= 1900 LIMIT 5", guard=guard)
        assert guard.rows_examined > 0

    def test_shared_guard_spans_multiple_queries(self, engine):
        guard = Guard(max_rows=1000)
        engine.execute("year >= 1900 LIMIT 5", guard=guard)
        first = guard.rows_examined
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", guard=guard)
        assert guard.rows_examined > first

    def test_cancelled_token_unwinds(self, engine):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.execute("year >= 1900", cancel=token)

    def test_profiled_interruption_attaches_partial_tree(self, engine):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled) as exc_info:
            engine.execute("year >= 1900", profile=True, cancel=token)
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.rows == []
        assert "[interrupted: QueryCancelled]" in partial.root.detail
        assert partial.plan_text

    def test_index_paths_are_guarded_too(self, engine, memory_store):
        from repro.storage.store import IndexKind

        memory_store.create_index("year", IndexKind.BTREE)
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", max_rows=50)

    def test_store_state_untouched_after_interruption(self, engine, memory_store):
        before = len(memory_store)
        with pytest.raises(BudgetExceeded):
            engine.execute("year >= 1900", max_rows=10)
        assert len(memory_store) == before
        # The store still answers queries normally afterwards.
        assert engine.execute("year >= 1999") != []


class TestSearchIntegration:
    def test_title_search_honors_the_guard(self, sample_records):
        from repro.search.engine import TitleSearchEngine

        engine = TitleSearchEngine(sample_records)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.search("public trust", guard=Guard(cancel=token))
        # Unguarded search still works.
        assert engine.search("public trust")
