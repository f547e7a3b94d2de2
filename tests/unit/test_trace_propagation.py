"""Trace propagation: one query, one span tree, one trace id.

The contract under stress here: a query over a sharded store reads
every shard in the calling thread, and the work a sharded store fans
out to its write pool (shard-parallel writes and checkpoints) runs each
task in a copy of the caller's ``contextvars`` context.  Concretely:

* a profiled sharded query finishes exactly ONE root span
  (``query.execute``), starts no thread, and reports its shards as
  children of the access node in its EXPLAIN ANALYZE tree;
* the same trace id appears on the span tree, on every correlated log
  line, and on the slow-log entry (three surfaces, one id);
* per-shard buffer-pool page stats attribute to the query that touched
  them even with concurrent queries in flight;
* write-pool tasks see the caller's page scope, trace id and open span:
  the pages they touch count in the caller's ``page_stats_scope``, their
  log lines carry the caller's trace id, and the spans they open nest
  under the caller's span instead of starting roots of their own.
"""

import contextvars
import sys
import threading

import pytest

from repro.obs import logging as obs_logging
from repro.obs import metrics, tracing
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Tracer
from repro.query import QueryEngine
from repro.storage import RecordStore, ShardedStore
from repro.storage.bufferpool import BufferPool, page_stats_scope
from repro.storage.pages import LeafNode, PageFile
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("name", FieldType.STRING),
    ],
    primary_key="id",
)


def _corpus(n: int = 300) -> list[dict]:
    return [
        {"id": i, "year": 1900 + (i % 25), "name": f"n{i:04d}"} for i in range(n)
    ]


@pytest.fixture(autouse=True)
def clean_obs():
    metrics.reset()
    tracing.reset()
    obs_logging.reset()
    tracing.get_default_tracer().enable()
    yield
    tracing.reset()
    obs_logging.reset()


def _query_roots():
    """Finished roots named query.execute, and everything else."""
    roots = tracing.finished_spans()
    queries = [r for r in roots if r.name == "query.execute"]
    other = [r for r in roots if r.name != "query.execute"]
    return queries, other


def _shard_nodes(profile):
    """The shard children of a profile's access node."""
    return [node for node in profile.root.iter_nodes() if node.op == "shard"]


class TestScatterSpanTree:
    def test_one_root_with_shard_children(self):
        with ShardedStore(SCHEMA, shards=4) as store:
            store.put_many(_corpus())
            profile = QueryEngine(store).execute(
                "year >= 1910 ORDER BY year LIMIT 10", profile=True
            )
        queries, other = _query_roots()
        assert len(queries) == 1 and other == []
        shards = _shard_nodes(profile)
        assert [node.detail.split()[1] for node in shards] == ["0", "1", "2", "3"]
        for node in shards:
            assert node.rows_examined >= 0
            assert node.seconds >= 0.0
        access = next(n for n in profile.root.iter_nodes() if n.op == "seq-scan")
        assert list(access.children) == shards

    def test_no_orphan_roots_from_worker_threads(self):
        with ShardedStore(SCHEMA, shards=4) as store:
            store.put_many(_corpus())
            engine = QueryEngine(store)
            threads = threading.active_count()
            for _ in range(5):
                engine.execute("* ORDER BY year LIMIT 7", profile=True)
            # Shards are read inline: no query starts a thread.
            assert threading.active_count() == threads
        queries, other = _query_roots()
        assert len(queries) == 5
        assert other == []

    def test_trace_id_spans_logs_and_slow_log_agree(self):
        slow = SlowQueryLog(threshold_s=0.0)  # record everything
        with ShardedStore(SCHEMA, shards=3) as store:
            store.put_many(_corpus())
            QueryEngine(store, slow_log=slow).execute(
                "year >= 1905 ORDER BY year LIMIT 5", profile=True
            )
        # The one profiled run left its span tree under the trace id.
        (root,), _ = _query_roots()
        trace_id = root.attributes["trace_id"]
        assert trace_id
        entries = slow.entries()
        assert len(entries) == 1
        assert entries[0]["trace_id"] == trace_id
        # Every query.* log line of this execution carries the same id.
        query_events = [
            r for r in obs_logging.tail(100, event="query")
            if r.get("trace_id") is not None
        ]
        assert query_events
        assert {r["trace_id"] for r in query_events} == {trace_id}

    def test_profiled_scatter_reports_per_shard_rows_and_pages(self, tmp_path):
        with ShardedStore(
            SCHEMA, tmp_path / "paged", shards=3, data_format="paged"
        ) as store:
            store.put_many(_corpus())
            store.checkpoint()  # push records into pages files
        with ShardedStore(
            SCHEMA, tmp_path / "paged", shards=3, data_format="paged"
        ) as store:
            profile = QueryEngine(store).execute("* ORDER BY id", profile=True)
        shards = _shard_nodes(profile)
        assert len(shards) == 3
        assert sum(node.rows_returned for node in shards) == 300
        # A full scan over a freshly opened paged store must touch the
        # pool: the per-query page accounting cannot be all zeros, and
        # the shards' pages add up to the query's.
        assert profile.page_hits + profile.page_misses > 0
        pages = [node.detail.split("pages ")[1] for node in shards]
        hits = sum(int(p.split()[0].split("=")[1]) for p in pages)
        misses = sum(int(p.split()[1].split("=")[1]) for p in pages)
        assert (hits, misses) == (profile.page_hits, profile.page_misses)
        rendered = profile.render()
        assert "pages:" in rendered and "shard 0" in rendered


class TestConcurrentQueries:
    def test_interleaved_queries_keep_trees_separate(self):
        """8 threads x 5 profiled queries over one engine: every query
        keeps exactly its own root, its own shard children and its own
        trace id — no cross-talk between concurrent executions."""
        with ShardedStore(SCHEMA, shards=4) as store:
            store.put_many(_corpus())
            engine = QueryEngine(store)
            errors: list[BaseException] = []
            profiles: list = []

            def worker():
                try:
                    for _ in range(5):
                        profiles.append(engine.execute(
                            "year >= 1908 ORDER BY year LIMIT 9", profile=True
                        ))
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert len(profiles) == 40
        for profile in profiles:
            assert [n.detail.split()[1] for n in _shard_nodes(profile)] == [
                "0", "1", "2", "3"
            ]
            assert len(profile.rows) == 9
        queries, other = _query_roots()
        # The tracer ring may retain fewer than 40 roots, but every
        # retained one is a whole query with its own trace id.
        assert queries
        assert other == []
        trace_ids = {root.attributes["trace_id"] for root in queries}
        assert len(trace_ids) == len(queries)  # distinct queries, distinct ids


def _reopened_durable(path) -> ShardedStore:
    """A durable 4-shard store whose records are in its pages files."""
    with ShardedStore(SCHEMA, path, shards=4) as store:
        store.put_many(_corpus())
        store.checkpoint()
    return ShardedStore(SCHEMA, path, shards=4)


def _pool_pages() -> tuple[int, int]:
    """Buffer-pool hits and misses summed over the 4 shards' series."""
    return (
        sum(metrics.counter("storage.bufferpool.hits", shard=i).value for i in range(4)),
        sum(metrics.counter("storage.bufferpool.misses", shard=i).value for i in range(4)),
    )


class TestWritePoolFanOut:
    def test_page_scope_counts_the_pool_workers_pages(self, tmp_path):
        with _reopened_durable(tmp_path / "db") as store:
            hits, misses = _pool_pages()
            with page_stats_scope() as scope:
                store.put_many(
                    [{"id": i, "year": 1950, "name": f"m{i}"} for i in range(300, 600)]
                )
            after = _pool_pages()
        assert scope.hits > 0 and scope.misses > 0
        assert (scope.hits, scope.misses) == (after[0] - hits, after[1] - misses)

    def test_checkpoint_logs_carry_the_trace_id(self, tmp_path):
        with _reopened_durable(tmp_path / "db") as store:
            obs_logging.reset()
            with obs_logging.trace() as trace_id:
                store.checkpoint()
        events = obs_logging.tail(100, event="storage.checkpoint")
        assert len(events) == 4  # one per shard, each logged by a pool worker
        assert [e.get("trace_id") for e in events] == [trace_id] * 4
        assert {e.get("shard") for e in events} == {0, 1, 2, 3}

    def test_a_plain_store_logs_its_checkpoint_without_a_shard(self, tmp_path):
        with RecordStore(SCHEMA, tmp_path / "db") as store:
            store.put_many(_corpus())
            obs_logging.reset()
            store.checkpoint()
        (event,) = obs_logging.tail(100, event="storage.checkpoint")
        assert "shard" not in event
        assert event["records"] == 300

    def test_task_spans_nest_under_the_callers_span(self, tmp_path):
        tracer = Tracer(capacity=16)  # any tracer's open span crosses the pool

        def task(shard: int) -> str:
            with tracer.span("task", shard=shard):
                return threading.current_thread().name

        with ShardedStore(SCHEMA, tmp_path / "db", shards=4) as store:
            with tracer.span("caller") as caller:
                names = store._each_shard(
                    [(i, lambda i=i: task(i)) for i in range(4)]
                )
        assert all(name.startswith("repro-shard") for name in names)
        assert sorted(c.attributes["shard"] for c in caller.children) == [0, 1, 2, 3]
        assert all(c.finished for c in caller.children)
        assert tracer.finished_spans() == [caller]  # no orphan task roots

    def test_shared_page_scope_loses_no_count(self, tmp_path):
        # More threads than cores, each reading its own pool (so no pool
        # lock serialises them), all counting into one scope with a short
        # switch interval: a lost update would leave the totals short.
        pagers, pools = [], []
        for t in range(8):
            pager = PageFile(tmp_path / f"{t}.pages", create=True)
            pagers.append(pager)
            page_id = pager.allocate()
            pager.write_page(page_id, LeafNode(keys=[page_id], values=[b"v"]).pack())
            pools.append((BufferPool(pager, capacity=4), page_id))

        def reads(pool: BufferPool, page_id: int) -> None:
            for _ in range(5000):
                pool.walk(page_id, lambda _page, _frame: 0)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with page_stats_scope() as scope:
                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run, args=(reads, *pool)
                    )
                    for pool in pools
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
            for pager in pagers:
                pager.close()
        assert not any(t.is_alive() for t in threads)
        # Each pool misses its one page once, then hits it.
        assert (scope.hits, scope.misses) == (8 * 4999, 8)
