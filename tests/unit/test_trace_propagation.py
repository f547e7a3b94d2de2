"""Trace propagation: one query, one span tree, one trace id.

The contract under stress here: a query over a sharded store reads
every shard in the calling thread, and work that a sharded store does
fan out to pool threads (shard-parallel writes and checkpoints) joins
the *caller's* trace through :class:`TraceContext`.  Concretely:

* a profiled sharded query finishes exactly ONE root span
  (``query.execute``), starts no thread, and reports its shards as
  children of the access node in its EXPLAIN ANALYZE tree;
* the same trace id appears on the span tree, on every correlated log
  line, and on the slow-log entry (three surfaces, one id);
* per-shard buffer-pool page stats attribute to the query that touched
  them even with concurrent queries in flight.
"""

import threading

import pytest

from repro.obs import logging as obs_logging
from repro.obs import metrics, tracing
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import TraceContext, get_default_tracer
from repro.query import QueryEngine
from repro.storage import ShardedStore
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
                "year >= 1905 ORDER BY year LIMIT 5"
            )
        # The slow query was re-run profiled under the same trace id.
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


class TestTraceContext:
    def test_capture_attach_adopts_parent_span(self):
        tracer = get_default_tracer()
        tracer.enable()
        with tracing.span("outer") as outer:
            ctx = TraceContext.capture()
            result = {}

            def worker():
                with ctx.attach():
                    with tracing.span("inner"):
                        result["parent"] = tracer.current_span()

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        roots = tracing.finished_spans()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert outer.children[0].name == "inner"

    def test_attach_is_noop_on_same_thread(self):
        tracer = get_default_tracer()
        tracer.enable()
        with tracing.span("solo"):
            ctx = TraceContext.capture()
            with ctx.attach():  # already current: must not re-push
                with tracing.span("child"):
                    pass
        (root,) = tracing.finished_spans()
        assert root.name == "solo"
        assert [c.name for c in root.children] == ["child"]

    def test_attach_restores_trace_id_on_worker(self):
        with obs_logging.trace() as trace_id:
            ctx = TraceContext.capture()
        seen = {}

        def worker():
            with ctx.attach():
                seen["id"] = obs_logging.current_trace_id()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["id"] == trace_id
