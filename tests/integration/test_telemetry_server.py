"""Telemetry serving layer end-to-end.

Covers the PR's acceptance criteria directly:

* ``/metrics`` serves **valid** Prometheus text exposition — asserted by
  the strict parser from ``tests.unit.test_obs_promexport``, not by
  substring checks;
* a slow query produces a slow-log JSONL entry whose trace id matches
  its span tree and its log lines (one id, three surfaces);
* ``/healthz`` maps the fsck walker's exit codes to HTTP statuses.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.corpus.wvlr import PUBLICATION_SCHEMA, populate_store
from repro.obs import logging as obs_logging
from repro.obs import metrics, profiling, progress, tracing, workload
from repro.obs.server import TelemetryServer
from repro.obs.slo import SLOEngine
from repro.obs.slowlog import SlowQueryLog, read_slow_log
from repro.obs.timeseries import TimeSeriesLog
from repro.query.executor import QueryEngine
from repro.storage.sharded import ShardedStore
from repro.storage.store import IndexKind, RecordStore
from tests.unit.test_obs_promexport import parse_exposition


@pytest.fixture(autouse=True)
def clean_obs():
    metrics.reset()
    tracing.reset()
    obs_logging.reset()
    yield
    metrics.reset()
    tracing.reset()
    obs_logging.reset()


@pytest.fixture()
def server():
    srv = TelemetryServer(port=0)
    srv.start()
    yield srv
    srv.stop()


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_exposition(self, server):
        metrics.counter("itest.requests", path="/metrics").inc(3)
        metrics.histogram("itest.seconds").observe(0.02)
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parsed = parse_exposition(body.decode("utf-8"))
        samples = parsed["repro_itest_requests_total"]["samples"]
        assert samples == [
            ("repro_itest_requests_total", {"path": "/metrics"}, 3.0)
        ]
        hist = parsed["repro_itest_seconds"]
        assert hist["type"] == "histogram"
        assert any(name.endswith("_count") for name, _, _ in hist["samples"])

    def test_requests_counter_moves_per_path(self, server):
        _get(server.url + "/varz")
        _get(server.url + "/varz")
        snap = metrics.snapshot()["counters"]
        assert snap["obs.server.requests{path=/varz}"] == 2


class TestHealthz:
    def test_no_store_is_liveness_only(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload == {"status": "ok", "store": None}

    def test_clean_store_reports_ok(self, tmp_path):
        with RecordStore(PUBLICATION_SCHEMA, tmp_path / "db") as store:
            store.checkpoint()
        with TelemetryServer(port=0, store_dir=str(tmp_path / "db")) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["store"]["exit_code"] == 0

    def test_missing_store_reports_fail_503(self, tmp_path):
        with TelemetryServer(port=0, store_dir=str(tmp_path / "absent")) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "fail"


class TestJsonEndpoints:
    def test_varz_is_the_snapshot(self, server):
        metrics.counter("itest.varz").inc()
        _, _, body = _get(server.url + "/varz")
        assert json.loads(body)["counters"]["itest.varz"] == 1

    def test_tracez_serves_span_trees(self, server):
        with tracing.span("itest.root", kind="demo"):
            with tracing.span("itest.child"):
                pass
        _, _, body = _get(server.url + "/tracez")
        spans = json.loads(body)["spans"]
        root = next(s for s in spans if s["name"] == "itest.root")
        assert root["attributes"] == {"kind": "demo"}
        assert [c["name"] for c in root["children"]] == ["itest.child"]

    def test_logz_filters(self, server):
        obs_logging.info("itest.alpha", n=1)
        obs_logging.warn("itest.beta", n=2)
        _, _, body = _get(server.url + "/logz?event=itest.beta")
        records = json.loads(body)["records"]
        assert [r["event"] for r in records] == ["itest.beta"]
        _, _, body = _get(server.url + "/logz?level=warn&n=1")
        records = json.loads(body)["records"]
        assert records and records[-1]["event"] == "itest.beta"

    def test_unknown_path_404_lists_endpoints(self, server):
        status, _, body = _get(server.url + "/nope")
        assert status == 404
        payload = json.loads(body)
        assert payload["error"] == "no such endpoint: /nope"
        # The 404 page is a directory, not a dead end: every live route.
        assert {"/metrics", "/healthz", "/varz", "/tracez", "/logz",
                "/topz", "/profilez"} <= set(payload["endpoints"])
        # No query service attached -> /query must NOT be advertised.
        assert "/query" not in payload["endpoints"]

    def test_index_lists_endpoints(self, server):
        status, _, body = _get(server.url + "/")
        assert status == 200
        endpoints = json.loads(body)["endpoints"]
        assert "/metrics" in endpoints
        assert "/topz" in endpoints
        assert "/profilez" in endpoints


class TestTopz:
    def _burst(self, records):
        store = RecordStore(PUBLICATION_SCHEMA)
        populate_store(store, records)
        store.create_index("year", IndexKind.BTREE)
        engine = QueryEngine(store)
        for year in (1960, 1970, 1980):
            engine.execute(f"year >= {year} LIMIT 5")
            engine.execute(f"year = {year}", profile=True)
        return engine

    def test_topz_serves_fingerprint_table(self, server, reference_records):
        workload.reset()
        self._burst(reference_records)
        status, headers, body = _get(server.url + "/topz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        templates = {row["template"]: row for row in payload["fingerprints"]}
        assert templates["year >= ? LIMIT ?"]["calls"] == 3
        assert templates["year = ?"]["calls"] == 3
        # Profiled runs contributed per-operator breakdowns.
        assert "index-lookup" in templates["year = ?"]["operators"]
        # The btree probes landed in the key-usage histograms.
        assert payload["key_usage"]["year"]["probes"] > 0
        workload.reset()

    def test_topz_sort_and_n_params(self, server, reference_records):
        workload.reset()
        self._burst(reference_records)
        status, _, body = _get(server.url + "/topz?n=1&sort=rows_returned")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["fingerprints"]) == 1
        assert payload["sort"] == "rows_returned"
        workload.reset()

    def test_topz_rejects_bad_sort(self, server):
        status, _, body = _get(server.url + "/topz?sort=bogus")
        assert status == 400
        assert "sort_by" in json.loads(body)["error"]

    def test_workload_family_rides_metrics_exposition(
        self, server, reference_records
    ):
        workload.reset()
        self._burst(reference_records)
        status, _, body = _get(server.url + "/metrics")
        assert status == 200
        families = parse_exposition(body.decode("utf-8"))
        calls = families["repro_workload_calls_total"]
        assert calls["type"] == "counter"
        assert sum(value for _, _, value in calls["samples"]) == 6.0
        workload.reset()


class TestProfilez:
    def test_profilez_lifecycle_over_http(self, server):
        profiling.get_default_profiler().reset()
        status, _, body = _get(server.url + "/profilez")
        assert status == 200
        assert json.loads(body)["running"] is False

        status, _, body = _get(server.url + "/profilez?action=start&hz=200")
        assert status == 200
        assert json.loads(body)["running"] is True
        # A running profiler refuses a second start (409, status attached).
        status, _, body = _get(server.url + "/profilez?action=start")
        assert status == 409

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if json.loads(_get(server.url + "/profilez")[2])["samples"] > 0:
                break
            time.sleep(0.02)
        status, _, body = _get(server.url + "/profilez?action=stop")
        assert status == 200
        stopped = json.loads(body)
        assert stopped["running"] is False
        assert stopped["samples"] > 0

        status, headers, body = _get(server.url + "/profilez?format=collapsed")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        for line in body.decode("utf-8").splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and count.isdigit()

        status, _, _ = _get(server.url + "/profilez?action=reset")
        assert status == 200
        assert json.loads(_get(server.url + "/profilez")[2])["samples"] == 0

    def test_profilez_rejects_unknown_action(self, server):
        status, _, body = _get(server.url + "/profilez?action=enhance")
        assert status == 400
        assert "unknown action" in json.loads(body)["error"]


class TestSlowQueryCorrelation:
    """Acceptance: one trace id across slow-log entry, spans, and logs."""

    def _seeded_engine(self, records, slow_log):
        store = RecordStore(PUBLICATION_SCHEMA)
        populate_store(store, records)
        store.create_index("year", IndexKind.BTREE)
        return QueryEngine(store, slow_log=slow_log)

    def test_slow_query_joins_entry_spans_and_logs(
        self, tmp_path, reference_records
    ):
        logger = obs_logging.get_default_logger()
        previous = logger.level
        logger.set_level("debug")
        try:
            path = tmp_path / "slow.jsonl"
            slow_log = SlowQueryLog(path, threshold_s=0.0)  # everything is slow
            engine = self._seeded_engine(reference_records, slow_log)
            # DESC keeps a sort node: an ascending ORDER BY on the
            # indexed field is served in index order, with no operator
            # above the range scan.
            engine.execute("year >= 1900 ORDER BY year DESC", profile=True)
        finally:
            logger.set_level(previous)

        (entry,) = read_slow_log(path)
        trace_id = entry["trace_id"]
        assert trace_id

        # The entry carries the EXPLAIN ANALYZE tree of the run it logs.
        assert entry["profile"]["tree"]["op"] in ("sort", "limit", "filter")
        assert entry["rows"] > 0

        # The span tree from that profiled run shares the id.
        root = tracing.last_root()
        assert root.name == "query.execute"
        assert root.attributes["trace_id"] == trace_id

        # The execution's log lines share it too.
        lines = obs_logging.tail(trace_id=trace_id)
        events = {r["event"] for r in lines}
        assert "query.execute" in events
        assert "query.slow" in events

    def test_profiled_slow_query_is_not_reexecuted(
        self, tmp_path, reference_records
    ):
        slow_log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_s=0.0)
        engine = self._seeded_engine(reference_records, slow_log)
        profile = engine.execute("year >= 1900", profile=True)
        (entry,) = slow_log.entries()
        assert "profile_reexecuted" not in entry
        assert entry["profile"]["row_count"] == len(profile.rows)
        assert entry["trace_id"] == tracing.last_root().attributes["trace_id"]

    def test_fast_query_is_not_recorded(self, reference_records):
        slow_log = SlowQueryLog(threshold_s=30.0)
        engine = self._seeded_engine(reference_records, slow_log)
        engine.execute("year >= 1900 LIMIT 5")
        assert slow_log.entries() == []

    def test_unprofiled_slow_query_runs_once(self, reference_records):
        slow_log = SlowQueryLog(threshold_s=0.0)
        engine = self._seeded_engine(reference_records, slow_log)
        rows = engine.execute("year >= 1900 LIMIT 5")
        (entry,) = slow_log.entries()
        assert "profile" not in entry
        assert entry["rows"] == len(rows) == 5
        # The range scan stops at LIMIT: five rows examined, five kept.
        assert entry["rows_examined"] == 5
        # No re-execution: no profiled span was opened.
        assert tracing.last_root() is None


class TestProgressz:
    def test_active_operation_is_visible_mid_flight(self, server):
        progress.reset()
        with progress.start("itest.rebuild", total=8, shard=1) as tracker:
            tracker.tick(2)
            status, headers, body = _get(server.url + "/progressz")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            payload = json.loads(body)
            (op,) = payload["active"]
            assert op["name"] == "itest.rebuild"
            assert op["done"] == 2 and op["total"] == 8
            assert op["percent"] == 25.0
            assert op["attrs"] == {"shard": 1}
        progress.reset()

    def test_finished_operation_moves_to_recent(self, server):
        progress.reset()
        with progress.start("itest.ckpt", total=3) as tracker:
            tracker.tick(3)
        payload = json.loads(_get(server.url + "/progressz")[2])
        assert payload["active"] == []
        (op,) = payload["recent"]
        assert op["name"] == "itest.ckpt" and op["ok"] is True
        progress.reset()


class TestAlertz:
    PINNED_RULE = {
        "name": "pinned-pages", "kind": "threshold", "source": "gauge",
        "metric": "pool.pinned", "op": ">=", "bound": 5, "severity": "ticket",
    }

    def _server_with_engine(self, rules, ts):
        return TelemetryServer(port=0, slo_engine=SLOEngine(ts, rules))

    def test_no_engine_serves_disabled_stub(self, server):
        status, _, body = _get(server.url + "/alertz")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["firing"] == []
        assert "no SLO engine" in payload["reason"]

    def test_firing_rule_served_over_http(self):
        ts = TimeSeriesLog()
        ts.sample({"counters": {}, "gauges": {"pool.pinned": 9}, "histograms": {}})
        with self._server_with_engine([self.PINNED_RULE], ts) as srv:
            status, _, body = _get(srv.url + "/alertz")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        (state,) = payload["firing"]
        assert state["name"] == "pinned-pages"
        assert state["value"] == 9
        assert payload["rules"][0]["firing"] is True

    def test_quiet_rule_is_enabled_but_silent(self):
        ts = TimeSeriesLog()
        ts.sample({"counters": {}, "gauges": {"pool.pinned": 0}, "histograms": {}})
        with self._server_with_engine([self.PINNED_RULE], ts) as srv:
            payload = json.loads(_get(srv.url + "/alertz")[2])
        assert payload["enabled"] is True
        assert payload["firing"] == []


class TestStatusz:
    def test_statusz_is_selfcontained_html(self, server):
        status, headers, body = _get(server.url + "/statusz")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        page = body.decode("utf-8")
        # Self-contained: inline CSS, no external scripts or stylesheets.
        assert "<style>" in page
        assert "src=" not in page and "href=\"http" not in page
        for section in ("Alerts", "Durability", "Progress", "slow queries"):
            assert section in page

    def test_statusz_renders_per_shard_rows(self, server):
        for shard in (0, 1, 2):
            metrics.counter("storage.bufferpool.hits", shard=shard).inc(90)
            metrics.counter("storage.bufferpool.misses", shard=shard).inc(10)
        page = _get(server.url + "/statusz")[2].decode("utf-8")
        assert page.count("<tr><td>") >= 3  # one row per shard
        assert "90.0%" in page  # hit rate column

    def test_statusz_escapes_slow_query_text(self, server):
        obs_logging.get_default_logger().warn(
            "query.slow", query="year <= 2000 & <script>", seconds=1.0, rows=1
        )
        page = _get(server.url + "/statusz")[2].decode("utf-8")
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_statusz_firing_alert_is_rendered(self):
        ts = TimeSeriesLog()
        ts.sample({"counters": {}, "gauges": {"pool.pinned": 9}, "histograms": {}})
        engine = SLOEngine(ts, [TestAlertz.PINNED_RULE])
        with TelemetryServer(port=0, slo_engine=engine) as srv:
            page = _get(srv.url + "/statusz")[2].decode("utf-8")
        assert "pinned-pages" in page
        assert "ticket" in page


class TestHealthzSharded:
    def test_sharded_store_health_walks_every_shard(
        self, tmp_path, reference_records
    ):
        with ShardedStore(
            PUBLICATION_SCHEMA, tmp_path / "fleet", shards=3
        ) as store:
            store.put_many(r.to_store_dict() for r in reference_records)
            store.checkpoint()
        with TelemetryServer(port=0, store_dir=str(tmp_path / "fleet")) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["store"]["exit_code"] == 0
