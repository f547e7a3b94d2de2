"""Shard fault tolerance over HTTP: /healthz caching + shard rows,
scrubber verdicts, and 206 partial /query responses."""

import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.obs import metrics
from repro.obs.server import TelemetryServer
from repro.query.executor import QueryEngine
from repro.resilience import QueryService
from repro.storage import RecordStore, ShardedStore, Scrubber
from repro.storage.faultfs import flip_bit_on_disk
from repro.storage.pages import PAGE_SIZE
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("year", FieldType.INT),
        Field("name", FieldType.STRING),
    ],
    primary_key="id",
)


@pytest.fixture(autouse=True)
def clean_metrics():
    metrics.reset()
    yield
    metrics.reset()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _corpus(n=200):
    return [
        {"id": i, "year": 1900 + (i % 10), "name": f"n{i:04d}"}
        for i in range(n)
    ]


def _durable_store(tmp_path, shards=4):
    store = ShardedStore(
        SCHEMA, tmp_path / "db", shards=shards, data_format="paged", sync=True
    )
    store.put_many(_corpus())
    store.checkpoint()
    return store


class TestHealthzShards:
    def test_healthz_reports_per_shard_rows(self, tmp_path):
        store = _durable_store(tmp_path)
        store.quarantine(1, "test damage")
        store.close()
        with TelemetryServer(port=0, store_dir=str(tmp_path / "db")) as srv:
            status, _, body = _get(srv.url + "/healthz")
        payload = json.loads(body)
        # A quarantined shard downgrades liveness even though the files
        # fsck clean (the manifest remembers the quarantine).
        assert status == 200
        assert payload["status"] == "degraded"
        states = [row["state"] for row in payload["shards"]]
        assert states == ["healthy", "quarantined", "healthy", "healthy"]

    def test_fsck_verdict_is_cached_within_ttl(self, tmp_path):
        store = _durable_store(tmp_path)
        store.close()
        with TelemetryServer(
            port=0, store_dir=str(tmp_path / "db"), health_ttl_s=60.0
        ) as srv:
            _, _, first = _get(srv.url + "/healthz")
            _, _, second = _get(srv.url + "/healthz")
        assert json.loads(first)["cached"] is False
        assert json.loads(second)["cached"] is True

    def test_cache_expires(self, tmp_path):
        store = _durable_store(tmp_path)
        store.close()
        with TelemetryServer(
            port=0, store_dir=str(tmp_path / "db"), health_ttl_s=0.05
        ) as srv:
            _get(srv.url + "/healthz")
            time.sleep(0.1)
            _, _, body = _get(srv.url + "/healthz")
        assert json.loads(body)["cached"] is False


class TestHealthzInlineFsck:
    def test_manifest_that_is_not_an_object_reads_degraded(self, tmp_path):
        # fsck reports the damage and can roll the snapshot back to its
        # intact pages file, so the store is degraded, not down.
        with RecordStore(SCHEMA, tmp_path / "db") as store:
            store.put_many(_corpus())
            store.checkpoint()
        manifest = tmp_path / "db" / "snapshot.json"
        manifest.write_text(json.dumps([json.loads(manifest.read_text())]))
        with TelemetryServer(port=0, store_dir=str(tmp_path / "db")) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["store"]["exit_code"] == 1
        assert any(
            "not an object" in issue["message"]
            for issue in payload["store"]["issues"]
        )


class TestHealthzScrubberVerdict:
    def test_scrubber_verdict_replaces_inline_fsck(self, tmp_path):
        store = _durable_store(tmp_path)
        scrubber = Scrubber(store, bytes_per_s=None)
        scrubber.run_once()
        with TelemetryServer(
            port=0, store_dir=str(tmp_path / "db"), scrubber=scrubber
        ) as srv:
            status, _, body = _get(srv.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["scrub"]["clean"] is True
        assert payload["store"] is None  # no inline fsck ran
        store.close()

    def test_dirty_scrub_verdict_is_503(self, tmp_path):
        store = _durable_store(tmp_path)
        snap = store.shard_path(2) / "snapshot.json"
        pages = store.shard_path(2) / json.loads(snap.read_text())["pages"]
        flip_bit_on_disk(pages, byte_index=1 * PAGE_SIZE + 40, bit=5)
        scrubber = Scrubber(store, bytes_per_s=None)
        scrubber.run_once()
        with TelemetryServer(
            port=0, store_dir=str(tmp_path / "db"), scrubber=scrubber
        ) as srv:
            status, _, body = _get(srv.url + "/healthz")
        payload = json.loads(body)
        assert status == 503
        assert payload["status"] == "fail"
        assert payload["scrub"]["clean"] is False
        store.close()


class TestPartialQueryHTTP:
    @pytest.fixture()
    def degraded_server(self, tmp_path):
        store = ShardedStore(SCHEMA, shards=4)
        store.put_many(_corpus())
        store.quarantine(2, "test damage")
        service = QueryService(QueryEngine(store))
        srv = TelemetryServer(port=0, query_service=service)
        srv.start()
        yield srv, store
        srv.stop()
        store.close()

    def _query(self, srv, q, **params):
        params["q"] = q
        return _get(srv.url + "/query?" + urllib.parse.urlencode(params))

    def test_partial_ok_serves_206_with_metadata(self, degraded_server):
        srv, store = degraded_server
        status, _, body = self._query(srv, "* ORDER BY id", partial_ok=1)
        payload = json.loads(body)
        assert status == 206
        assert payload["partial"] is True
        assert payload["shards_failed"] == [2]
        expected = sum(1 for r in _corpus() if store.shard_for(r["id"]) != 2)
        assert payload["row_count"] == expected

    def test_strict_query_fails_on_quarantined_shard(self, degraded_server):
        srv, _ = degraded_server
        status, _, _ = self._query(srv, "* ORDER BY id")
        assert status >= 500

    def test_partial_ok_on_healthy_store_is_200(self, degraded_server):
        srv, store = degraded_server
        store.readmit(2)
        status, _, body = self._query(srv, "* ORDER BY id", partial_ok=1)
        payload = json.loads(body)
        assert status == 200
        assert "partial" not in payload
        assert payload["row_count"] == 200


class TestStatuszHealthColumn:
    def test_statusz_shows_shard_health(self, tmp_path):
        store = ShardedStore(SCHEMA, shards=2)
        store.put_many(_corpus(50))
        store.quarantine(1, "test")
        with TelemetryServer(port=0) as srv:
            _, _, body = _get(srv.url + "/statusz")
        html = body.decode("utf-8")
        assert "<th>health</th>" in html
        assert "quarantined" in html
        store.close()
