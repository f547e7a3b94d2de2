"""Stdlib telemetry daemon: /statusz /metrics /healthz /alertz /progressz and friends.

:class:`TelemetryServer` wraps a :class:`http.server.ThreadingHTTPServer`
exposing the process's observability state over HTTP — the backend of
``repro serve-telemetry`` and ``repro serve-query``.  Routes:

``/metrics``
    Prometheus text exposition of the default metrics registry
    (:func:`repro.obs.promexport.render_prometheus` — the exact renderer
    ``repro stats --metrics --metrics-format prom`` uses).
``/healthz``
    Store health.  When the server was given a ``store_dir``, runs the
    :func:`repro.storage.fsck.fsck` walker (read-only) over the snapshot
    and WAL chain and maps its exit code: 0 → ``ok`` (HTTP 200),
    1 → ``degraded`` (HTTP 200 — recoverable damage, the store still
    serves), 2 → ``fail`` (HTTP 503).  The fsck verdict is cached for
    ``health_ttl_s`` seconds (pollers should not trigger a full walk per
    request), and when a background :class:`repro.storage.scrub.Scrubber`
    is attached its last verdict (with its age) is served instead of
    running fsck inline at all.  Sharded roots additionally report
    per-shard health rows from the shard manifest; a quarantined or
    repairing shard downgrades ``ok`` to ``degraded``.  When a query
    service is attached and its circuit breaker is open (shed/timeout
    rate over threshold), ``ok`` downgrades to ``degraded`` and the
    breaker state is included.  Without a store the endpoint reports
    process liveness only.
``/varz``
    Raw JSON metrics snapshot (counters / gauges / histograms).
``/tracez``
    Recent finished span trees from the default tracer, JSON.
``/logz``
    Tail of the in-process structured log ring, JSON
    (``?n=``, ``?level=``, ``?event=``, ``?trace=`` filters).
``/topz``
    The workload fingerprint table (:mod:`repro.obs.workload`), JSON:
    hottest query shapes with per-operator CPU/rows/bytes breakdowns and
    the per-index key-usage histograms (``?n=``, ``?sort=`` — one of the
    table's sort keys).  The live backend of ``repro top``.
``/profilez``
    The process-wide sampling profiler (:mod:`repro.obs.profiling`).
    ``?action=start|stop|reset`` drives the lifecycle (``&hz=`` with
    start), the bare endpoint reports status, and ``?format=collapsed``
    returns accumulated samples as ``flamegraph.pl``-ready text.
``/progressz``
    In-flight and recently finished long-running operations
    (:mod:`repro.obs.progress`): checkpoints, bulk builds, fsck walks,
    sharded ingests — each with done/total, rate, and ETA.  JSON.
``/alertz``
    SLO evaluation results (:mod:`repro.obs.slo`) when the server was
    given an ``slo_engine``; otherwise an ``{"enabled": false}`` stub so
    pollers can distinguish "no alerting configured" from "all clear".
``/statusz``
    The human dashboard: one self-contained server-rendered HTML page
    (inline CSS, no JavaScript, no external assets) showing per-shard
    health, buffer-pool hit rates, WAL/checkpoint state, firing alerts,
    in-flight progress, and recent slow queries.  Auto-refreshes.
``/query``
    Present when the server was given a ``query_service``
    (:class:`repro.resilience.QueryService`): runs ``?q=`` through
    admission control and a deadline/budget guard (``?timeout_ms=``,
    ``?max_rows=``, ``?profile=1``).  Typed failures map to HTTP codes:
    shed → 429 with a ``Retry-After`` header, deadline → 504, budget →
    422, bad query → 400.  Against a sharded engine, ``?partial_ok=1``
    tolerates failing/quarantined shards: the response carries
    ``partial: true`` plus ``shards_failed`` and is sent as HTTP 206.

The server binds before :meth:`TelemetryServer.serve_forever` returns
control, so ``port=0`` (ephemeral) works for tests: construct, read
``.port``, then drive requests.  Every handled request increments
``obs.server.requests{path=…}``.

The fsck walker is imported lazily inside the health check —
``repro.storage`` itself instruments through ``repro.obs``, and a
module-level import here would complete that cycle.
"""

from __future__ import annotations

import json
import re
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    QueryCancelled,
    QueryError,
    QueryTimeout,
)
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import profiling as _profiling
from repro.obs import progress as _progress
from repro.obs import tracing as _tracing
from repro.obs import workload as _workload
from repro.obs.promexport import render_prometheus

__all__ = ["TelemetryServer", "DEFAULT_PORT"]

#: Default TCP port for ``repro serve-telemetry``.
DEFAULT_PORT = 9179

#: Seconds :meth:`TelemetryServer.stop` waits for the serving thread.
_STOP_JOIN_TIMEOUT_S = 5.0

def _count_request(path: str) -> None:
    _metrics.counter("obs.server.requests", path=path).inc()


#: Default seconds a /healthz fsck verdict is served from cache.  An
#: inline fsck walks every page and WAL frame — fine once, pathological
#: when a load balancer polls every second.
DEFAULT_HEALTH_TTL_S = 5.0

#: ``(expires_monotonic, exit_code, report_dict)`` per store directory.
_health_cache: dict[str, tuple[float, int, dict[str, Any]]] = {}
_health_cache_lock = threading.Lock()


def _cached_fsck(store_dir: str, ttl_s: float) -> tuple[int, dict[str, Any], bool]:
    """fsck ``store_dir``, serving a cached verdict while it is fresh.

    Returns ``(exit_code, report_dict, was_cached)``.
    """
    now = time.monotonic()
    if ttl_s > 0:
        with _health_cache_lock:
            entry = _health_cache.get(store_dir)
        if entry is not None and now < entry[0]:
            return entry[1], entry[2], True
    # Lazy import: storage instruments via obs, so a module-level
    # import here would complete that cycle.
    from repro.storage.fsck import fsck, fsck_sharded, is_sharded_root

    if is_sharded_root(store_dir):
        report = fsck_sharded(store_dir)
    else:
        report = fsck(store_dir)
    code = report.exit_code()
    doc = report.to_dict()
    if ttl_s > 0:
        with _health_cache_lock:
            _health_cache[store_dir] = (now + ttl_s, code, doc)
    return code, doc, False


def _manifest_shard_health(store_dir: str) -> list[dict[str, Any]] | None:
    """Per-shard health rows from a sharded root's manifest, or ``None``.

    The health machine persists non-healthy shards into ``shards.json``;
    shards absent from that section are healthy.
    """
    try:
        doc = json.loads(
            (Path(store_dir) / "shards.json").read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    count = doc.get("shard_count")
    if not isinstance(count, int) or count < 1:
        return None
    persisted = doc.get("health") or {}
    rows = []
    for i in range(count):
        entry = persisted.get(str(i)) if isinstance(persisted, dict) else None
        if isinstance(entry, dict):
            rows.append(
                {
                    "shard": i,
                    "state": entry.get("state", "healthy"),
                    "reason": entry.get("reason", ""),
                }
            )
        else:
            rows.append({"shard": i, "state": "healthy", "reason": ""})
    return rows


def _health_payload(
    store_dir: str | None,
    query_service: Any = None,
    *,
    ttl_s: float = DEFAULT_HEALTH_TTL_S,
    scrubber: Any = None,
) -> tuple[int, dict[str, Any]]:
    """(http_status, body) for /healthz."""
    if store_dir is None:
        body: dict[str, Any] = {"status": "ok", "store": None}
        http_status = 200
    else:
        verdict = scrubber.last_verdict() if scrubber is not None else None
        if verdict is not None:
            # A background scrubber already deep-verified the store; its
            # last verdict (stamped with its age) replaces an inline fsck.
            status = "ok" if verdict.get("clean") else "fail"
            body = {"status": status, "store": None, "scrub": verdict}
            http_status = 503 if not verdict.get("clean") else 200
        else:
            code, doc, cached = _cached_fsck(store_dir, ttl_s)
            status = {0: "ok", 1: "degraded", 2: "fail"}[code]
            body = {"status": status, "store": doc, "cached": cached}
            http_status = 503 if code == 2 else 200
        shard_health = _manifest_shard_health(store_dir)
        if shard_health is not None:
            body["shards"] = shard_health
            if any(r["state"] in ("quarantined", "repairing") for r in shard_health):
                if body["status"] == "ok":
                    # The store's bytes may be intact, but part of the
                    # keyspace is out of service: degraded, not down.
                    body["status"] = "degraded"
    if query_service is not None:
        breaker_state = query_service.breaker.state()
        body["breaker"] = breaker_state
        if breaker_state["open"] and body["status"] == "ok":
            # Overloaded but intact: still HTTP 200, status degraded —
            # a hint to load balancers, not a liveness failure.
            body["status"] = "degraded"
    return http_status, body


# -- /statusz rendering -------------------------------------------------------

#: Flat series name with a shard label: ``storage.bufferpool.hits{shard=3}``.
_SHARD_SERIES = re.compile(r"^(?P<name>[^{]+)\{shard=(?P<shard>\d+)\}$")

#: ``storage.shard.health`` gauge levels → state names (mirrors
#: ``repro.storage.health.HEALTH_LEVELS``; duplicated because the obs
#: layer must not import storage at module level).
_HEALTH_NAMES = {0: "healthy", 1: "degraded", 2: "quarantined", 3: "repairing"}

_STATUSZ_CSS = """
body { font-family: system-ui, sans-serif; margin: 1.5rem; color: #1a1a2e; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.4rem; }
table { border-collapse: collapse; margin: 0.4rem 0; }
th, td { border: 1px solid #c8c8d8; padding: 0.25rem 0.6rem;
         font-size: 0.85rem; text-align: right; }
th { background: #eef; } td.l, th.l { text-align: left; }
.ok { color: #1a7a2e; } .warn { color: #a06000; } .bad { color: #b02020; }
.muted { color: #777; font-size: 0.85rem; }
.bar { display: inline-block; width: 120px; height: 0.7rem;
       background: #e4e4f0; vertical-align: middle; }
.bar > span { display: block; height: 100%; background: #4a6fd0; }
"""


def _esc(value: Any) -> str:
    """Minimal HTML escaping (the stdlib ``html`` module is outside the
    obs import allowlist, and three replacements are all we need)."""
    return (
        str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _shard_rows(snapshot: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-shard series folded into one row per shard, sorted by shard id."""
    shards: dict[int, dict[str, float]] = {}
    for kind in ("counters", "gauges"):
        for flat, value in snapshot.get(kind, {}).items():
            match = _SHARD_SERIES.match(flat)
            if match:
                shard = int(match.group("shard"))
                shards.setdefault(shard, {})[match.group("name")] = value
    return [
        {"shard": shard, **series} for shard, series in sorted(shards.items())
    ]


def _hit_rate(hits: float, misses: float) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:.1f}%" if total else "–"


def _statusz_html(
    *,
    store_dir: str | None,
    slo_engine: Any,
    query_service: Any,
) -> str:
    """The whole dashboard as one dependency-free HTML document."""
    snapshot = _metrics.snapshot()
    counters = snapshot.get("counters", {})
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    out: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<meta http-equiv='refresh' content='5'>",
        "<title>repro /statusz</title>",
        f"<style>{_STATUSZ_CSS}</style></head><body>",
        "<h1>repro telemetry — /statusz</h1>",
        f"<p class='muted'>generated {_esc(now)}Z · "
        f"store: {_esc(store_dir) if store_dir else 'none (in-memory)'} · "
        "<a href='/metrics'>/metrics</a> <a href='/healthz'>/healthz</a> "
        "<a href='/alertz'>/alertz</a> <a href='/progressz'>/progressz</a> "
        "<a href='/varz'>/varz</a> <a href='/tracez'>/tracez</a> "
        "<a href='/logz'>/logz</a> <a href='/topz'>/topz</a></p>",
    ]

    # -- alerts --------------------------------------------------------------
    out.append("<h2>Alerts</h2>")
    if slo_engine is None:
        out.append(
            "<p class='muted'>SLO engine not attached — serve with "
            "<code>--timeseries</code> to enable burn-rate evaluation.</p>"
        )
    else:
        evaluation = slo_engine.evaluate()
        firing = evaluation["firing"]
        if firing:
            out.append(
                "<table><tr><th class='l'>rule</th><th>severity</th>"
                "<th class='l'>reason</th></tr>"
            )
            for state in firing:
                out.append(
                    f"<tr><td class='l bad'>{_esc(state['name'])}</td>"
                    f"<td>{_esc(state['severity'])}</td>"
                    f"<td class='l'>{_esc(state['reason'])}</td></tr>"
                )
            out.append("</table>")
        else:
            no_data = [s["name"] for s in evaluation["rules"] if s.get("no_data")]
            out.append(
                f"<p class='ok'>no alerts firing "
                f"({len(evaluation['rules'])} rules evaluated"
                + (f"; no data yet: {_esc(', '.join(no_data))}" if no_data else "")
                + ")</p>"
            )
    if query_service is not None:
        breaker = query_service.breaker.state()
        css = "bad" if breaker.get("open") else "ok"
        out.append(
            f"<p>circuit breaker: <span class='{css}'>"
            f"{'open' if breaker.get('open') else 'closed'}</span></p>"
        )

    # -- per-shard health ----------------------------------------------------
    out.append("<h2>Shards</h2>")
    shards = _shard_rows(snapshot)
    if shards:
        out.append(
            "<table><tr><th>shard</th><th>health</th><th>pool hits</th>"
            "<th>pool misses</th><th>hit rate</th><th>evictions</th>"
            "<th>tree searches</th><th>tree depth</th></tr>"
        )
        for row in shards:
            hits = row.get("storage.bufferpool.hits", 0)
            misses = row.get("storage.bufferpool.misses", 0)
            level = row.get("storage.shard.health")
            name = _HEALTH_NAMES.get(int(level) if level is not None else -1, "–")
            css = {"healthy": "ok", "degraded": "warn"}.get(name, "bad")
            health_cell = (
                f"<span class='{css}'>{name}</span>" if level is not None else "–"
            )
            out.append(
                f"<tr><td>{row['shard']}</td><td>{health_cell}</td>"
                f"<td>{hits:,.0f}</td>"
                f"<td>{misses:,.0f}</td><td>{_hit_rate(hits, misses)}</td>"
                f"<td>{row.get('storage.bufferpool.evictions', 0):,.0f}</td>"
                f"<td>{row.get('storage.paged_btree.searches', 0):,.0f}</td>"
                f"<td>{row.get('storage.paged_btree.depth', 0):,.0f}</td></tr>"
            )
        out.append("</table>")
    else:
        out.append(
            "<p class='muted'>no per-shard series recorded (single store, "
            "or no paged/sharded activity in this process yet)</p>"
        )
    global_hits = counters.get("storage.bufferpool.hits", 0)
    global_misses = counters.get("storage.bufferpool.misses", 0)
    if global_hits or global_misses:
        out.append(
            f"<p>unsharded buffer pool: {global_hits:,.0f} hits / "
            f"{global_misses:,.0f} misses "
            f"({_hit_rate(global_hits, global_misses)} hit rate)</p>"
        )

    # -- WAL / checkpoint ----------------------------------------------------
    appended = counters.get("storage.wal.append.bytes", 0)
    reclaimed = counters.get("storage.checkpoint.bytes_reclaimed", 0)
    out.append("<h2>Durability</h2>")
    out.append(
        "<table><tr><th class='l'>series</th><th>value</th></tr>"
        f"<tr><td class='l'>WAL appends</td>"
        f"<td>{counters.get('storage.wal.append.count', 0):,.0f}</td></tr>"
        f"<tr><td class='l'>WAL bytes appended</td><td>{appended:,.0f}</td></tr>"
        f"<tr><td class='l'>WAL fsyncs</td>"
        f"<td>{counters.get('storage.wal.fsync.count', 0):,.0f}</td></tr>"
        f"<tr><td class='l'>checkpoints</td>"
        f"<td>{counters.get('storage.checkpoint.count', 0):,.0f}</td></tr>"
        f"<tr><td class='l'>bytes reclaimed by checkpoints</td>"
        f"<td>{reclaimed:,.0f}</td></tr>"
        f"<tr><td class='l'>un-checkpointed WAL backlog (bytes)</td>"
        f"<td>{max(0, appended - reclaimed):,.0f}</td></tr>"
        "</table>"
    )

    # -- progress ------------------------------------------------------------
    out.append("<h2>Progress</h2>")
    progress = _progress.snapshot()
    if progress["active"]:
        out.append(
            "<table><tr><th class='l'>operation</th><th>done</th><th>total</th>"
            "<th class='l'>bar</th><th>rate/s</th><th>ETA</th></tr>"
        )
        for op in progress["active"]:
            pct = op["percent"]
            bar = (
                f"<span class='bar'><span style='width:{pct:.0f}%'></span></span>"
                if pct is not None
                else "<span class='muted'>?</span>"
            )
            eta = f"{op['eta_s']:.0f}s" if op["eta_s"] is not None else "–"
            out.append(
                f"<tr><td class='l'>{_esc(op['name'])}</td>"
                f"<td>{op['done']:,}</td>"
                f"<td>{op['total'] if op['total'] is not None else '?'}</td>"
                f"<td class='l'>{bar}</td><td>{op['rate_per_s']:,.0f}</td>"
                f"<td>{eta}</td></tr>"
            )
        out.append("</table>")
    else:
        out.append("<p class='muted'>no operations in flight</p>")
    if progress["recent"]:
        out.append("<p class='muted'>recently finished: ")
        out.append(", ".join(
            f"{_esc(op['name'])} ({op['done']:,} in {op['elapsed_s']}s"
            + ("" if op["ok"] else ", FAILED") + ")"
            for op in progress["recent"][:6]
        ))
        out.append("</p>")

    # -- slow queries --------------------------------------------------------
    out.append("<h2>Recent slow queries</h2>")
    slow = _logging.tail(10, event="query.slow")
    if slow:
        out.append(
            "<table><tr><th class='l'>ts</th><th class='l'>query</th>"
            "<th>seconds</th><th>rows</th></tr>"
        )
        for record in reversed(slow):
            out.append(
                f"<tr><td class='l'>{_esc(record.get('ts', ''))}</td>"
                f"<td class='l'>{_esc(record.get('query', ''))}</td>"
                f"<td>{record.get('seconds', 0)}</td>"
                f"<td>{record.get('rows', 0)}</td></tr>"
            )
        out.append("</table>")
    else:
        out.append("<p class='muted'>none in the log ring</p>")

    out.append("</body></html>")
    return "".join(out)


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one request; server state lives on ``self.server``."""

    server: "TelemetryServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through the structured logger instead of stderr.
        _logging.debug("obs.server.request", detail=format % args)

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: Any) -> None:
        self._send(
            status,
            "application/json; charset=utf-8",
            json.dumps(body, indent=2, sort_keys=True, default=str) + "\n",
        )

    # -- routes -------------------------------------------------------------

    def _endpoints(self) -> list[str]:
        """Every route this server answers (the / index and 404 contract)."""
        endpoints = [
            "/statusz",
            "/metrics",
            "/healthz",
            "/alertz",
            "/progressz",
            "/varz",
            "/tracez",
            "/logz",
            "/topz",
            "/profilez",
        ]
        if self.server.query_service is not None:
            endpoints.append("/query")
        return endpoints

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        _count_request(path)
        try:
            if path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(_metrics.snapshot())
                    + _workload.render_prometheus_workload(),
                )
            elif path == "/healthz":
                status, body = _health_payload(
                    self.server.store_dir,
                    self.server.query_service,
                    ttl_s=self.server.health_ttl_s,
                    scrubber=self.server.scrubber,
                )
                self._send_json(status, body)
            elif path == "/query":
                self._query(parse_qs(parsed.query))
            elif path == "/varz":
                self._send_json(200, _metrics.snapshot())
            elif path == "/tracez":
                roots = _tracing.finished_spans()
                self._send_json(
                    200, {"spans": [root.to_dict() for root in roots]}
                )
            elif path == "/logz":
                self._send_json(200, self._logz(parse_qs(parsed.query)))
            elif path == "/progressz":
                self._send_json(200, _progress.snapshot())
            elif path == "/alertz":
                self._alertz()
            elif path == "/statusz":
                self._send(
                    200,
                    "text/html; charset=utf-8",
                    _statusz_html(
                        store_dir=self.server.store_dir,
                        slo_engine=self.server.slo_engine,
                        query_service=self.server.query_service,
                    ),
                )
            elif path == "/topz":
                self._topz(parse_qs(parsed.query))
            elif path == "/profilez":
                self._profilez(parse_qs(parsed.query))
            elif path == "/":
                self._send_json(
                    200,
                    {"service": "repro-telemetry", "endpoints": self._endpoints()},
                )
            else:
                self._send_json(
                    404,
                    {
                        "error": f"no such endpoint: {path}",
                        "endpoints": self._endpoints(),
                    },
                )
        except Exception as exc:  # pragma: no cover - defensive
            _logging.error("obs.server.error", path=path, error=repr(exc))
            self._send_json(500, {"error": repr(exc)})

    def _alertz(self) -> None:
        """SLO evaluation results, or an explicit disabled stub.

        The stub is HTTP 200 on purpose: "alerting is not configured" is
        an answer, not a server error, and pollers key off ``enabled``.
        """
        engine = self.server.slo_engine
        if engine is None:
            self._send_json(
                200,
                {
                    "enabled": False,
                    "reason": "no SLO engine attached "
                              "(serve-telemetry starts one when sampling runs)",
                    "rules": [],
                    "firing": [],
                },
            )
            return
        payload = engine.evaluate()
        payload["enabled"] = True
        self._send_json(200, payload)

    def _topz(self, params: dict[str, list[str]]) -> None:
        """The workload fingerprint table plus key-usage histograms."""

        def first(key: str) -> str | None:
            values = params.get(key)
            return values[0] if values else None

        sort_by = first("sort") or "calls"
        try:
            n = int(first("n") or 20)
        except ValueError as exc:
            self._send_json(400, {"error": f"bad parameter: {exc}"})
            return
        table = _workload.get_default_table()
        try:
            rows = table.top(n, sort_by=sort_by)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(
            200,
            {
                "sort": sort_by,
                "tracked": len(table),
                "maxsize": table.maxsize,
                "evicted_fingerprints": table.evicted_fingerprints,
                "evicted_calls": table.evicted_calls,
                "fingerprints": rows,
                "key_usage": _workload.get_default_key_usage().snapshot(),
            },
        )

    def _profilez(self, params: dict[str, list[str]]) -> None:
        """Drive the process-wide sampling profiler over HTTP."""

        def first(key: str) -> str | None:
            values = params.get(key)
            return values[0] if values else None

        profiler = _profiling.get_default_profiler()
        action = first("action")
        if first("format") == "collapsed":
            self._send(200, "text/plain; charset=utf-8", profiler.render_collapsed())
            return
        if action == "start":
            try:
                hz = int(h) if (h := first("hz")) else None
            except ValueError as exc:
                self._send_json(400, {"error": f"bad parameter: {exc}"})
                return
            try:
                profiler.start(hz=hz)
            except RuntimeError as exc:
                self._send_json(409, {"error": str(exc), **profiler.status()})
                return
        elif action == "stop":
            profiler.stop()
        elif action == "reset":
            profiler.reset()
        elif action is not None:
            self._send_json(
                400, {"error": f"unknown action: {action} (start|stop|reset)"}
            )
            return
        self._send_json(200, profiler.status())

    def _query(self, params: dict[str, list[str]]) -> None:
        """Run ``?q=`` through the attached query service; map typed errors."""
        service = self.server.query_service
        if service is None:
            self._send_json(
                404, {"error": "no query service attached (use repro serve-query)"}
            )
            return

        def first(key: str) -> str | None:
            values = params.get(key)
            return values[0] if values else None

        q = first("q")
        if not q:
            self._send_json(400, {"error": "missing required parameter: q"})
            return
        try:
            timeout_ms = float(t) if (t := first("timeout_ms")) else None
            max_rows = int(m) if (m := first("max_rows")) else None
        except ValueError as exc:
            self._send_json(400, {"error": f"bad parameter: {exc}"})
            return
        profile = first("profile") in ("1", "true", "yes")
        partial_ok = first("partial_ok") in ("1", "true", "yes")
        try:
            body = service.execute_request(
                q,
                timeout_ms=timeout_ms,
                max_rows=max_rows,
                profile=profile,
                partial=partial_ok,
            )
        except AdmissionRejected as exc:
            payload = json.dumps(
                {
                    "error": "admission-rejected",
                    "reason": exc.reason,
                    "retry_after_s": exc.retry_after_s,
                },
                indent=2,
                sort_keys=True,
            ).encode("utf-8")
            self.send_response(429)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Retry-After", str(max(1, round(exc.retry_after_s))))
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except QueryTimeout as exc:
            self._send_json(
                504,
                {
                    "error": "query-timeout",
                    "timeout_s": exc.timeout_s,
                    "rows_examined": exc.rows_examined,
                    "elapsed_s": round(exc.elapsed_s, 6),
                },
            )
        except QueryCancelled as exc:
            self._send_json(
                499,  # client closed request (nginx convention)
                {"error": "query-cancelled", "rows_examined": exc.rows_examined},
            )
        except BudgetExceeded as exc:
            self._send_json(
                422,
                {
                    "error": "budget-exceeded",
                    "budget": exc.budget,
                    "limit": exc.limit,
                    "used": exc.used,
                },
            )
        except QueryError as exc:
            self._send_json(400, {"error": "bad-query", "detail": str(exc)})
        else:
            # A degraded partial result is still a success, but the 206
            # marks it as incomplete for clients that only read status.
            self._send_json(206 if body.get("partial") else 200, body)

    @staticmethod
    def _logz(query: dict[str, list[str]]) -> dict[str, Any]:
        def first(key: str) -> str | None:
            values = query.get(key)
            return values[0] if values else None

        n_raw = first("n")
        records = _logging.tail(
            int(n_raw) if n_raw else None,
            level=first("level"),
            event=first("event"),
            trace_id=first("trace"),
        )
        return {"records": records}


class TelemetryServer:
    """Owns the HTTP server; optionally serves on a background thread.

    >>> server = TelemetryServer(port=0)      # ephemeral port
    >>> server.start()                        # background thread
    >>> server.port > 0
    True
    >>> server.stop()
    True
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        store_dir: str | None = None,
        query_service: Any = None,
        slo_engine: Any = None,
        scrubber: Any = None,
        health_ttl_s: float = DEFAULT_HEALTH_TTL_S,
    ):
        self.store_dir = str(store_dir) if store_dir is not None else None
        #: Optional :class:`repro.resilience.QueryService` behind /query
        #: (duck-typed here so the obs layer stays dependency-light).
        self.query_service = query_service
        #: Optional :class:`repro.obs.slo.SLOEngine` behind /alertz and the
        #: /statusz alerts section (duck-typed: anything with .evaluate()).
        self.slo_engine = slo_engine
        #: Optional :class:`repro.storage.scrub.Scrubber` (duck-typed:
        #: anything with ``.last_verdict()``) — when it has a verdict,
        #: /healthz serves that instead of running fsck inline.
        self.scrubber = scrubber
        #: Seconds an inline-fsck /healthz verdict is cached (0 disables).
        self.health_ttl_s = health_ttl_s
        self._httpd = ThreadingHTTPServer((host, port), _TelemetryHandler)
        self._httpd.daemon_threads = True
        # Handlers reach server state through ``self.server``.
        self._httpd.store_dir = self.store_dir  # type: ignore[attr-defined]
        self._httpd.query_service = query_service  # type: ignore[attr-defined]
        self._httpd.slo_engine = slo_engine  # type: ignore[attr-defined]
        self._httpd.scrubber = scrubber  # type: ignore[attr-defined]
        self._httpd.health_ttl_s = health_ttl_s  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        _logging.info(
            "obs.server.start", host=self.host, port=self.port, store=self.store_dir
        )

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self._httpd.server_close()

    def stop(self) -> bool:
        """Shut down and join the serving thread.

        Returns ``True`` on a clean stop.  A thread that outlives the
        join timeout is propagated instead of silently leaked: a warning
        event (``obs.server.stop_timeout``) and
        ``obs.shutdown.join_timeout{component=server}`` record it, and
        ``False`` is returned so callers can fail loudly.
        """
        self._httpd.shutdown()
        leaked = False
        if self._thread is not None:
            self._thread.join(timeout=_STOP_JOIN_TIMEOUT_S)
            leaked = self._thread.is_alive()
            if leaked:
                _logging.warn(
                    "obs.server.stop_timeout",
                    thread=self._thread.name,
                    timeout_s=_STOP_JOIN_TIMEOUT_S,
                )
                _metrics.counter("obs.shutdown.join_timeout", component="server").inc()
            self._thread = None
        self._httpd.server_close()
        _logging.info("obs.server.stop", host=self.host, port=self.port, clean=not leaked)
        return not leaked

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
