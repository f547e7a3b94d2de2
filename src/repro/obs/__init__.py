"""repro.obs — zero-dependency observability: metrics, spans, logs, serving.

The measurement substrate for every hot path in the engine, plus the
serving layer that makes it operable from outside the process:

``metrics``
    :class:`MetricsRegistry` of counters / gauges / fixed-bucket
    histograms, a process-global default registry, and a ``@timed``
    decorator.  Instrumented modules cache series handles at import time;
    a disabled registry reduces every hook to one flag check.
``tracing``
    Nestable :class:`Span` context managers collected by a
    :class:`Tracer` with ring-buffer retention of finished root spans.
``logging``
    Structured JSON log events with severity levels, per-event rate
    limiting, and trace-ID correlation (``obs.trace()``, held in a
    ``contextvars`` context) joining log lines to spans and slow-log
    entries.
``slowlog``
    JSONL slow-query log (query text, plan, ``plan_cached``, rows,
    EXPLAIN ANALYZE profile) with size-based rotation.
``export`` / ``promexport``
    Snapshot renderers: plain text, JSON, JSON-lines, and Prometheus
    text exposition (one renderer behind both the CLI and ``/metrics``).
``server``
    Stdlib HTTP telemetry daemon (``repro serve-telemetry``) serving
    ``/metrics``, ``/healthz``, ``/varz``, ``/tracez``, ``/logz``.
``timeseries``
    Fixed-interval on-disk metric snapshots for windowed rates
    (``repro stats --metrics --since``).

Quick use::

    from repro import obs

    obs.counter("my.counter").inc()
    with obs.trace() as trace_id:
        with obs.span("my.phase", items=10):
            obs.log_event("my.event", items=10)
    print(obs.export.render_text(obs.metrics_snapshot()))

``obs.set_enabled(False)`` turns metrics, tracing, and logging off
process-wide (each can also be toggled individually via its own module).
The full metric-name and span catalogue — a public contract — is
documented in ``docs/observability.md``; operating the serving layer is
covered in ``docs/operations.md``.
"""

from __future__ import annotations

from typing import Any

from repro.obs import (
    export,
    logging,
    metrics,
    profiling,
    progress,
    promexport,
    slo,
    slowlog,
    timeseries,
    tracing,
    workload,
)
from repro.obs.logging import JsonLogger, current_trace_id, new_trace_id, trace
from repro.obs.logging import log as log_event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_default_registry,
    histogram,
    timed,
)
from repro.obs.profiling import SamplingProfiler, get_default_profiler
from repro.obs.promexport import render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.workload import (
    KeyUsageTable,
    WorkloadTable,
    get_default_key_usage,
    get_default_table,
    render_prometheus_workload,
)
from repro.obs.progress import ProgressBar, ProgressRegistry, ProgressTracker
from repro.obs.slo import SLOEngine
from repro.obs.timeseries import TimeSeriesLog, TimeSeriesRecorder
from repro.obs.tracing import (
    Span,
    Tracer,
    finished_spans,
    get_default_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "JsonLogger",
    "ProgressBar",
    "ProgressRegistry",
    "ProgressTracker",
    "SLOEngine",
    "SamplingProfiler",
    "SlowQueryLog",
    "WorkloadTable",
    "KeyUsageTable",
    "TimeSeriesLog",
    "TimeSeriesRecorder",
    "counter",
    "gauge",
    "histogram",
    "timed",
    "span",
    "trace",
    "log_event",
    "new_trace_id",
    "current_trace_id",
    "render_prometheus",
    "render_prometheus_workload",
    "get_default_registry",
    "get_default_tracer",
    "get_default_profiler",
    "get_default_table",
    "get_default_key_usage",
    "finished_spans",
    "metrics_snapshot",
    "set_enabled",
    "is_enabled",
    "reset",
    "export",
    "metrics",
    "tracing",
    "logging",
    "slowlog",
    "promexport",
    "profiling",
    "progress",
    "slo",
    "timeseries",
    "workload",
]


def metrics_snapshot() -> dict[str, Any]:
    """Snapshot of the default metrics registry."""
    return metrics.snapshot()


def set_enabled(flag: bool) -> None:
    """Enable/disable default metrics registry, tracer, logger, and the
    workload-attribution tables (the sampling profiler has its own
    explicit start/stop lifecycle and is not touched)."""
    metrics.set_enabled(flag)
    tracing.set_enabled(flag)
    logging.set_enabled(flag)
    workload.set_enabled(flag)


def is_enabled() -> bool:
    """True when any of the default registry / tracer / logger is enabled."""
    return metrics.is_enabled() or tracing.is_enabled() or logging.is_enabled()


def reset() -> None:
    """Zero default-registry series, drop retained spans, log records,
    progress trackers, and workload-attribution aggregates."""
    metrics.reset()
    tracing.reset()
    logging.reset()
    progress.reset()
    workload.reset()
