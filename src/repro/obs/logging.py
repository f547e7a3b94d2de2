"""Structured JSON logging with trace correlation and a ring-buffer tail.

Every log event is one JSON object: a wall-clock timestamp, a severity
level, a dotted event name, the current **trace id** (when one is
bound), and arbitrary key/value fields::

    {"ts": "2026-08-06T12:00:00.123Z", "level": "info",
     "event": "storage.checkpoint", "trace_id": "a1b2c3d4e5f60001",
     "records": 271, "segments_removed": 2}

A :class:`JsonLogger` keeps the most recent events in a bounded ring
buffer (readable via :meth:`JsonLogger.tail`, the ``repro logs`` CLI, and
the telemetry server's ``/logz``), and can mirror every event to a text
stream and/or a JSONL file sink.

Design constraints (shared with the rest of ``repro.obs``, CI-enforced):

* standard library only, importable from every layer;
* **durations** stay monotonic — the only wall clock here stamps event
  timestamps, which genuinely are wall-clock quantities (operators
  correlate them with external systems); rate-limiter bookkeeping uses
  :func:`time.perf_counter`;
* near-no-op when disabled — one flag check; below-level events cost one
  dict lookup and one compare;
* rate-limited emission — a per-event-name token bucket (default
  :data:`DEFAULT_RATE_LIMIT` events/second) bounds the cost of a hot
  loop logging in a tight cycle; drops are counted in
  ``obs.log.dropped`` so silence is visible.

Trace correlation
-----------------

:func:`trace` binds a trace id to the current context (a
:class:`contextvars.ContextVar`) for the duration of a ``with`` block;
every event logged inside carries it, nested blocks inherit it, work run
in a copy of the context (a sharded store's write pool) carries it too,
and instrumented layers stamp the same id onto
spans (``trace_id`` attribute) and slow-query-log entries — so one slow
query can be joined across its log lines, its span tree, and its slow-log
entry.  Trace ids are process-unique: a random per-process prefix plus an
atomic sequence number (no per-call ``os.urandom`` on the hot path).

Metric names (catalogued in ``docs/observability.md``):
``obs.log.emitted``, ``obs.log.dropped``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from datetime import datetime, timezone
from typing import Any, TextIO

from repro.obs import metrics as _metrics

__all__ = [
    "LEVELS",
    "DEFAULT_CAPACITY",
    "DEFAULT_RATE_LIMIT",
    "JsonLogger",
    "get_default_logger",
    "log",
    "debug",
    "info",
    "warn",
    "error",
    "tail",
    "trace",
    "current_trace_id",
    "new_trace_id",
    "set_enabled",
    "is_enabled",
    "reset",
    "read_jsonl",
    "format_event",
]

#: Severity names in escalating order of importance.
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}

#: Default number of events retained in a logger's ring buffer.
DEFAULT_CAPACITY = 1024

#: Default per-event-name emission budget (events/second); <= 0 disables
#: rate limiting entirely.
DEFAULT_RATE_LIMIT = 200.0

_EMITTED = _metrics.counter("obs.log.emitted")
_DROPPED = _metrics.counter("obs.log.dropped")


# -- trace-id context --------------------------------------------------------

#: Random per-process prefix + atomic sequence = unique, cheap trace ids.
_TRACE_PREFIX = os.urandom(4).hex()
_TRACE_SEQ = itertools.count(1)

_TRACE_ID: ContextVar[str | None] = ContextVar("repro.obs.trace_id", default=None)


def new_trace_id() -> str:
    """A fresh process-unique trace id (16 hex chars)."""
    return f"{_TRACE_PREFIX}{next(_TRACE_SEQ):08x}"


def current_trace_id() -> str | None:
    """The trace id bound to this context, or ``None`` outside any trace."""
    return _TRACE_ID.get()


class trace:
    """Bind a trace id to this context for the duration of the block.

    With no argument, reuses the enclosing trace's id when one is bound
    (so nested instrumented layers join the same trace) and mints a
    fresh id otherwise.  ``__enter__`` yields the bound id.

    A hand-rolled context manager rather than ``@contextmanager``: this
    sits on the per-query hot path and the generator protocol costs more
    than the work it wraps.

    >>> with trace() as tid:
    ...     assert current_trace_id() == tid
    ...     with trace() as inner:      # nested: same trace
    ...         assert inner == tid
    >>> current_trace_id() is None
    True
    """

    __slots__ = ("_tid", "_token")

    def __init__(self, trace_id: str | None = None) -> None:
        self._tid = trace_id

    def __enter__(self) -> str:
        tid = self._tid or _TRACE_ID.get() or new_trace_id()
        self._token = _TRACE_ID.set(tid)
        return tid

    def __exit__(self, *_exc: object) -> None:
        _TRACE_ID.reset(self._token)


def _now_iso() -> str:
    """Wall-clock UTC timestamp, ISO-8601 with a ``Z`` suffix."""
    return (
        datetime.now(timezone.utc)
        .isoformat(timespec="milliseconds")
        .replace("+00:00", "Z")
    )


class JsonLogger:
    """Structured JSON logger: ring buffer + optional stream/file sinks.

    Parameters
    ----------
    capacity:
        Ring-buffer size (most recent events retained).
    level:
        Minimum severity emitted (``"debug"``/``"info"``/``"warn"``/
        ``"error"``).  Events below it cost one compare.
    rate_limit_per_s:
        Per-event-name token bucket budget; ``<= 0`` disables limiting.
    stream:
        Optional text stream mirrored with one JSON line per event.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        level: str = "info",
        rate_limit_per_s: float = DEFAULT_RATE_LIMIT,
        stream: TextIO | None = None,
        enabled: bool = True,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; expected one of {sorted(LEVELS)}")
        self.capacity = capacity
        self._level = LEVELS[level]
        self._level_name = level
        self.rate_limit_per_s = float(rate_limit_per_s)
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._stream = stream
        self._file: TextIO | None = None
        self._file_path: str | None = None
        #: event name -> [tokens, last_refill_perf_counter]
        self._buckets: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._enabled = enabled

    # -- enable / disable / level -----------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def level(self) -> str:
        return self._level_name

    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; expected one of {sorted(LEVELS)}")
        self._level = LEVELS[level]
        self._level_name = level

    # -- sinks -------------------------------------------------------------

    def attach_file(self, path: Any) -> None:
        """Mirror every emitted event to ``path`` as one JSON line each.

        The file opens in append mode and each line is flushed, so an
        external ``repro logs <path>`` (or ``tail -f``) sees events live.
        """
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = open(path, "a", encoding="utf-8")
            self._file_path = str(path)

    def detach_file(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
                self._file_path = None

    @property
    def file_path(self) -> str | None:
        """Path of the attached JSONL sink, or ``None``."""
        return self._file_path

    # -- emission ----------------------------------------------------------

    def would_log(self, level: str) -> bool:
        """Whether an event at ``level`` would pass the enabled/level gates.

        Hot paths use this to skip marshalling keyword fields for events
        that :meth:`log` would discard anyway (rate limiting still applies
        at emission time and is not consulted here).
        """
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}; expected one of {sorted(LEVELS)}")
        return self._enabled and severity >= self._level

    def log(self, event: str, level: str = "info", **fields: Any) -> None:
        """Emit one structured event; no-op when disabled or below level."""
        if not self._enabled:
            return
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}; expected one of {sorted(LEVELS)}")
        if severity < self._level:
            return
        if not self._allow(event):
            _DROPPED.inc()
            return
        record: dict[str, Any] = {"ts": _now_iso(), "level": level, "event": event}
        tid = current_trace_id()
        if tid is not None:
            record["trace_id"] = tid
        if fields:
            record.update(fields)
        self._ring.append(record)
        _EMITTED.inc()
        if self._stream is not None or self._file is not None:
            line = json.dumps(record, ensure_ascii=False, default=str)
            with self._lock:
                if self._stream is not None:
                    self._stream.write(line + "\n")
                if self._file is not None:
                    self._file.write(line + "\n")
                    self._file.flush()

    def debug(self, event: str, **fields: Any) -> None:
        self.log(event, "debug", **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(event, "info", **fields)

    def warn(self, event: str, **fields: Any) -> None:
        self.log(event, "warn", **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(event, "error", **fields)

    def _allow(self, event: str) -> bool:
        """Token-bucket admission per event name (monotonic clock)."""
        limit = self.rate_limit_per_s
        if limit <= 0:
            return True
        now = time.perf_counter()
        with self._lock:
            bucket = self._buckets.get(event)
            if bucket is None:
                self._buckets[event] = [limit - 1.0, now]
                return True
            tokens = min(limit, bucket[0] + (now - bucket[1]) * limit)
            bucket[1] = now
            if tokens < 1.0:
                bucket[0] = tokens
                return False
            bucket[0] = tokens - 1.0
            return True

    # -- reading back ------------------------------------------------------

    def tail(
        self,
        n: int | None = None,
        *,
        level: str | None = None,
        event: str | None = None,
        trace_id: str | None = None,
    ) -> list[dict[str, Any]]:
        """The most recent events, oldest first.

        ``level`` is a *minimum* severity; ``event`` matches the event
        name exactly or as a dotted prefix (``"storage"`` matches
        ``"storage.checkpoint"``); ``trace_id`` matches exactly.  ``n``
        caps the result to the newest ``n`` events after filtering.
        """
        records = list(self._ring)
        if level is not None:
            if level not in LEVELS:
                raise ValueError(f"unknown level {level!r}")
            floor = LEVELS[level]
            records = [r for r in records if LEVELS.get(r.get("level", ""), 0) >= floor]
        if event is not None:
            prefix = event.rstrip(".")  # "query." filters like "query"
            records = [
                r
                for r in records
                if r.get("event") == prefix
                or str(r.get("event", "")).startswith(prefix + ".")
            ]
        if trace_id is not None:
            records = [r for r in records if r.get("trace_id") == trace_id]
        if n is not None and n >= 0:
            records = records[len(records) - min(n, len(records)):]
        return records

    def reset(self) -> None:
        """Drop the ring buffer and rate-limiter state (sinks stay attached)."""
        self._ring.clear()
        with self._lock:
            self._buckets.clear()

    def close(self) -> None:
        self.detach_file()


# -- reading and rendering persisted logs ------------------------------------


def read_jsonl(path: Any) -> list[dict[str, Any]]:
    """Parse a JSONL log file into event dicts (malformed lines skipped).

    Tolerating damage matters: the file may be mid-write when read, and a
    crash can leave a torn final line — both are normal for a tail tool.
    """
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def format_event(record: dict[str, Any]) -> str:
    """One aligned human-readable line for an event dict."""
    ts = record.get("ts", "-")
    level = str(record.get("level", "-")).upper()
    event = record.get("event", "-")
    tid = record.get("trace_id")
    extras = " ".join(
        f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}"
        for key, value in record.items()
        if key not in ("ts", "level", "event", "trace_id")
    )
    parts = [f"{ts}  {level:<5}  {event}"]
    if tid:
        parts.append(f"trace={tid}")
    if extras:
        parts.append(extras)
    return "  ".join(parts)


# -- process-global default logger -------------------------------------------

_DEFAULT_LOGGER = JsonLogger()


def get_default_logger() -> JsonLogger:
    """The process-global logger all built-in instrumentation reports to."""
    return _DEFAULT_LOGGER


def log(event: str, level: str = "info", **fields: Any) -> None:
    """Emit an event on the default logger."""
    _DEFAULT_LOGGER.log(event, level, **fields)


def would_log(level: str) -> bool:
    """Whether the default logger would emit at ``level`` (see :meth:`JsonLogger.would_log`)."""
    return _DEFAULT_LOGGER.would_log(level)


def debug(event: str, **fields: Any) -> None:
    _DEFAULT_LOGGER.log(event, "debug", **fields)


def info(event: str, **fields: Any) -> None:
    _DEFAULT_LOGGER.log(event, "info", **fields)


def warn(event: str, **fields: Any) -> None:
    _DEFAULT_LOGGER.log(event, "warn", **fields)


def error(event: str, **fields: Any) -> None:
    _DEFAULT_LOGGER.log(event, "error", **fields)


def tail(n: int | None = None, **filters: Any) -> list[dict[str, Any]]:
    """Tail of the default logger's ring buffer (see :meth:`JsonLogger.tail`)."""
    return _DEFAULT_LOGGER.tail(n, **filters)


def set_enabled(flag: bool) -> None:
    """Enable or disable the default logger."""
    if flag:
        _DEFAULT_LOGGER.enable()
    else:
        _DEFAULT_LOGGER.disable()


def is_enabled() -> bool:
    return _DEFAULT_LOGGER.enabled


def reset() -> None:
    """Drop the default logger's ring buffer and rate-limiter state."""
    _DEFAULT_LOGGER.reset()
