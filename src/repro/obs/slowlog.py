"""Slow-query log: JSONL capture of queries over a latency threshold.

A :class:`SlowQueryLog` records every query whose end-to-end execution
time reaches ``threshold_s``.  Each entry is one JSON object carrying
everything needed to diagnose the query after the fact::

    {"ts": "2026-08-06T12:00:00.123Z", "trace_id": "a1b2c3d4e5f60001",
     "fingerprint": "9c0f3ad81b2e",
     "query": "year >= 1900 ORDER BY year",
     "plan": "INDEX RANGE (btree) year in [1900, +inf)\\nORDER BY year ASC",
     "plan_cached": true, "rows": 271, "rows_examined": 271,
     "seconds": 0.1834, "profile": {"plan": ..., "tree": {"op": "sort", ...}}}

``trace_id`` is the id bound when the query ran (see
:mod:`repro.obs.logging`), so the entry joins the query's span tree and
its log lines.  An entry describes the one execution that crossed the
threshold: :class:`~repro.query.executor.QueryEngine` never runs a
query again to log it.  ``rows_examined`` counts the rows its access
path yielded, and ``profile`` is its EXPLAIN ANALYZE operator tree,
present when that execution ran with ``profile=True``.

Entries land in an in-memory ring (:meth:`SlowQueryLog.entries`) and,
when the log has a ``path``, in a JSONL file with size-based rotation:
when the file would exceed ``max_bytes``, it is rotated to ``<path>.1``
(existing rotations shift up, the oldest beyond ``keep`` is deleted) and
a fresh file starts.  Every recorded entry also emits a ``query.slow``
WARN log event so slow queries surface in the ordinary log stream.

Metric names (catalogued in ``docs/observability.md``):
``query.slowlog.count``, ``query.slowlog.rotations``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.obs import logging as _logging
from repro.obs import metrics as _metrics

__all__ = ["SlowQueryLog", "DEFAULT_THRESHOLD_S", "read_slow_log"]

#: Default latency threshold: 100 ms.
DEFAULT_THRESHOLD_S = 0.100

#: Default rotation size (bytes) and retained rotation count.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024
DEFAULT_KEEP = 3

_SLOW_COUNT = _metrics.counter("query.slowlog.count")
_SLOW_ROTATIONS = _metrics.counter("query.slowlog.rotations")


def _now_iso() -> str:
    return (
        datetime.now(timezone.utc)
        .isoformat(timespec="milliseconds")
        .replace("+00:00", "Z")
    )


class SlowQueryLog:
    """Capture queries at or over a latency threshold.

    Parameters
    ----------
    path:
        JSONL file to persist entries to; ``None`` keeps entries only in
        the in-memory ring.
    threshold_s:
        Executions taking at least this many seconds are recorded.
    max_bytes / keep:
        Rotation policy for the JSONL file (see module docstring).
    capacity:
        In-memory ring size.
    """

    def __init__(
        self,
        path: Path | str | None = None,
        *,
        threshold_s: float = DEFAULT_THRESHOLD_S,
        max_bytes: int = DEFAULT_MAX_BYTES,
        keep: int = DEFAULT_KEEP,
        capacity: int = 128,
    ):
        if threshold_s < 0:
            raise ValueError(f"threshold_s must be >= 0, got {threshold_s}")
        if max_bytes < 1 or keep < 1 or capacity < 1:
            raise ValueError("max_bytes, keep, and capacity must all be >= 1")
        self.path = Path(path) if path is not None else None
        self.threshold_s = float(threshold_s)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(
        self,
        *,
        query: str,
        plan: str,
        plan_cached: bool,
        rows: int,
        rows_examined: int,
        seconds: float,
        profile: Any = None,
        trace_id: str | None = None,
        fingerprint: str | None = None,
    ) -> dict[str, Any]:
        """Record one slow execution; returns the entry dict.

        ``rows_examined`` is the rows the execution's access path
        yielded.  ``profile`` is either ``None``, an operator-tree dict,
        or any object with a ``to_dict()`` (a ``QueryProfile``/``OpProfile``).
        ``fingerprint`` is the workload fingerprint of the query shape
        (see :mod:`repro.query.fingerprint`), joining the entry to the
        aggregate row in ``repro top`` / ``/topz``.  The caller is
        responsible for the threshold check — the log records whatever
        it is handed.
        """
        entry: dict[str, Any] = {
            "ts": _now_iso(),
            "trace_id": trace_id or _logging.current_trace_id(),
            "query": query,
            "plan": plan,
            "plan_cached": bool(plan_cached),
            "rows": int(rows),
            "rows_examined": int(rows_examined),
            "seconds": round(float(seconds), 6),
        }
        if fingerprint is not None:
            entry["fingerprint"] = fingerprint
        if profile is not None:
            entry["profile"] = profile.to_dict() if hasattr(profile, "to_dict") else profile
        self._ring.append(entry)
        _SLOW_COUNT.inc()
        _logging.warn(
            "query.slow",
            query=query,
            seconds=entry["seconds"],
            rows=entry["rows"],
            plan_cached=entry["plan_cached"],
            threshold_s=self.threshold_s,
        )
        if self.path is not None:
            line = json.dumps(entry, ensure_ascii=False, default=str) + "\n"
            with self._lock:
                self._rotate_if_needed(len(line.encode("utf-8")))
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)
        return entry

    def entries(self) -> list[dict[str, Any]]:
        """Recorded entries in the in-memory ring, oldest first."""
        return list(self._ring)

    def reset(self) -> None:
        """Drop the in-memory ring (persisted files are untouched)."""
        self._ring.clear()

    # -- rotation ----------------------------------------------------------

    def rotated_path(self, n: int) -> Path:
        """Path of the ``n``-th rotation (1 = most recent)."""
        assert self.path is not None
        return self.path.with_name(f"{self.path.name}.{n}")

    def _rotate_if_needed(self, incoming_bytes: int) -> None:
        assert self.path is not None
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0 or size + incoming_bytes <= self.max_bytes:
            return
        # Shift existing rotations up; the one beyond ``keep`` falls off.
        oldest = self.rotated_path(self.keep)
        if oldest.exists():
            oldest.unlink()
        for n in range(self.keep - 1, 0, -1):
            src = self.rotated_path(n)
            if src.exists():
                os.replace(src, self.rotated_path(n + 1))
        os.replace(self.path, self.rotated_path(1))
        _SLOW_ROTATIONS.inc()


def read_slow_log(path: Path | str) -> list[dict[str, Any]]:
    """Parse a slow-log JSONL file (malformed/torn lines skipped)."""
    return _logging.read_jsonl(path)
