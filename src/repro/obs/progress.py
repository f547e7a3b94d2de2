"""Progress tracking for long-running operations.

Checkpoints, paged bulk builds, fsck deep-verify walks, format
migrations, and sharded bulk writes are all O(dataset) — at corpus
scale they run for seconds to minutes with nothing to show for it.
This module gives each of them a :class:`ProgressTracker`: a
thread-safe done/total counter with a monotonic-clock rate and ETA,
registered in a process-global :class:`ProgressRegistry` so in-flight
work is observable from the outside (the telemetry daemon's
``/progressz``, ``repro progress``) while the operation itself can
render a live stderr bar (:class:`ProgressBar`, CLI ``--progress``).

Usage — the tracker is a context manager; exit finishes it and moves
it from the registry's *active* set to its bounded *recent* ring::

    from repro.obs import progress

    with progress.start("storage.checkpoint", total=len(records)) as op:
        for record in records:
            ...
            op.tick()

Design constraints (shared with the rest of ``repro.obs``):

* standard library only; importable from the storage layer;
* rates/ETAs use :func:`time.perf_counter` (monotonic) — the only wall
  clock stamps ``started_ts`` for operator display;
* cheap on the hot path: one lock + integer add per ``tick`` (batch
  ticks with ``tick(n)`` in tight loops), listeners rate-limit
  themselves;
* bounded: completed operations land in a fixed-size ring, so a
  long-lived process never grows without bound.

Metric names (catalogued in ``docs/observability.md``):
``obs.progress.operations``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from datetime import datetime, timezone
from typing import Any, Callable, TextIO

from repro.obs import metrics as _metrics

__all__ = [
    "ProgressTracker",
    "ProgressRegistry",
    "ProgressBar",
    "get_default_registry",
    "start",
    "snapshot",
    "reset",
]

_OPERATIONS = _metrics.counter("obs.progress.operations")

#: Completed operations retained by a registry for ``/progressz``.
DEFAULT_KEEP = 32


def _now_iso() -> str:
    return (
        datetime.now(timezone.utc)
        .isoformat(timespec="milliseconds")
        .replace("+00:00", "Z")
    )


class ProgressTracker:
    """Thread-safe done/total counter for one long-running operation.

    ``total`` may be ``None`` (unknown — e.g. a WAL replay of unknown
    length); rate still reports, percentage and ETA come back ``None``.
    Multiple worker threads may ``tick`` the same tracker concurrently
    (sharded fan-out ticks one tracker from every shard worker).
    """

    def __init__(
        self,
        name: str,
        total: int | None = None,
        *,
        registry: "ProgressRegistry | None" = None,
        **attrs: Any,
    ):
        self.name = name
        self.attrs = attrs
        self._total = total
        self._done = 0
        self._started = time.perf_counter()
        self._started_ts = _now_iso()
        self._finished: float | None = None
        self._ok = True
        self._registry = registry
        self._listeners: list[Callable[["ProgressTracker"], None]] = []
        self._lock = threading.Lock()

    # -- mutation ------------------------------------------------------------

    def tick(self, n: int = 1) -> None:
        """Advance ``done`` by ``n`` and notify listeners."""
        with self._lock:
            self._done += n
            listeners = self._listeners
        for listener in listeners:
            listener(self)

    def set_total(self, total: int | None) -> None:
        """(Re)set the expected total — for work sized mid-flight."""
        with self._lock:
            self._total = total

    def subscribe(self, listener: Callable[["ProgressTracker"], None]) -> None:
        """Call ``listener(tracker)`` on every tick and on finish."""
        with self._lock:
            self._listeners = self._listeners + [listener]

    def finish(self, ok: bool = True) -> None:
        """Mark the operation complete (idempotent) and deregister it."""
        with self._lock:
            if self._finished is not None:
                return
            self._finished = time.perf_counter()
            self._ok = ok
            listeners = self._listeners
        _OPERATIONS.inc()
        if self._registry is not None:
            self._registry._retire(self)
        for listener in listeners:
            listener(self)

    def __enter__(self) -> "ProgressTracker":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.finish(ok=exc_type is None)

    # -- introspection -------------------------------------------------------

    @property
    def done(self) -> int:
        return self._done

    @property
    def total(self) -> int | None:
        return self._total

    @property
    def finished(self) -> bool:
        return self._finished is not None

    def elapsed_s(self) -> float:
        end = self._finished if self._finished is not None else time.perf_counter()
        return end - self._started

    def rate_per_s(self) -> float:
        elapsed = self.elapsed_s()
        return self._done / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> float | None:
        """Seconds until done at the observed rate (None when unknowable)."""
        with self._lock:
            total, done = self._total, self._done
        if total is None or self._finished is not None:
            return None
        rate = self.rate_per_s()
        if rate <= 0:
            return None
        return max(0.0, (total - done) / rate)

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly view for ``/progressz`` and ``repro progress``."""
        with self._lock:
            total, done = self._total, self._done
        pct = (100.0 * done / total) if total else None
        eta = self.eta_s()
        doc: dict[str, Any] = {
            "name": self.name,
            "started_ts": self._started_ts,
            "done": done,
            "total": total,
            "percent": round(pct, 1) if pct is not None else None,
            "elapsed_s": round(self.elapsed_s(), 3),
            "rate_per_s": round(self.rate_per_s(), 1),
            "eta_s": round(eta, 1) if eta is not None else None,
            "finished": self._finished is not None,
            "ok": self._ok,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProgressTracker({self.name!r}, {self._done}/{self._total})"


class ProgressRegistry:
    """Process-global index of in-flight and recently finished trackers."""

    def __init__(self, *, keep: int = DEFAULT_KEEP):
        self._active: dict[int, ProgressTracker] = {}
        self._recent: deque[dict[str, Any]] = deque(maxlen=keep)
        self._lock = threading.Lock()

    def start(
        self, name: str, total: int | None = None, **attrs: Any
    ) -> ProgressTracker:
        """Create, register, and return a tracker for one operation."""
        tracker = ProgressTracker(name, total, registry=self, **attrs)
        with self._lock:
            self._active[id(tracker)] = tracker
        return tracker

    def _retire(self, tracker: ProgressTracker) -> None:
        with self._lock:
            self._active.pop(id(tracker), None)
            self._recent.append(tracker.snapshot())

    def active(self) -> list[ProgressTracker]:
        """In-flight trackers, oldest started first."""
        with self._lock:
            return sorted(self._active.values(), key=lambda t: t._started)

    def snapshot(self) -> dict[str, Any]:
        """``{"active": [...], "recent": [...]}``, recent newest-first."""
        with self._lock:
            active = sorted(self._active.values(), key=lambda t: t._started)
            recent = list(self._recent)
        return {
            "active": [tracker.snapshot() for tracker in active],
            "recent": recent[::-1],
        }

    def reset(self) -> None:
        """Forget all trackers (live operations keep their handles)."""
        with self._lock:
            self._active.clear()
            self._recent.clear()


class ProgressBar:
    """Live single-line stderr rendering of one tracker.

    Subscribe it to a tracker (``tracker.subscribe(bar)``); it re-renders
    at most every ``min_interval_s`` (monotonic clock) and prints a final
    newline-terminated line when the tracker finishes.  Rendering is a
    plain ``\\r`` rewrite — safe for any terminal, harmless in a pipe.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        width: int = 30,
        min_interval_s: float = 0.1,
    ):
        self._stream = stream if stream is not None else sys.stderr
        self._width = width
        self._min_interval = min_interval_s
        # ``None`` = never rendered: the first update always draws.  A 0.0
        # start would read as "rendered at boot" to the monotonic clock and
        # drop the first render on hosts up for less than the interval.
        self._last_render: float | None = None
        self._lock = threading.Lock()

    def __call__(self, tracker: ProgressTracker) -> None:
        now = time.perf_counter()
        final = tracker.finished
        with self._lock:
            if (
                not final
                and self._last_render is not None
                and now - self._last_render < self._min_interval
            ):
                return
            self._last_render = now
            self._stream.write("\r" + self.render(tracker))
            if final:
                self._stream.write("\n")
            self._stream.flush()

    def render(self, tracker: ProgressTracker) -> str:
        snap = tracker.snapshot()
        done, total = snap["done"], snap["total"]
        rate = snap["rate_per_s"]
        if total:
            filled = min(self._width, int(self._width * done / total))
            bar = "#" * filled + "-" * (self._width - filled)
            pct = snap["percent"] or 0.0
            line = f"{tracker.name}  [{bar}] {done}/{total} ({pct:.0f}%)  {rate:,.0f}/s"
            eta = snap["eta_s"]
            if eta is not None:
                line += f"  ETA {eta:.0f}s"
        else:
            line = f"{tracker.name}  {done} done  {rate:,.0f}/s"
        if tracker.finished:
            line += f"  done in {snap['elapsed_s']:.2f}s"
        return line


# -- process-global default registry -----------------------------------------

_DEFAULT_REGISTRY = ProgressRegistry()


def get_default_registry() -> ProgressRegistry:
    """The process-global registry all built-in operations report to."""
    return _DEFAULT_REGISTRY


def start(name: str, total: int | None = None, **attrs: Any) -> ProgressTracker:
    """Register a tracker on the default registry."""
    return _DEFAULT_REGISTRY.start(name, total, **attrs)


def snapshot() -> dict[str, Any]:
    """Snapshot of the default registry (``/progressz`` payload)."""
    return _DEFAULT_REGISTRY.snapshot()


def reset() -> None:
    """Forget all trackers on the default registry."""
    return _DEFAULT_REGISTRY.reset()
