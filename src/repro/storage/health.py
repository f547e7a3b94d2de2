"""Per-shard health state machine: ``healthy → degraded → quarantined →
repairing → healthy``.

A :class:`ShardHealthMachine` tracks one state per shard of a
:class:`~repro.storage.sharded.ShardedStore` and drives it from
*classified* errors:

* **corruption** (:class:`~repro.storage.pages.PageCorruptionError`,
  :class:`~repro.errors.CorruptLogError`) — the shard's on-disk state is
  damaged; serving it risks wrong answers, so one observation quarantines
  immediately;
* **transient** (``EINTR``/``EAGAIN``/``EWOULDBLOCK`` or an exception
  flagged ``transient``, the same classification
  :func:`repro.resilience.retry.is_transient` uses) — counted against the
  error-rate window but never quarantines on its own;
* **io** — any other I/O or storage failure; a shard whose recent error
  rate crosses ``degraded_threshold`` degrades, and past
  ``quarantine_threshold`` it is quarantined.

The error rate is measured over a sliding window of the last
``window`` outcomes per shard, and thresholds only engage once
``min_events`` outcomes have been seen — a single hiccup on a cold shard
is not a trend.  A degraded shard heals itself: ``recovery_successes``
consecutive successes return it to ``healthy``.  Quarantine is sticky —
only an explicit :meth:`readmit` (after repair) or operator action
clears it.

States map to the ``storage.shard.health`` gauge (one series per shard
label) as ``0=healthy 1=degraded 2=quarantined 3=repairing``, and the
machine serializes to/from the shard manifest (``shards.json``) so a
quarantined shard *stays* quarantined across a process restart — a
reopened store must not silently serve a shard that was pulled for
corruption.  An interrupted repair (process died mid-repair) loads back
as ``quarantined``: the repair must be re-run, not assumed.

The machine is thread-safe; queries, shard-parallel writes and the
background scrubber feed it concurrently.  ``on_change`` (when set) fires outside
the per-call fast path whenever a shard's *state* changes — the sharded
store uses it to persist the new state into the manifest.
"""

from __future__ import annotations

import errno
import threading
from collections import deque
from typing import Any, Callable, Mapping

from repro.obs import logging as _logging
from repro.obs import metrics as _metrics

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "REPAIRING",
    "HEALTH_LEVELS",
    "ShardHealthMachine",
    "classify_error",
]

#: The four states, as stable strings (manifest + JSON surfaces).
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
REPAIRING = "repairing"

#: State → numeric level exported on the ``storage.shard.health`` gauge.
HEALTH_LEVELS: dict[str, int] = {
    HEALTHY: 0,
    DEGRADED: 1,
    QUARANTINED: 2,
    REPAIRING: 3,
}

_STATES = frozenset(HEALTH_LEVELS)

#: OS error numbers that mean "try again" rather than "broken"
#: (mirrors :data:`repro.resilience.retry._TRANSIENT_ERRNOS`; kept local
#: so the storage layer never imports the resilience layer).
_TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.EWOULDBLOCK})

_TRANSITIONS = _metrics.counter("storage.shard.health.transitions")


def classify_error(exc: BaseException) -> str:
    """``"corruption"``, ``"transient"``, or ``"io"`` for ``exc``.

    Imported lazily to keep this module importable without dragging the
    paged-storage stack in (pages ← bufferpool ← …).
    """
    from repro.errors import CorruptLogError
    from repro.storage.pages import PageCorruptionError

    if isinstance(exc, (PageCorruptionError, CorruptLogError)):
        return "corruption"
    if getattr(exc, "transient", False):
        return "transient"
    if isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS:
        return "transient"
    return "io"


class _ShardState:
    """Mutable per-shard record; guarded by the machine's lock."""

    __slots__ = (
        "state",
        "reason",
        "outcomes",
        "errors",
        "successes",
        "consecutive_ok",
    )

    def __init__(self) -> None:
        self.state = HEALTHY
        self.reason = ""
        #: Sliding window of recent outcomes (True = error).
        self.outcomes: deque[bool] = deque()
        self.errors = 0  # errors currently inside the window
        self.successes = 0  # lifetime counters, for introspection
        self.consecutive_ok = 0


class ShardHealthMachine:
    """Health states for ``shard_count`` shards, driven by outcomes.

    Parameters
    ----------
    shard_count:
        Number of shards tracked (indexes ``0 .. shard_count-1``).
    window:
        Sliding-window length (outcomes per shard) the error rate is
        measured over.
    min_events:
        Outcomes required in the window before rate thresholds engage.
    degraded_threshold / quarantine_threshold:
        Windowed error-rate bounds for ``healthy → degraded`` and
        ``degraded → quarantined``.
    recovery_successes:
        Consecutive successes that heal ``degraded → healthy``.
    on_change:
        ``fn(shard, old_state, new_state, reason)`` called (under the
        machine lock) on every state transition — the persistence hook.

    >>> machine = ShardHealthMachine(2)
    >>> machine.state(0)
    'healthy'
    >>> machine.quarantine(0, "operator")
    >>> machine.state(0), machine.is_serving(0)
    ('quarantined', False)
    """

    def __init__(
        self,
        shard_count: int,
        *,
        window: int = 20,
        min_events: int = 5,
        degraded_threshold: float = 0.3,
        quarantine_threshold: float = 0.7,
        recovery_successes: int = 5,
        on_change: Callable[[int, str, str, str], None] | None = None,
    ):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if not 0.0 < degraded_threshold <= quarantine_threshold <= 1.0:
            raise ValueError(
                "need 0 < degraded_threshold <= quarantine_threshold <= 1"
            )
        self.shard_count = shard_count
        self.window = window
        self.min_events = min_events
        self.degraded_threshold = degraded_threshold
        self.quarantine_threshold = quarantine_threshold
        self.recovery_successes = recovery_successes
        self.on_change = on_change
        # Reentrant: on_change handlers (manifest persistence) call back
        # into to_dict() while the transition still holds the lock.
        self._lock = threading.RLock()
        self._shards = tuple(_ShardState() for _ in range(shard_count))
        self._gauges = tuple(
            _metrics.gauge("storage.shard.health", shard=str(i))
            for i in range(shard_count)
        )
        for gauge in self._gauges:
            gauge.set(HEALTH_LEVELS[HEALTHY])

    # -- reads -------------------------------------------------------------

    def state(self, shard: int) -> str:
        return self._shards[shard].state

    def reason(self, shard: int) -> str:
        return self._shards[shard].reason

    def is_serving(self, shard: int) -> bool:
        """Whether queries should fan out to ``shard`` (healthy or
        degraded — quarantined/repairing shards are skipped in partial
        mode and poison strict queries only if actually touched)."""
        return self._shards[shard].state in (HEALTHY, DEGRADED)

    def quarantined_shards(self) -> tuple[int, ...]:
        """Indexes currently quarantined or under repair."""
        return tuple(
            i
            for i, s in enumerate(self._shards)
            if s.state in (QUARANTINED, REPAIRING)
        )

    def rows(self) -> list[dict[str, Any]]:
        """One JSON-ready row per shard (``/healthz`` / ``/statusz``)."""
        with self._lock:
            return [
                {
                    "shard": i,
                    "state": s.state,
                    "reason": s.reason,
                    "window_errors": s.errors,
                    "window_events": len(s.outcomes),
                    "successes": s.successes,
                }
                for i, s in enumerate(self._shards)
            ]

    # -- outcome feed ------------------------------------------------------

    def record_success(self, shard: int) -> str:
        """Note a successful shard operation; may heal ``degraded``."""
        s = self._shards[shard]
        # Fast path: a healthy shard with an empty window pays two
        # attribute reads and no lock.
        if s.state == HEALTHY and not s.outcomes:
            s.successes += 1
            return HEALTHY
        with self._lock:
            s.successes += 1
            s.consecutive_ok += 1
            self._push(s, error=False)
            if (
                s.state == DEGRADED
                and s.consecutive_ok >= self.recovery_successes
            ):
                self._transition(shard, HEALTHY, "recovered")
            return s.state

    def record_error(self, shard: int, exc: BaseException, *, source: str = "") -> str:
        """Feed a classified failure; returns the (possibly new) state.

        Corruption quarantines immediately; transient and io errors are
        windowed.  Quarantined/repairing shards stay put — the error is
        counted but cannot transition further.
        """
        kind = classify_error(exc)
        with self._lock:
            s = self._shards[shard]
            s.consecutive_ok = 0
            self._push(s, error=True)
            reason = f"{kind}: {type(exc).__name__}: {exc}"
            if source:
                reason = f"[{source}] {reason}"
            if s.state in (QUARANTINED, REPAIRING):
                return s.state
            if kind == "corruption":
                self._transition(shard, QUARANTINED, reason)
                return s.state
            if len(s.outcomes) >= self.min_events:
                rate = s.errors / len(s.outcomes)
                if rate >= self.quarantine_threshold and s.state == DEGRADED:
                    self._transition(shard, QUARANTINED, reason)
                elif rate >= self.degraded_threshold and s.state == HEALTHY:
                    self._transition(shard, DEGRADED, reason)
            return s.state

    # -- operator / repair verbs ------------------------------------------

    def quarantine(self, shard: int, reason: str = "operator") -> None:
        """Force ``shard`` out of service (idempotent)."""
        with self._lock:
            if self._shards[shard].state != QUARANTINED:
                self._transition(shard, QUARANTINED, reason)

    def start_repair(self, shard: int) -> None:
        """Mark a quarantined shard as under repair."""
        with self._lock:
            state = self._shards[shard].state
            if state != QUARANTINED:
                raise ValueError(
                    f"shard {shard} is {state}, not quarantined; cannot repair"
                )
            self._transition(shard, REPAIRING, "repair started")

    def repair_failed(self, shard: int, reason: str) -> None:
        """Return a repairing shard to quarantine (repair did not stick)."""
        with self._lock:
            if self._shards[shard].state == REPAIRING:
                self._transition(shard, QUARANTINED, reason)

    def readmit(self, shard: int, reason: str = "readmitted") -> None:
        """Return a quarantined/repairing shard to service, with a clean
        window (its pre-quarantine error history is about state that no
        longer exists)."""
        with self._lock:
            s = self._shards[shard]
            s.outcomes.clear()
            s.errors = 0
            s.consecutive_ok = 0
            if s.state != HEALTHY:
                self._transition(shard, HEALTHY, reason)

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Manifest-ready snapshot: only non-healthy shards are recorded."""
        with self._lock:
            return {
                str(i): {"state": s.state, "reason": s.reason}
                for i, s in enumerate(self._shards)
                if s.state != HEALTHY
            }

    def load(self, doc: Mapping[str, Any] | None) -> None:
        """Restore persisted states (from the shard manifest).

        Unknown shards/states are ignored; a persisted ``repairing``
        loads as ``quarantined`` — the repair was interrupted and must be
        re-run before the shard serves again.
        """
        if not doc:
            return
        with self._lock:
            for key, entry in doc.items():
                try:
                    shard = int(key)
                except (TypeError, ValueError):
                    continue
                if not 0 <= shard < self.shard_count:
                    continue
                state = entry.get("state") if isinstance(entry, Mapping) else None
                if state not in _STATES:
                    continue
                if state == REPAIRING:
                    state = QUARANTINED
                if state != self._shards[shard].state:
                    reason = ""
                    if isinstance(entry, Mapping):
                        reason = str(entry.get("reason", ""))
                    self._transition(shard, state, reason or "persisted")

    # -- internals ---------------------------------------------------------

    def _push(self, s: _ShardState, *, error: bool) -> None:
        s.outcomes.append(error)
        if error:
            s.errors += 1
        if len(s.outcomes) > self.window:
            if s.outcomes.popleft():
                s.errors -= 1

    def _transition(self, shard: int, new_state: str, reason: str) -> None:
        s = self._shards[shard]
        old = s.state
        s.state = new_state
        s.reason = reason
        s.consecutive_ok = 0
        self._gauges[shard].set(HEALTH_LEVELS[new_state])
        _TRANSITIONS.inc()
        _logging.info(
            "storage.shard.health.transition",
            shard=shard,
            old=old,
            new=new_state,
            reason=reason,
        )
        if self.on_change is not None:
            self.on_change(shard, old, new_state, reason)
