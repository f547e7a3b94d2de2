"""Deadlines, cancellation tokens, and the per-query execution guard.

Long-running work threads a single :class:`Guard` through its row loops
and charges every row examined via :meth:`Guard.tick`.  A tick is one
integer add and one compare; hot loops additionally batch their ticks
(``tick(n)`` for a block of rows, clipped to the remaining row budget,
and :meth:`Guard.settle` for the rows of a block a consumer abandoned)
so an armed guard costs single-digit nanoseconds per row.  Only every
``stride`` rows (default 256) does the guard pay for the real checks:
wall-clock deadline and cooperative cancellation.  On violation the guard raises the matching typed error
(:class:`~repro.errors.QueryTimeout`,
:class:`~repro.errors.QueryCancelled`,
:class:`~repro.errors.BudgetExceeded`), each carrying partial-progress
stats (``rows_examined``, ``elapsed_s``) so callers — including EXPLAIN
ANALYZE — can report how far the query got before it was stopped.

All timing uses :func:`time.perf_counter` (monotonic); a deadline is an
*instant* on that clock, so one :class:`Deadline` can bound a whole
request across several operations (parse, plan, execute, serialize).

Metric names (catalogued in ``docs/observability.md``):
``resilience.deadline.timeouts``, ``resilience.deadline.cancelled``,
``resilience.budget.exceeded``.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics

__all__ = ["CancelToken", "Deadline", "Guard", "DEFAULT_CHECK_STRIDE"]

#: Rows between full deadline/cancellation checks (amortizes the clock
#: read; at typical scan rates this bounds overshoot to well under 1 ms).
DEFAULT_CHECK_STRIDE = 256

_TIMEOUTS = _metrics.counter("resilience.deadline.timeouts")
_CANCELLED = _metrics.counter("resilience.deadline.cancelled")
_BUDGET_EXCEEDED = _metrics.counter("resilience.budget.exceeded")


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    The requester calls :meth:`cancel` from any thread; the executing
    side polls :attr:`cancelled` (via :meth:`Guard.tick`) and unwinds
    with :class:`~repro.errors.QueryCancelled`.  Cancellation is sticky:
    once set it never clears.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, safe from any thread)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class Deadline:
    """A point on the monotonic clock after which work must stop.

    >>> d = Deadline.after(60.0)
    >>> d.expired()
    False
    >>> d.remaining() <= 60.0
    True
    """

    __slots__ = ("at", "timeout_s")

    def __init__(self, at: float, *, timeout_s: float | None = None):
        self.at = at
        #: The originally requested span, kept for error messages.
        self.timeout_s = timeout_s

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (``perf_counter`` clock)."""
        if seconds < 0:
            raise ValueError(f"deadline span must be >= 0, got {seconds}")
        return cls(time.perf_counter() + seconds, timeout_s=seconds)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past it)."""
        return self.at - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self.at


class Guard:
    """Amortized deadline/cancellation/budget checks for one execution.

    ``tick()`` is the per-row hook: it bumps ``rows_examined``, enforces
    the row budget immediately (an integer compare), and runs the
    expensive wall-clock/cancellation checks only every ``stride`` rows.
    ``check()`` forces the full check — loops call it once up front so a
    pre-expired deadline or pre-cancelled token fails fast instead of
    after the first stride.

    A guard is single-execution state (not thread-safe); share the
    :class:`Deadline`/:class:`CancelToken` across threads, not the guard.
    """

    __slots__ = (
        "deadline",
        "cancel",
        "max_rows",
        "max_bytes",
        "stride",
        "rows_examined",
        "bytes_used",
        "started",
        "_until_check",
    )

    def __init__(
        self,
        *,
        deadline: Deadline | None = None,
        cancel: CancelToken | None = None,
        max_rows: int | None = None,
        max_bytes: int | None = None,
        stride: int = DEFAULT_CHECK_STRIDE,
    ):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if max_rows is not None and max_rows < 0:
            raise ValueError(f"max_rows must be >= 0, got {max_rows}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.deadline = deadline
        self.cancel = cancel
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.stride = stride
        self.rows_examined = 0
        self.bytes_used = 0
        self.started = time.perf_counter()
        self._until_check = stride

    # -- hot path ---------------------------------------------------------

    def tick(self, rows: int = 1) -> None:
        """Count ``rows`` examined; check limits (amortized).

        The row budget is enforced exactly (per tick); the deadline and
        cancellation checks run every ``stride`` rows.
        """
        self.rows_examined += rows
        if self.max_rows is not None and self.rows_examined > self.max_rows:
            self._raise_budget("rows", self.max_rows, self.rows_examined)
        self._until_check -= rows
        if self._until_check <= 0:
            self._until_check = self.stride
            self.check()

    def settle(self, rows: int) -> None:
        """Count ``rows`` a loop took after its last :meth:`tick`, when its
        consumer stopped early (``LIMIT``).  Unchecked: a loop whose
        blocks are clipped to the remaining row budget ticks at the row
        that crosses it, so these rows stay within the budget."""
        self.rows_examined += rows

    # -- full checks ------------------------------------------------------

    def check_rows(self) -> None:
        """Enforce the row budget on rows counted without a check."""
        if self.max_rows is not None and self.rows_examined > self.max_rows:
            self._raise_budget("rows", self.max_rows, self.rows_examined)

    def check(self) -> None:
        """Run the deadline and cancellation checks immediately."""
        if self.cancel is not None and self.cancel.cancelled:
            _CANCELLED.inc()
            elapsed = time.perf_counter() - self.started
            _logging.info(
                "resilience.query.cancelled",
                rows_examined=self.rows_examined,
                elapsed_s=round(elapsed, 6),
            )
            raise QueryCancelled(
                f"query cancelled after {self.rows_examined} rows",
                rows_examined=self.rows_examined,
                elapsed_s=elapsed,
            )
        if self.deadline is not None and self.deadline.expired():
            _TIMEOUTS.inc()
            elapsed = time.perf_counter() - self.started
            _logging.warn(
                "resilience.query.timeout",
                timeout_s=self.deadline.timeout_s,
                rows_examined=self.rows_examined,
                elapsed_s=round(elapsed, 6),
            )
            raise QueryTimeout(
                f"query deadline exceeded after {self.rows_examined} rows",
                timeout_s=self.deadline.timeout_s,
                rows_examined=self.rows_examined,
                elapsed_s=elapsed,
            )

    def add_bytes(self, n: int) -> None:
        """Count ``n`` payload bytes against the byte budget (if any)."""
        self.bytes_used += n
        if self.max_bytes is not None and self.bytes_used > self.max_bytes:
            self._raise_budget("bytes", self.max_bytes, self.bytes_used)

    def _raise_budget(self, which: str, limit: int, used: int) -> None:
        _BUDGET_EXCEEDED.inc()
        elapsed = time.perf_counter() - self.started
        _logging.warn(
            "resilience.budget.exceeded",
            budget=which,
            limit=limit,
            used=used,
            rows_examined=self.rows_examined,
        )
        raise BudgetExceeded(
            f"query {which} budget exceeded: {used} > {limit}",
            budget=which,
            limit=limit,
            used=used,
            rows_examined=self.rows_examined,
            elapsed_s=elapsed,
        )

    def stats(self) -> dict[str, Any]:
        """Partial-progress snapshot (for logs and EXPLAIN ANALYZE)."""
        return {
            "rows_examined": self.rows_examined,
            "bytes_used": self.bytes_used,
            "elapsed_s": round(time.perf_counter() - self.started, 6),
        }
