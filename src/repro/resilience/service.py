"""The resilient query-serving facade behind ``repro serve-query``.

:class:`QueryService` composes the resilience substrate around a
:class:`~repro.query.executor.QueryEngine`:

1. every request passes the :class:`~repro.resilience.AdmissionController`
   gate (shed with a retry hint when saturated),
2. admitted work runs under a :class:`~repro.resilience.Guard` — the
   request's deadline, row budget, and response-byte budget — threaded
   through the executor and storage scan loops, and
3. the outcome feeds the :class:`~repro.resilience.CircuitBreaker` so
   ``/healthz`` flips to ``degraded`` while the service is overloaded.

The HTTP layer (``repro.obs.server``) stays transport-only: it calls
:meth:`QueryService.execute_request` and maps the typed errors
(:class:`~repro.errors.AdmissionRejected` → 429 + ``Retry-After``,
:class:`~repro.errors.QueryTimeout` → 504,
:class:`~repro.errors.BudgetExceeded` → 422) to status codes.

Metric names (catalogued in ``docs/observability.md``):
``resilience.service.requests``.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any

from repro.errors import QueryTimeout
from repro.obs import metrics as _metrics
from repro.resilience.admission import AdmissionController, CircuitBreaker
from repro.resilience.deadline import Deadline, Guard

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.executor import QueryEngine

__all__ = ["QueryService"]

_REQUESTS = _metrics.counter("resilience.service.requests")

#: Server-side caps a request cannot exceed, whatever it asks for.
MAX_TIMEOUT_S = 60.0
MAX_ROWS_CAP = 1_000_000


class QueryService:
    """Admission-gated, deadline-bounded query execution over one engine.

    Parameters
    ----------
    engine:
        The query engine requests run against.
    admission:
        The gate; defaults to an 8-slot/16-deep controller wired to a
        fresh :class:`CircuitBreaker`.
    default_timeout_s / default_max_rows / default_max_bytes:
        Budgets applied when a request does not name its own.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        *,
        admission: AdmissionController | None = None,
        default_timeout_s: float = 5.0,
        default_max_rows: int | None = 100_000,
        default_max_bytes: int | None = 8_000_000,
    ):
        if admission is None:
            admission = AdmissionController(breaker=CircuitBreaker())
        if admission.breaker is None:
            admission.breaker = CircuitBreaker()
        self.engine = engine
        self.admission = admission
        self.default_timeout_s = default_timeout_s
        self.default_max_rows = default_max_rows
        self.default_max_bytes = default_max_bytes

    @property
    def breaker(self) -> CircuitBreaker:
        assert self.admission.breaker is not None
        return self.admission.breaker

    def execute_request(
        self,
        query: str,
        *,
        timeout_ms: float | None = None,
        max_rows: int | None = None,
        profile: bool = False,
        partial: bool = False,
    ) -> dict[str, Any]:
        """Run one request end to end; returns the JSON-ready response body.

        Raises the typed resilience errors for the transport layer to
        map: :class:`~repro.errors.AdmissionRejected`,
        :class:`~repro.errors.QueryTimeout`,
        :class:`~repro.errors.QueryCancelled`,
        :class:`~repro.errors.BudgetExceeded` — plus the usual
        :class:`~repro.errors.QueryError` family for bad queries.

        ``partial=True`` tolerates failing or quarantined shards of a
        sharded store; a degraded response carries ``partial: true`` and
        the ``shards_failed`` list.
        """
        _REQUESTS.inc()
        timeout_s = (
            min(timeout_ms / 1000.0, MAX_TIMEOUT_S)
            if timeout_ms is not None
            else self.default_timeout_s
        )
        rows_budget = (
            min(max_rows, MAX_ROWS_CAP) if max_rows is not None else self.default_max_rows
        )
        # The deadline covers the queue wait too: time spent waiting for
        # a slot is time the client is already burning.
        deadline = Deadline.after(timeout_s) if timeout_s else None
        start = time.perf_counter()
        with self.admission.slot():
            guard = Guard(
                deadline=deadline, max_rows=rows_budget, max_bytes=self.default_max_bytes
            )
            try:
                if deadline is not None and deadline.expired():
                    # Spent the whole budget in the queue: timeout, not work.
                    guard.check()
                    raise QueryTimeout(  # pragma: no cover - check() raises first
                        "deadline exhausted in admission queue", timeout_s=timeout_s
                    )
                result = self.engine.execute(
                    query, profile=profile, guard=guard, partial=partial
                )
            except QueryTimeout:
                self.breaker.record("timeout")
                raise
            except Exception:
                # Sheds are recorded by the gate itself; other failures
                # (syntax errors, budget) don't signal overload.
                raise
            rows = result.rows if profile else result
            body: dict[str, Any] = {
                "rows": rows,
                "row_count": len(rows),
                "seconds": round(time.perf_counter() - start, 6),
                "rows_examined": guard.rows_examined,
            }
            if profile:
                body["profile"] = result.to_dict()
            # PartialResult (rows) and QueryProfile both carry the
            # degradation marker when a shard was skipped.
            if getattr(result, "partial", False):
                body["partial"] = True
                body["shards_failed"] = list(result.shards_failed)
            # Enforce the response-byte budget on the serialized payload
            # the transport is about to write.
            guard.add_bytes(len(json.dumps(body, default=str)))
            self.breaker.record("ok")
            return body
