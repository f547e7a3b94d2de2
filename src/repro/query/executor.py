"""Query executor: run planned queries against a record store.

The executor is deliberately small: the access path yields candidate
records, the residual expression filters them, and ORDER BY / LIMIT shape
the output.  Records coming from list-field index probes are de-duplicated
by primary key (a list may contain the probe value twice).

:class:`QueryEngine` is the public entry point::

    engine = QueryEngine(store)
    rows = engine.execute('author:"McAteer" AND year >= 1978')
    print(engine.explain('year >= 1978'))

``execute(..., profile=True)`` is the ``EXPLAIN ANALYZE`` surface: instead
of a bare row list it returns a :class:`QueryProfile` whose operator tree
annotates every node (seq-scan, index lookups/ranges, filter, aggregate,
sort, limit) with wall time, CPU time (``time.thread_time_ns``), bytes
touched (sampled estimate), and rows-examined/rows-returned counts.
Profiled execution materializes stage by stage so each node's cost is
attributable; the unprofiled path stays streaming and is instrumented only
with bulk counters (``query.executions``, ``query.rows.returned``) and a
latency histogram (``query.seconds``).  Both read the access path only as
far as the output needs: when no sort stands between the scan and LIMIT
(no ORDER BY, or an index-ordered plan — see
:attr:`~repro.query.planner.Plan.index_ordered`), the scan stops at
LIMIT, and the rows examined that both report are the rows the access
path actually yielded.

Every execution (profiled or not) is additionally attributed to its query
*fingerprint* (:mod:`repro.query.fingerprint`) in the process-wide
:class:`~repro.obs.workload.WorkloadTable`: calls, rows, CPU/wall
nanoseconds, estimated bytes scanned, plan-cache hits, and deadline /
cancellation / budget interruptions aggregate per query shape, and a
profiled run rolls its per-operator breakdown into the same row.  The
attribution is one fingerprint memo hit, two thread-clock reads, and one
locked table fold per query — covered by the <5% overhead contract — and
collapses to a flag check when ``repro.obs`` is disabled.
"""

from __future__ import annotations

import base64
import heapq
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import (
    BudgetExceeded,
    QueryCancelled,
    QueryInterrupted,
    QueryPlanError,
    QueryTimeout,
    ShardUnavailableError,
)
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs import workload as _workload
from repro.obs.slowlog import SlowQueryLog
from repro.resilience.deadline import CancelToken, Deadline, Guard
from repro.resilience.retry import RetryPolicy
from repro.storage.bufferpool import PageStats, page_stats_scope
from repro.query.ast_nodes import Expr, Query
from repro.query.parser import parse_query
from repro.query.planner import (
    CompositeLookup,
    CompositeRange,
    FullScan,
    IndexLookup,
    IndexMultiLookup,
    IndexRange,
    Plan,
    PlanCache,
    ScatterPlan,
    plan_scatter,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.sharded import ShardedStore
    from repro.storage.store import RecordStore

_EXECUTIONS = _metrics.counter("query.executions")
# Bound once: the default table is a process-lifetime singleton (reset
# mutates it in place), and the direct method call keeps the per-query
# attribution cost inside the <5% overhead contract.
_WORKLOAD_TABLE = _workload.get_default_table()
# Pre-bound hot-path method: one global load instead of a global load
# plus a method bind per attributed execution.
_RECORD_PACKED = _WORKLOAD_TABLE.record_packed
_ROWS_EXAMINED = _metrics.counter("query.rows.examined")
_ROWS_RETURNED = _metrics.counter("query.rows.returned")
_QUERY_SECONDS = _metrics.histogram("query.seconds")
_PROFILED = _metrics.counter("query.profiled.count")
# Availability SLO numerator (paired with query.executions): every
# execute() that unwound with an error, interruptions included.
_FAILURES = _metrics.counter("query.failures")

#: Rows sampled when estimating the byte footprint of a row set.
_BYTES_SAMPLE = 4

#: Attributed executions between per-row byte-estimate resamples on the
#: unprofiled path (profiled runs always sample their own rows).  The
#: resample countdown ticks only on thread-CPU sample trips (1 in
#: :data:`_CPU_SAMPLE_EVERY`), so keep this a multiple of that.
_BYTES_REFRESH = 512

#: Unprofiled executions between thread-CPU clock samples.  The
#: CLOCK_THREAD_CPUTIME_ID read behind ``time.thread_time_ns`` is a real
#: syscall on many kernels (no vDSO) — hundreds of ns, two reads per
#: execution.  Sampling 1-in-N keeps per-fingerprint CPU attribution
#: statistically sound (the fold scales sampled CPU up to the call
#: count) at 1/N of the clock cost.  Profiled runs always measure.
_CPU_SAMPLE_EVERY = 16


def _record_bytes(record: dict[str, Any]) -> int:
    """Cheap byte estimate of one record: string lengths + 8 per scalar."""
    total = 0
    for key, value in record.items():
        total += len(key)
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += sum(len(v) if isinstance(v, str) else 8 for v in value)
        else:
            total += 8
    return total


def _estimate_bytes(rows: list[dict[str, Any]], count: int | None = None) -> int:
    """Estimated bytes across ``count`` rows, sampled from ``rows``.

    The first few rows are measured and the average extrapolated, so the
    cost is constant regardless of result size — good enough for skew
    and attribution, not an accounting-grade number.
    """
    if count is None:
        count = len(rows)
    if not rows or count <= 0:
        return 0
    sample = rows[:_BYTES_SAMPLE]
    return int(sum(_record_bytes(r) for r in sample) / len(sample) * count)


def _interruption_kind(exc: QueryInterrupted) -> str:
    if isinstance(exc, QueryTimeout):
        return "timeout"
    if isinstance(exc, BudgetExceeded):
        return "budget"
    if isinstance(exc, QueryCancelled):
        return "cancelled"
    return "cancelled"  # unknown subclass: closest bucket


@dataclass(frozen=True, slots=True)
class OpProfile:
    """One node of a profiled operator tree (``EXPLAIN ANALYZE`` output).

    ``rows_examined`` counts the rows the operator looked at (its input,
    or for a seq-scan the whole table); ``rows_returned`` counts the rows
    it passed upward.  ``seconds`` is the node's own wall time, measured
    over the materialization of its output (children excluded);
    ``cpu_ns`` is the thread-CPU time of the same stage, and ``bytes``
    the sampled byte estimate of the rows it handled.
    """

    op: str  #: "seq-scan" | "index-lookup" | … | "filter" | "sort" | "limit"
    detail: str
    rows_examined: int
    rows_returned: int
    seconds: float
    children: tuple["OpProfile", ...] = ()
    cpu_ns: int = 0
    bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "detail": self.detail,
            "rows_examined": self.rows_examined,
            "rows_returned": self.rows_returned,
            "seconds": self.seconds,
            "cpu_ns": self.cpu_ns,
            "bytes": self.bytes,
            "children": [child.to_dict() for child in self.children],
        }

    def workload_node(self) -> dict[str, int | str]:
        """This node as a :class:`~repro.obs.workload.WorkloadTable`
        operator-breakdown entry."""
        return {
            "op": self.op,
            "rows_in": self.rows_examined,
            "rows_out": self.rows_returned,
            "cpu_ns": self.cpu_ns,
            "wall_ns": int(self.seconds * 1e9),
            "bytes": self.bytes,
        }

    def render(self) -> str:
        """Indented tree, root first (the outermost operator on top)."""
        lines: list[str] = []
        self._render_into(lines, "", "")
        return "\n".join(lines)

    def _render_into(self, lines: list[str], prefix: str, child_prefix: str) -> None:
        lines.append(
            f"{prefix}{self.op} ({self.detail})  "
            f"examined={self.rows_examined} returned={self.rows_returned}  "
            f"{self.seconds * 1e3:.3f}ms cpu={self.cpu_ns / 1e6:.3f}ms "
            f"bytes~{self.bytes}"
        )
        for child in self.children:
            child._render_into(lines, child_prefix + "└─ ", child_prefix + "   ")

    def iter_nodes(self) -> Iterator["OpProfile"]:
        """This node and every descendant, root first."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass(frozen=True, slots=True)
class QueryProfile:
    """Rows plus the annotated operator tree of one profiled execution.

    ``page_hits`` / ``page_misses`` are the buffer-pool pages this query
    touched (thread-attributed through
    :func:`repro.storage.bufferpool.page_stats_scope`; summed across
    shard workers on a scatter).  Both stay 0 against a store with no
    checkpoint yet (in-memory, or not yet checkpointed) — there is no
    pool to hit.
    """

    rows: list[dict[str, Any]]
    root: OpProfile
    plan_text: str
    seconds: float
    plan_cached: bool = False  #: plan came from the engine's PlanCache
    fingerprint: str | None = None  #: workload fingerprint of the query shape
    page_hits: int = 0  #: buffer-pool hits attributed to this query
    page_misses: int = 0  #: buffer-pool misses attributed to this query
    partial: bool = False  #: a partial-mode scatter skipped shard(s)
    shards_failed: tuple[int, ...] = ()  #: skipped shard indexes

    def render(self) -> str:
        """The operator tree plus a total-time footer."""
        cached = "  (plan: cached)" if self.plan_cached else ""
        fp = f"  [fingerprint {self.fingerprint}]" if self.fingerprint else ""
        pages = ""
        if self.page_hits or self.page_misses:
            pages = f"  pages: {self.page_hits} hit / {self.page_misses} miss"
        degraded = ""
        if self.partial:
            failed = ", ".join(str(s) for s in self.shards_failed)
            degraded = f"\nPARTIAL RESULT: shard(s) {failed} failed or quarantined"
        return (
            f"{self.root.render()}\n"
            f"total: {self.seconds * 1e3:.3f}ms{pages}{cached}{fp}{degraded}"
        )

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "plan": self.plan_text,
            "plan_cached": self.plan_cached,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "row_count": len(self.rows),
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "tree": self.root.to_dict(),
        }
        if self.partial:
            # Complete results keep the pre-sharding JSON shape; the
            # degradation keys only appear when shards actually dropped out.
            doc["partial"] = True
            doc["shards_failed"] = list(self.shards_failed)
        return doc


@dataclass(frozen=True, slots=True)
class Page:
    """One page of a cursor-paginated result."""

    rows: list[dict[str, Any]]
    next_cursor: str | None  #: None when this is the last page

    @property
    def has_more(self) -> bool:
        return self.next_cursor is not None


def _encode_cursor(sort_value: Any, primary_key: Any) -> str:
    payload = json.dumps([sort_value, primary_key], separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def _decode_cursor(cursor: str) -> tuple[Any, Any]:
    try:
        payload = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        sort_value, primary_key = payload
    except Exception as exc:
        raise QueryPlanError(f"malformed cursor: {exc}") from exc
    return sort_value, primary_key


class _StageClock:
    """Wall and thread-CPU time of one operator, summed over the
    ``with`` blocks that do its work."""

    __slots__ = ("seconds", "cpu_ns", "_wall", "_cpu")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.cpu_ns = 0

    def __enter__(self) -> "_StageClock":
        self._wall = time.perf_counter()
        self._cpu = time.thread_time_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds += time.perf_counter() - self._wall
        self.cpu_ns += time.thread_time_ns() - self._cpu

    def profile(
        self,
        op: str,
        detail: str,
        examined: int,
        rows: list[dict[str, Any]],
        child: OpProfile | None = None,
        *,
        nbytes: int | None = None,
    ) -> OpProfile:
        """The node of an operator that examined ``examined`` rows and
        returned ``rows`` (bytes estimated from ``rows`` unless given)."""
        return OpProfile(
            op=op,
            detail=detail,
            rows_examined=examined,
            rows_returned=len(rows),
            seconds=self.seconds,
            cpu_ns=self.cpu_ns,
            bytes=_estimate_bytes(rows) if nbytes is None else nbytes,
            children=() if child is None else (child,),
        )


def _pull_to_limit(
    candidates: Iterator[dict[str, Any]],
    residual: Expr | None,
    limit: int,
    access_clock: _StageClock,
    filter_clock: _StageClock,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """``(pulled, passed)``: candidates read only as far as LIMIT needs.

    Each round pulls as many candidates as passing rows are still
    missing, rows a lazy pipeline must read in any case, and then
    filters them.  So the access path yields exactly the rows an
    unprofiled run reads, while access and filter time stay apart.
    """
    pulled: list[dict[str, Any]] = []
    passed: list[dict[str, Any]] = []
    while len(passed) < limit:
        with access_clock:
            batch = list(islice(candidates, limit - len(passed)))
        if not batch:
            break
        pulled += batch
        if residual is None:
            passed += batch
        else:
            with filter_clock:
                passed += [r for r in batch if residual.evaluate(r)]
    return pulled, passed


class QueryEngine:
    """Plans and executes query strings (or pre-parsed :class:`Query`).

    Plans are memoized in a per-engine :class:`PlanCache` (LRU of
    ``plan_cache_size`` entries, keyed on the parsed AST plus the store's
    ``index_epoch``) — a repeated query skips the planner's rule search
    entirely, and any index create/drop or bulk write retires every
    cached plan by bumping the epoch.

    Every :meth:`execute` runs under a trace ID (see
    :func:`repro.obs.logging.trace`): its log events, its spans, and —
    when a :class:`~repro.obs.slowlog.SlowQueryLog` is attached and the
    query crosses the threshold — its slow-log entry all carry that one
    ID.  A slow query that ran unprofiled is re-executed with profiling
    (still under the same trace ID) so the slow-log entry gets an
    EXPLAIN ANALYZE tree; the extra cost is paid only past the threshold.
    """

    def __init__(
        self,
        store: "RecordStore",
        *,
        plan_cache_size: int = 256,
        slow_log: SlowQueryLog | None = None,
    ):
        self.store = store
        self.plan_cache = PlanCache(maxsize=plan_cache_size)
        self.slow_log = slow_log
        # Cached per-row byte estimate for workload attribution: rows
        # share one schema, so a periodically refreshed average is as
        # good as sampling every execution at a fraction of the cost.
        self._bytes_per_row = 0.0
        # One merged countdown serves both sampling schedules: every
        # trip takes a thread-CPU sample, and every _BYTES_REFRESH /
        # _CPU_SAMPLE_EVERY trips the byte estimate is resampled too —
        # a single attribute decrement on the per-execution path.
        self._probe = 0  # executions until the next thread-CPU sample
        self._bytes_rounds = 0  # sample trips until the next byte resample

    # -- public API ---------------------------------------------------------

    def execute(
        self,
        query: str | Query,
        *,
        profile: bool = False,
        guard: Guard | None = None,
        timeout_s: float | None = None,
        cancel: CancelToken | None = None,
        max_rows: int | None = None,
    ) -> list[dict[str, Any]] | QueryProfile:
        """Run ``query`` and return the matching records.

        With ``profile=True``, returns a :class:`QueryProfile` instead:
        the rows plus the annotated operator tree with per-node timings
        and rows-examined/rows-returned counts (``EXPLAIN ANALYZE``).

        Execution can be bounded: pass a pre-built
        :class:`~repro.resilience.Guard`, or let the convenience knobs
        (``timeout_s`` wall clock, ``cancel`` token, ``max_rows`` row
        budget) build one.  A violated bound unwinds with the matching
        :class:`~repro.errors.QueryInterrupted` subclass carrying
        partial-progress stats; a profiled run additionally attaches the
        partial EXPLAIN ANALYZE tree as ``exc.partial``.  An explicit
        ``guard`` takes precedence over the knobs.
        """
        if guard is None and (
            timeout_s is not None or cancel is not None or max_rows is not None
        ):
            guard = Guard(
                deadline=Deadline.after(timeout_s) if timeout_s is not None else None,
                cancel=cancel,
                max_rows=max_rows,
            )
        try:
            return self._execute(query, profile=profile, guard=guard)
        except Exception:
            _FAILURES.inc()
            raise

    def _execute(
        self,
        query: str | Query,
        *,
        profile: bool,
        guard: Guard | None,
    ) -> list[dict[str, Any]] | QueryProfile:
        with _logging.trace() as trace_id:
            parsed = self._parse(query)
            plan, fp, template, cached = self.plan_cache.get_or_plan_fingerprinted(
                parsed, self.store
            )
            query_text = query if isinstance(query, str) else str(query)
            if not _WORKLOAD_TABLE.enabled:
                fp = None
            # Thread-CPU clock reads are sampled (see _CPU_SAMPLE_EVERY);
            # cpu_start = -1 marks an unsampled execution.
            cpu_start = -1
            if fp is not None:
                if profile:
                    cpu_start = time.thread_time_ns()
                else:
                    self._probe -= 1
                    if self._probe < 0:
                        self._probe = _CPU_SAMPLE_EVERY - 1
                        cpu_start = time.thread_time_ns()
            start = time.perf_counter()
            try:
                if profile:
                    result: QueryProfile = self.run_plan_profiled(
                        plan, plan_cached=cached, guard=guard, fingerprint=fp
                    )
                    rows, seconds = len(result.rows), result.seconds
                    *_, access_node = result.root.iter_nodes()
                    examined = access_node.rows_examined
                    ran_profile: QueryProfile | None = result
                else:
                    plain, examined = self._run_plan(plan, guard)
                    rows, seconds = len(plain), time.perf_counter() - start
                    ran_profile = None
            except QueryInterrupted as exc:
                if fp is not None:
                    _RECORD_PACKED((
                        fp, template, 0, exc.rows_examined,
                        time.thread_time_ns() - cpu_start if cpu_start >= 0 else -1,
                        time.perf_counter() - start,
                        0, cached, _interruption_kind(exc), False, None,
                    ))
                raise
            if fp is not None:
                if cpu_start < 0:
                    cpu_ns = -1
                else:
                    cpu_ns = time.thread_time_ns() - cpu_start
                    # A sample trip also ticks the byte-estimate
                    # resample countdown (see _BYTES_REFRESH).
                    if not profile:
                        self._bytes_rounds -= 1
                        if self._bytes_rounds < 0 and plain:
                            self._refresh_bytes_per_row(plain)
                # Packed positional form of WorkloadTable.record — one
                # deque append per execution (see record_packed); the
                # common successful path uses the short 8-slot shape.
                if profile:
                    if result.rows:
                        self._refresh_bytes_per_row(result.rows)
                    _RECORD_PACKED((
                        fp, template, rows, examined, cpu_ns, seconds,
                        examined * self._bytes_per_row, cached, None, False,
                        [n.workload_node() for n in result.root.iter_nodes()],
                    ))
                else:
                    _RECORD_PACKED((
                        fp, template, rows, examined, cpu_ns, seconds,
                        examined * self._bytes_per_row, cached,
                    ))
            if _logging.would_log("debug"):
                _logging.debug(
                    "query.execute",
                    query=query_text,
                    access=plan.access.op,
                    plan_cached=cached,
                    fingerprint=fp,
                    rows=rows,
                    seconds=round(seconds, 6),
                    profiled=profile,
                )
            self._maybe_slow_log(
                query_text, plan, cached, rows, seconds, ran_profile, trace_id, fp
            )
            return result if profile else plain

    def explain(self, query: str | Query) -> str:
        """The plan that :meth:`execute` would use, as text."""
        parsed = self._parse(query)
        plan, _ = self._plan(parsed)
        return plan.explain()

    def _plan(self, parsed: Query) -> tuple[Plan, bool]:
        return self.plan_cache.get_or_plan(parsed, self.store)

    def _refresh_bytes_per_row(self, out_rows: list[dict[str, Any]]) -> None:
        """Resample the cached per-row byte estimate from live rows.

        Sampling rows on every execution would dominate the attribution
        budget on sub-100µs queries; instead the first execution (and
        every :data:`_BYTES_REFRESH`\\ th after it) samples its result
        rows, and the rest extrapolate from the cached average inline at
        the record site.
        """
        sample = out_rows[:_BYTES_SAMPLE]
        self._bytes_per_row = sum(_record_bytes(r) for r in sample) / len(sample)
        self._bytes_rounds = _BYTES_REFRESH // _CPU_SAMPLE_EVERY

    def _maybe_slow_log(
        self,
        query_text: str,
        plan: Plan,
        plan_cached: bool,
        rows: int,
        seconds: float,
        profile: QueryProfile | None,
        trace_id: str,
        fingerprint: str | None = None,
    ) -> None:
        slow = self.slow_log
        if slow is None or seconds < slow.threshold_s:
            return
        reexecuted = False
        if profile is None and slow.profile_on_slow:
            # Re-run profiled (same plan, same trace ID) so the entry has
            # an operator tree; only queries already past the threshold pay.
            profile = self.run_plan_profiled(
                plan, plan_cached=plan_cached, fingerprint=fingerprint
            )
            reexecuted = True
        slow.record(
            query=query_text,
            plan=plan.explain(),
            plan_cached=plan_cached,
            rows=rows,
            seconds=seconds,
            profile=profile,
            reexecuted=reexecuted,
            trace_id=trace_id,
            fingerprint=fingerprint,
        )

    def execute_without_indexes(self, query: str | Query) -> list[dict[str, Any]]:
        """Run ``query`` as a pure scan (the E3 baseline and test oracle)."""
        parsed = self._parse(query)
        plan = Plan(
            access=FullScan(),
            residual=parsed.where,
            order_by=parsed.order_by,
            descending=parsed.descending,
            limit=parsed.limit,
        )
        return self.run_plan(plan)

    # -- plan execution --------------------------------------------------------

    def count(self, query: str | Query) -> int:
        """Number of records matching ``query`` (ignores GROUP BY/LIMIT)."""
        parsed = self._parse(query)
        plan, _ = self._plan(Query(where=parsed.where))
        total = 0
        rows: Any = self._candidates(plan)
        if plan.residual is not None:
            rows = (r for r in rows if plan.residual.evaluate(r))
        for _ in rows:
            total += 1
        return total

    def execute_paged(
        self, query: str | Query, *, page_size: int, cursor: str | None = None
    ) -> Page:
        """Run ``query`` returning one stable page at a time.

        Rows are ordered by the query's ORDER BY (primary key as the
        implicit fallback and as the tiebreak), and the returned cursor
        names the last row seen — so pages stay consistent even if rows
        are inserted or deleted between calls (no offset drift; a row is
        never skipped or repeated unless it itself changed).  GROUP BY and
        LIMIT are rejected: pagination owns the output shape.
        """
        if page_size <= 0:
            raise QueryPlanError(f"page_size must be positive, got {page_size}")
        parsed = self._parse(query)
        if parsed.group_by is not None or parsed.limit is not None:
            raise QueryPlanError("paged queries must not use GROUP BY or LIMIT")

        pk_field = self.store.schema.primary_key
        order_field = parsed.order_by or pk_field
        if not self.store.schema.has_field(order_field):
            raise QueryPlanError(f"cannot ORDER BY unknown field {order_field!r}")
        plan, _ = self._plan(Query(where=parsed.where))
        rows: Any = self._candidates(plan)
        if plan.residual is not None:
            rows = (r for r in rows if plan.residual.evaluate(r))

        def row_key(record: dict[str, Any]) -> tuple:
            return (
                _sort_key(record.get(order_field)),
                _sort_key(record.get(pk_field)),
            )

        ordered = sorted(rows, key=row_key, reverse=parsed.descending)
        start = 0
        if cursor is not None:
            after_value, after_pk = _decode_cursor(cursor)
            after_key = (_sort_key(after_value), _sort_key(after_pk))
            for start, record in enumerate(ordered):
                this_key = row_key(record)
                if (this_key > after_key) != parsed.descending and this_key != after_key:
                    break
            else:
                start = len(ordered)
        page_rows = ordered[start : start + page_size]
        next_cursor = None
        if start + page_size < len(ordered) and page_rows:
            last = page_rows[-1]
            next_cursor = _encode_cursor(last.get(order_field), last.get(pk_field))
        return Page(rows=page_rows, next_cursor=next_cursor)

    def delete(self, query: str | Query) -> int:
        """Atomically delete every record matching ``query``'s filter.

        GROUP BY / ORDER BY / LIMIT clauses are rejected — a destructive
        operation must not depend on presentation clauses.
        """
        parsed = self._parse(query)
        if parsed.group_by or parsed.order_by or parsed.limit is not None:
            raise QueryPlanError(
                "DELETE accepts a bare filter (no GROUP BY/ORDER BY/LIMIT)"
            )
        return self.store.delete_where(parsed.matches)

    def run_plan(self, plan: Plan, *, guard: Guard | None = None) -> list[dict[str, Any]]:
        """Execute a :class:`Plan` produced by the planner.

        ``guard`` bounds the execution (deadline / cancellation / row
        budget), charged once per candidate row the access path yields.
        """
        return self._run_plan(plan, guard)[0]

    def _run_plan(
        self, plan: Plan, guard: Guard | None
    ) -> tuple[list[dict[str, Any]], int]:
        """:meth:`run_plan`'s rows and the rows the access path yielded."""
        start = time.perf_counter()
        if guard is not None:
            # Fail fast on a pre-expired deadline or pre-cancelled token
            # instead of after the first check stride.
            guard.check()
        examined = [0]
        candidates = self._candidates(plan, guard, examined)
        try:
            rows: Iterator[dict[str, Any]] = candidates
            if plan.residual is not None:
                residual = plan.residual
                rows = (r for r in rows if residual.evaluate(r))
            if plan.group_by is not None:
                rows = iter(self._aggregate(rows, plan.group_by))
            if plan.order_by is not None:
                self._check_order_field(plan)
                if not plan.index_ordered:
                    field = plan.order_by
                    rows = iter(sorted(
                        rows,
                        key=lambda r: _sort_key(r.get(field)),
                        reverse=plan.descending,
                    ))
            out = list(rows if plan.limit is None else islice(rows, plan.limit))
        finally:
            # Ends a scan that LIMIT stopped, which settles its count.
            candidates.close()
        _EXECUTIONS.inc()
        _ROWS_RETURNED.inc(len(out))
        _QUERY_SECONDS.observe(time.perf_counter() - start)
        return out, examined[0]

    def run_plan_profiled(
        self,
        plan: Plan,
        *,
        plan_cached: bool = False,
        guard: Guard | None = None,
        fingerprint: str | None = None,
    ) -> QueryProfile:
        """Execute ``plan`` stage by stage, timing and counting each node.

        Unlike :meth:`run_plan` this materializes every stage so each
        operator's cost is attributable; results are identical, and as
        in :meth:`run_plan` a LIMIT with no sort before it reads the
        access path only as far as it needs.
        ``plan_cached`` is recorded in the profile so EXPLAIN ANALYZE
        shows whether the plan came from the cache, and ``fingerprint``
        (when known) is stamped on the profile and its span.  When a
        ``guard`` interrupts the run, the partial operator tree built so
        far is attached to the raised error as ``exc.partial`` before it
        propagates.
        """
        total_start = time.perf_counter()
        try:
            return self._run_plan_profiled(
                plan,
                plan_cached=plan_cached,
                guard=guard,
                total_start=total_start,
                fingerprint=fingerprint,
            )
        except QueryInterrupted as exc:
            seconds = time.perf_counter() - total_start
            root = OpProfile(
                op=plan.access.op,
                detail=f"{plan.access.describe()} [interrupted: {type(exc).__name__}]",
                rows_examined=exc.rows_examined,
                rows_returned=0,
                seconds=seconds,
            )
            exc.partial = QueryProfile(
                rows=[],
                root=root,
                plan_text=plan.explain(),
                seconds=seconds,
                plan_cached=plan_cached,
                fingerprint=fingerprint,
            )
            raise

    def _run_plan_profiled(
        self,
        plan: Plan,
        *,
        plan_cached: bool,
        guard: Guard | None,
        total_start: float,
        fingerprint: str | None = None,
    ) -> QueryProfile:
        with _tracing.span("query.execute", access=plan.access.op, profiled=True) as qspan:
            trace_id = _logging.current_trace_id()
            if trace_id is not None:
                qspan.set_attribute("trace_id", trace_id)
            if fingerprint is not None:
                qspan.set_attribute("fingerprint", fingerprint)
            if guard is not None:
                guard.check()
            residual = plan.residual
            access_clock, filter_clock = _StageClock(), _StageClock()
            examined = [0]
            candidates = self._candidates(plan, guard, examined)
            # Pool pages are only touched while the access path streams
            # candidate records off the paged tree, so the attribution
            # scope need not cover the later (pure in-memory) stages.
            pstats = PageStats()
            try:
                with page_stats_scope(pstats):
                    if plan.limit is not None and plan.group_by is None and (
                        plan.order_by is None or plan.index_ordered
                    ):
                        pulled, rows = _pull_to_limit(
                            candidates, residual, plan.limit, access_clock, filter_clock
                        )
                    else:
                        with access_clock:
                            pulled = rows = list(candidates)
                        if residual is not None:
                            with filter_clock:
                                rows = [r for r in pulled if residual.evaluate(r)]
            finally:
                candidates.close()
            detail = plan.access.describe()
            if plan.index_ordered:
                detail += f"; index order serves ORDER BY {plan.order_by} ASC"
            node = access_clock.profile(
                plan.access.op, detail, examined[0], pulled,
                nbytes=_estimate_bytes(pulled, examined[0]),
            )
            if residual is not None:
                node = filter_clock.profile(
                    "filter", str(residual), len(pulled), rows, node,
                    nbytes=_estimate_bytes(pulled),
                )
            if plan.group_by is not None:
                with _StageClock() as clock:
                    grouped = self._aggregate(iter(rows), plan.group_by)
                node = clock.profile(
                    "aggregate", f"GROUP BY {plan.group_by} (COUNT)", len(rows),
                    grouped, node, nbytes=_estimate_bytes(rows),
                )
                rows = grouped
            if plan.order_by is not None:
                self._check_order_field(plan)
                if not plan.index_ordered:
                    order_field = plan.order_by
                    with _StageClock() as clock:
                        rows = sorted(
                            rows,
                            key=lambda r: _sort_key(r.get(order_field)),
                            reverse=plan.descending,
                        )
                    node = clock.profile(
                        "sort",
                        f"ORDER BY {order_field} {'DESC' if plan.descending else 'ASC'}",
                        len(rows), rows, node,
                    )
            if plan.limit is not None:
                with _StageClock() as clock:
                    limited = rows[: plan.limit]
                node = clock.profile(
                    "limit", f"LIMIT {plan.limit}", len(rows), limited, node
                )
                rows = limited
            _EXECUTIONS.inc()
            _PROFILED.inc()
            _ROWS_EXAMINED.inc(examined[0])  # base-table rows the access path yielded
            _ROWS_RETURNED.inc(len(rows))
            seconds = time.perf_counter() - total_start
            _QUERY_SECONDS.observe(seconds)
            qspan.set_attribute("rows", len(rows))
            if pstats.hits or pstats.misses:
                qspan.set_attribute("page_hits", pstats.hits)
                qspan.set_attribute("page_misses", pstats.misses)
            return QueryProfile(
                rows=rows,
                root=node,
                plan_text=plan.explain(),
                seconds=seconds,
                plan_cached=plan_cached,
                fingerprint=fingerprint,
                page_hits=pstats.hits,
                page_misses=pstats.misses,
            )

    def _check_order_field(self, plan: Plan) -> None:
        field = plan.order_by
        known = self.store.schema.has_field(field)
        if plan.group_by is not None:
            known = field in (plan.group_by, "count")
        if not known:
            raise QueryPlanError(f"cannot ORDER BY unknown field {field!r}")

    def _aggregate(
        self, rows: Iterator[dict[str, Any]], field: str
    ) -> list[dict[str, Any]]:
        """COUNT rows per distinct ``field`` value (list fields count each
        element); output rows are ``{field: value, "count": n}`` sorted by
        value for deterministic default order."""
        if not self.store.schema.has_field(field):
            raise QueryPlanError(f"cannot GROUP BY unknown field {field!r}")
        counts: dict[Any, int] = {}
        for row in rows:
            value = row.get(field)
            if value is None:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                counts[v] = counts.get(v, 0) + 1
        return [
            {field: value, "count": count}
            for value, count in sorted(counts.items(), key=lambda kv: _sort_key(kv[0]))
        ]

    # -- candidates from the access path ------------------------------------------

    def _candidates(
        self,
        plan: Plan,
        guard: Guard | None = None,
        examined: list[int] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """The access path's records, pulled lazily from the store.

        Every row the access path yields is charged to ``guard`` as it is
        taken, and added to ``examined[0]`` once the stream is drained or
        closed: the rows examined that the workload table and EXPLAIN
        ANALYZE report.  Each primary key is yielded once.
        """
        access = plan.access
        store = self.store
        rows: Any
        if isinstance(access, FullScan):
            rows = store.scan()
        elif isinstance(access, IndexLookup):
            rows = store.find_by(access.field, access.value)
        elif isinstance(access, IndexMultiLookup):
            rows = chain.from_iterable(
                store.find_by(access.field, value) for value in access.values
            )
        elif isinstance(access, CompositeLookup):
            rows = store.find_by_composite(access.fields, access.values)
        elif isinstance(access, CompositeRange):
            rows = store.range_by_composite(
                access.fields,
                access.prefix,
                access.low,
                access.high,
                include_low=access.include_low,
                include_high=access.include_high,
            )
        elif isinstance(access, IndexRange):
            rows = map(itemgetter(1), store.iter_range(
                access.field,
                access.low,
                access.high,
                include_low=access.include_low,
                include_high=access.include_high,
            ))
        else:  # pragma: no cover
            raise QueryPlanError(f"unknown access path {access!r}")
        # The guard is ticked once per block of rows taken (_block_end),
        # so nothing is read ahead of the consumer; rows taken since the
        # last tick are settled when the stream is closed early.
        pulled = charged = 0
        due = 0 if guard is None else _block_end(guard, 0)
        # A list field's range or an IN list can meet one record twice.
        seen: set[Any] | None = (
            set() if isinstance(access, (IndexMultiLookup, IndexRange)) else None
        )
        primary_key_of = store.schema.primary_key_of
        try:
            if guard is None and seen is None:
                # Only the count: two checks per row cost an unguarded
                # full scan about a tenth of its time.
                for record in rows:
                    pulled += 1
                    yield record
                return
            for record in rows:
                pulled += 1
                if pulled == due:
                    block, charged = pulled - charged, pulled
                    guard.tick(block)
                    due = _block_end(guard, pulled)
                if seen is not None:
                    key = primary_key_of(record)
                    if key in seen:
                        continue
                    seen.add(key)
                yield record
            if guard is not None:
                block, charged = pulled - charged, pulled
                guard.tick(block)  # drained: the last block, checked
        finally:
            if guard is not None:
                guard.settle(pulled - charged)
            if examined is not None:
                examined[0] += pulled

    @staticmethod
    def _parse(query: str | Query) -> Query:
        if isinstance(query, Query):
            return query
        return parse_query(query)


def _block_end(guard: Guard, taken: int) -> int:
    """The row count at which a loop that has taken ``taken`` rows next
    ticks ``guard``: a stride on, clipped to the remaining row budget, so
    the row that crosses the budget ends a block and the violation
    reports ``used == max_rows + 1`` before that row is handed on."""
    block = guard.stride
    if guard.max_rows is not None:
        block = max(1, min(block, guard.max_rows - guard.rows_examined + 1))
    return taken + block


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order over heterogeneous field values: None first, then by type."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, str(value))


# -- scatter-gather execution across a sharded store ------------------------

_SCATTER_COUNT = _metrics.counter("query.scatter.count")
_SCATTER_MERGE_SECONDS = _metrics.histogram("query.scatter.merge.seconds")
# Partial-mode scatters that actually returned a degraded (incomplete)
# result — the numerator of a "how often are we serving partial" SLO.
_SCATTER_PARTIAL = _metrics.counter("query.scatter.partial.count")


class PartialResult(list):
    """Rows from a partial-mode scatter, plus degradation metadata.

    A plain ``list`` subclass, so every caller that just iterates rows is
    unaffected; ``partial`` is ``True`` when at least one shard was
    skipped, and ``shards_failed`` names the skipped shard indexes.
    Strict-mode executions never return this type.
    """

    __slots__ = ("partial", "shards_failed")

    def __init__(
        self,
        rows: list[dict[str, Any]],
        *,
        partial: bool = False,
        shards_failed: tuple[int, ...] = (),
    ):
        super().__init__(rows)
        self.partial = partial
        self.shards_failed = shards_failed


class _SharedRowBudget:
    """One row budget shared by every shard worker of a scatter.

    The single-store guard enforces ``max_rows`` exactly; across
    concurrently scanning workers exactness would need a lock per row, so
    the shared ledger is charged in the same stride-sized blocks the
    workers already tick in — the budget still trips within one stride
    per worker of the limit, it just cannot promise ``used == limit + 1``.
    A worker that LIMIT stops between ticks adds its last rows unchecked
    (:meth:`_ShardGuard.settle`); the scatter checks its total at the end.
    """

    __slots__ = ("max_rows", "rows", "_lock")

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> int:
        with self._lock:
            self.rows += n
            return self.rows


class _EitherCancelled:
    """Duck-typed :class:`CancelToken` view over caller + scatter tokens.

    A worker must stop when either the caller cancelled the query or a
    sibling worker failed (the scatter's internal abort); :class:`Guard`
    only reads ``.cancelled``, so a two-token view slots straight in.
    """

    __slots__ = ("_caller", "_abort")

    def __init__(self, caller: CancelToken | None, abort: CancelToken):
        self._caller = caller
        self._abort = abort

    @property
    def cancelled(self) -> bool:
        return (
            self._caller is not None and self._caller.cancelled
        ) or self._abort.cancelled


class _ShardGuard(Guard):
    """Per-worker guard charging a scatter-shared row budget.

    A :class:`Guard` is single-execution state and must not be shared
    across threads, but its deadline and cancellation *inputs* are
    thread-safe — so every worker gets its own guard wired to the shared
    :class:`Deadline` / cancel tokens, and the row budget moves to a
    locked :class:`_SharedRowBudget` so all workers draw from one limit.
    """

    __slots__ = ("_ledger",)

    def __init__(
        self,
        *,
        deadline: Deadline | None,
        cancel: "_EitherCancelled | CancelToken | None",
        ledger: _SharedRowBudget | None,
        stride: int,
    ):
        super().__init__(deadline=deadline, cancel=cancel, stride=stride)  # type: ignore[arg-type]
        self._ledger = ledger

    def tick(self, rows: int = 1) -> None:
        self.rows_examined += rows
        ledger = self._ledger
        if ledger is not None:
            total = ledger.add(rows)
            if total > ledger.max_rows:
                self._raise_budget("rows", ledger.max_rows, total)
        self._until_check -= rows
        if self._until_check <= 0:
            self._until_check = self.stride
            self.check()

    def settle(self, rows: int) -> None:
        # Unchecked, as on a plain guard, but into the shared ledger too
        # so siblings still scanning count these rows; the scatter holds
        # its total to the budget once every worker is done.
        self.rows_examined += rows
        if self._ledger is not None:
            self._ledger.add(rows)


@dataclass(slots=True)
class PartialAggregate:
    """Mergeable aggregate state over one numeric field.

    Carries the classic decomposable set — count, sum, min, max — from
    which avg derives as ``sum / count``, so per-shard partials combine
    into exactly the whole-corpus aggregate (for ints bit-for-bit; float
    sums can differ in the last ulp across groupings, as any
    order-changing summation does).
    """

    count: int = 0
    total: Any = 0
    minimum: Any = None
    maximum: Any = None

    def add(self, value: Any) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "PartialAggregate") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.minimum is None or other.minimum < self.minimum:
            self.minimum = other.minimum
        if self.maximum is None or other.maximum > self.maximum:
            self.maximum = other.maximum

    def finalize(self) -> dict[str, Any]:
        """The aggregate row: count/sum/min/max/avg (None-valued on empty)."""
        if self.count == 0:
            return {"count": 0, "sum": 0, "min": None, "max": None, "avg": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "avg": self.total / self.count,
        }


class ShardedQueryEngine:
    """Scatter-gather query execution over a :class:`ShardedStore`.

    Planning happens once, at the facade: the sharded store exposes the
    same index metadata surface as a single store (epochs, kinds,
    summed statistics), so the ordinary planner — and this engine's
    :class:`PlanCache` — work unchanged.  The chosen plan is then split by
    :func:`~repro.query.planner.plan_scatter`: every shard runs the access
    path + residual against its own partition on a worker thread, and the
    gather phase reassembles the output:

    * **sorted scans** — shards return runs pre-sorted by
      ``(ORDER BY value, primary key)`` and the gather k-way-merges them
      lazily (:func:`heapq.merge`), stopping at LIMIT.  The primary-key
      tiebreak totalizes the order, so the result is identical for any
      shard count.  (It can differ from a *plain* :class:`QueryEngine` on
      duplicate sort keys only: the plain engine's stable sort keeps
      insertion order among ties where this engine uses primary-key
      order.)
    * **aggregates** — shards return partial per-value counts; the gather
      sums and formats them exactly like
      :meth:`QueryEngine._aggregate`, so GROUP BY output is byte-identical
      to single-store execution.
    * **LIMIT pushdown** — without aggregation each shard produces at most
      LIMIT rows (bounded top-k heap when sorted, early-exit scan when
      not) and the merged stream is trimmed again.  As in SQL, a query
      *without* ORDER BY returns its matches in unspecified order (here:
      shard-major), and LIMIT without ORDER BY picks an unspecified
      subset — both depend on the shard count.  Sorted scans and
      aggregates are the deterministic surfaces.

    Deadlines, cancellation, and row budgets span the whole scatter: the
    caller's :class:`Deadline` / :class:`CancelToken` are shared by every
    worker directly (both are thread-safe), while the row budget moves
    into a locked ledger all workers draw down together.  The first
    failing worker aborts its siblings through an internal cancel token;
    the first *root-cause* error (anything but the induced cancellation)
    is what propagates, with ``rows_examined`` summed across workers.

    Reads only — run ingest and queries from different phases, exactly as
    with a single :class:`RecordStore`.

    Observability: every execution runs under one trace ID that the
    shard workers adopt — the scatter emits a ``query.scatter`` root
    span with one ``query.shard`` child per shard (``shard`` / ``rows``
    / ``seconds`` attributes), worker log lines carry the caller's trace
    ID, and a slow execution lands one slow-log entry covering the whole
    fan-out.  ``execute(..., profile=True)`` returns a
    :class:`QueryProfile` whose root ``scatter`` node has one ``shard``
    child per shard (rows, per-shard wall time, buffer-pool page
    hits/misses attributed through
    :func:`~repro.storage.bufferpool.page_stats_scope`).
    """

    def __init__(
        self,
        store: "ShardedStore",
        *,
        plan_cache_size: int = 256,
        slow_log: SlowQueryLog | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.store = store
        self.plan_cache = PlanCache(maxsize=plan_cache_size)
        self.slow_log = slow_log
        #: Bounded per-shard retry used by partial mode before a failing
        #: shard is given up on (transient faults recover in place; a
        #: persistent fault costs max_attempts tries, then the shard is
        #: skipped).  Strict mode never retries — its semantics are
        #: byte-for-byte the pre-partial behaviour.
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self._engines = tuple(QueryEngine(shard) for shard in store.shards)
        self._engines_for = store.shards  # tuple identity watched for reopens
        self._pool: ThreadPoolExecutor | None = None
        self._shard_rows = tuple(
            _metrics.counter("query.scatter.shard.rows", shard=str(i))
            for i in range(store.shard_count)
        )
        self._shard_skipped = tuple(
            _metrics.counter("query.scatter.shard.skipped", shard=str(i))
            for i in range(store.shard_count)
        )
        self._bytes_per_row = 0.0

    def _refresh_engines(self) -> None:
        """Rebuild per-shard engines for shards the store swapped out
        (``ShardedStore.reopen_shard`` after a repair).  Identity check
        only — the no-change case costs one ``is``."""
        shards = self.store.shards
        if shards is self._engines_for:
            return
        engines = list(self._engines)
        for i, shard in enumerate(shards):
            if engines[i].store is not shard:
                engines[i] = QueryEngine(shard)
        self._engines = tuple(engines)
        self._engines_for = shards

    # -- public API --------------------------------------------------------

    def execute(
        self,
        query: str | Query,
        *,
        profile: bool = False,
        guard: Guard | None = None,
        timeout_s: float | None = None,
        cancel: CancelToken | None = None,
        max_rows: int | None = None,
        partial: bool = False,
    ) -> list[dict[str, Any]] | QueryProfile:
        """Run ``query`` across all shards and return the merged records.

        With ``profile=True``, returns a :class:`QueryProfile` instead:
        the merged rows plus a two-level operator tree — a ``scatter``
        root with one ``shard`` child per shard carrying that worker's
        rows, wall time, and buffer-pool page hits/misses.

        Bounds work as on :meth:`QueryEngine.execute` — pass a pre-built
        :class:`Guard` or the convenience knobs — except that the bound
        covers the *whole scatter*: the deadline and cancel token are
        shared by every shard worker, and ``max_rows`` limits the total
        rows examined across all shards (enforced at stride granularity
        while the workers run and on the total once they are done; see
        :class:`_SharedRowBudget`).

        ``partial=True`` opts into graceful degradation: quarantined
        shards are skipped up front, a shard whose worker fails is
        retried (bounded, via the engine's :class:`RetryPolicy`) and
        then skipped instead of failing the whole query, and the rows
        come back as a :class:`PartialResult` whose ``partial`` /
        ``shards_failed`` attributes say exactly what is missing (the
        profile carries the same fields).  Interruptions — deadline,
        cancellation, row budget — still raise: they bound the *caller's*
        resources, not a shard's health.  The default (strict) mode is
        all-or-nothing: a worker failure propagates, and a quarantined
        shard raises :class:`~repro.errors.ShardUnavailableError` up
        front — its bytes cannot be trusted, so strict refuses to read
        around (or from) it.
        """
        if guard is None and (
            timeout_s is not None or cancel is not None or max_rows is not None
        ):
            guard = Guard(
                deadline=Deadline.after(timeout_s) if timeout_s is not None else None,
                cancel=cancel,
                max_rows=max_rows,
            )
        try:
            return self._execute(
                query, profile=profile, guard=guard, partial=partial
            )
        except Exception:
            _FAILURES.inc()
            raise

    def execute_partial(
        self, query: str | Query, **kwargs: Any
    ) -> PartialResult | QueryProfile:
        """:meth:`execute` with ``partial=True`` (convenience alias)."""
        return self.execute(query, partial=True, **kwargs)  # type: ignore[return-value]

    def _execute(
        self,
        query: str | Query,
        *,
        profile: bool,
        guard: Guard | None,
        partial: bool = False,
    ) -> list[dict[str, Any]] | QueryProfile:
        with _logging.trace() as trace_id:
            parsed = self._parse(query)
            plan, fp, template, cached = self.plan_cache.get_or_plan_fingerprinted(
                parsed, self.store  # type: ignore[arg-type]
            )
            splan = plan_scatter(plan)
            self._check_clause_fields(splan)
            if not _WORKLOAD_TABLE.enabled:
                fp = None
            query_text = query if isinstance(query, str) else str(query)
            start = time.perf_counter()
            with _tracing.span(
                "query.scatter",
                access=plan.access.op,
                shards=self.store.shard_count,
            ) as sspan:
                sspan.set_attribute("trace_id", trace_id)
                try:
                    out, examined, metas, shards_failed = self._run_scatter(
                        splan, guard, partial=partial
                    )
                except QueryInterrupted as exc:
                    if fp is not None:
                        _RECORD_PACKED((
                            fp, template, 0, exc.rows_examined, -1,
                            time.perf_counter() - start,
                            0, cached, _interruption_kind(exc), False, None,
                        ))
                    raise
                seconds = time.perf_counter() - start
                sspan.set_attribute("rows", len(out))
                if shards_failed:
                    sspan.set_attribute("shards_failed", list(shards_failed))
            if partial:
                out = PartialResult(
                    out,
                    partial=bool(shards_failed),
                    shards_failed=shards_failed,
                )
                if shards_failed:
                    _SCATTER_PARTIAL.inc()
            _QUERY_SECONDS.observe(seconds)
            if fp is not None:
                # Worker CPU burns on pool threads, invisible to this
                # thread's CPU clock — record the execution unsampled
                # (cpu_ns = -1) rather than attribute only merge cost.
                _RECORD_PACKED((
                    fp, template, len(out), examined, -1, seconds,
                    _estimate_bytes(out, examined), cached,
                ))
            result: QueryProfile | None = None
            if profile:
                _PROFILED.inc()
                result = self._scatter_profile(
                    splan, out, examined, metas, seconds, cached, fp,
                    shards_failed=shards_failed if partial else (),
                )
            if _logging.would_log("debug"):
                _logging.debug(
                    "query.scatter.execute",
                    query=query_text,
                    access=plan.access.op,
                    shards=self.store.shard_count,
                    plan_cached=cached,
                    fingerprint=fp,
                    rows=len(out),
                    seconds=round(seconds, 6),
                    partial=bool(shards_failed),
                )
            self._maybe_slow_log(
                query_text, splan, cached, len(out), seconds, result, trace_id, fp
            )
            return result if result is not None else out

    def _scatter_profile(
        self,
        splan: ScatterPlan,
        out: list[dict[str, Any]],
        examined: int,
        metas: list[dict[str, Any] | None],
        seconds: float,
        plan_cached: bool,
        fingerprint: str | None,
        shards_failed: tuple[int, ...] = (),
    ) -> QueryProfile:
        """Assemble the EXPLAIN ANALYZE tree of one scatter execution."""
        children: list[OpProfile] = []
        hits = misses = 0
        for idx in shards_failed:
            children.append(
                OpProfile(
                    op="shard",
                    detail=f"shard {idx}  SKIPPED (failed or quarantined)",
                    rows_examined=0,
                    rows_returned=0,
                    seconds=0.0,
                )
            )
        for meta in metas:
            if meta is None:
                continue
            hits += meta["page_hits"]
            misses += meta["page_misses"]
            children.append(
                OpProfile(
                    op="shard",
                    detail=(
                        f"shard {meta['shard']}  pages "
                        f"hit={meta['page_hits']} miss={meta['page_misses']}"
                    ),
                    rows_examined=meta["examined"],
                    rows_returned=meta["rows"],
                    seconds=meta["seconds"],
                )
            )
        root = OpProfile(
            op="scatter",
            detail=(
                f"{splan.shard_plan.access.describe()} "
                f"over {self.store.shard_count} shards"
            ),
            rows_examined=examined,
            rows_returned=len(out),
            seconds=seconds,
            children=tuple(children),
        )
        return QueryProfile(
            rows=out,
            root=root,
            plan_text=splan.explain(),
            seconds=seconds,
            plan_cached=plan_cached,
            fingerprint=fingerprint,
            page_hits=hits,
            page_misses=misses,
            partial=bool(shards_failed),
            shards_failed=shards_failed,
        )

    def _maybe_slow_log(
        self,
        query_text: str,
        splan: ScatterPlan,
        plan_cached: bool,
        rows: int,
        seconds: float,
        profile: QueryProfile | None,
        trace_id: str,
        fingerprint: str | None,
    ) -> None:
        """One slow-log entry for the whole fan-out (no profiled re-run:
        re-scattering would double every shard's work — the per-shard
        spans already attribute the time)."""
        slow = self.slow_log
        if slow is None or seconds < slow.threshold_s:
            return
        slow.record(
            query=query_text,
            plan=splan.explain(),
            plan_cached=plan_cached,
            rows=rows,
            seconds=seconds,
            profile=profile,
            reexecuted=False,
            trace_id=trace_id,
            fingerprint=fingerprint,
        )

    def explain(self, query: str | Query) -> str:
        """The scatter plan :meth:`execute` would use, as text."""
        parsed = self._parse(query)
        plan, _, _, _ = self.plan_cache.get_or_plan_fingerprinted(
            parsed, self.store  # type: ignore[arg-type]
        )
        return plan_scatter(plan).explain()

    def count(self, query: str | Query) -> int:
        """Number of records matching ``query`` (clauses beyond the filter
        are rejected, as on :meth:`QueryEngine.count`)."""
        parsed = self._parse(query)
        if parsed.group_by or parsed.order_by or parsed.limit is not None:
            raise QueryPlanError(
                "COUNT accepts a bare filter (no GROUP BY/ORDER BY/LIMIT)"
            )
        return len(self.execute(parsed))

    def aggregate(
        self,
        query: str | Query,
        field: str,
        *,
        guard: Guard | None = None,
    ) -> dict[str, Any]:
        """Scatter-gather numeric aggregate of ``field`` over the filter.

        Each shard folds its matching records into a
        :class:`PartialAggregate`; the partials merge into one row of
        ``{"count", "sum", "min", "max", "avg"}`` over the non-None
        values.  ``query`` must be a bare filter — GROUP BY COUNT goes
        through :meth:`execute`; this is the programmatic surface for the
        remaining decomposable aggregates.
        """
        parsed = self._parse(query)
        if parsed.group_by or parsed.order_by or parsed.limit is not None:
            raise QueryPlanError(
                "aggregate() accepts a bare filter (no GROUP BY/ORDER BY/LIMIT)"
            )
        schema = self.store.schema
        if not schema.has_field(field):
            raise QueryPlanError(f"cannot aggregate unknown field {field!r}")
        kind = schema.field(field).type.value
        if kind not in ("int", "float"):
            raise QueryPlanError(
                f"aggregate needs a numeric field; {field!r} is {kind}"
            )
        plan, _, _, _ = self.plan_cache.get_or_plan_fingerprinted(
            parsed, self.store  # type: ignore[arg-type]
        )
        splan = plan_scatter(plan)

        def fold(rows: Iterator[dict[str, Any]]) -> PartialAggregate:
            partial = PartialAggregate()
            add = partial.add
            for row in rows:
                value = row.get(field)
                if value is not None:
                    add(value)
            return partial

        partials, _, _, _ = self._scatter(splan, guard, fold)
        merged = PartialAggregate()
        for partial in partials:
            merged.merge(partial)
        _EXECUTIONS.inc()
        _SCATTER_COUNT.inc()
        return merged.finalize()

    def close(self) -> None:
        """Shut down the worker pool (idempotent; shards stay open)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- scatter/gather internals ------------------------------------------

    @staticmethod
    def _parse(query: str | Query) -> Query:
        if isinstance(query, Query):
            return query
        return parse_query(query)

    def _check_clause_fields(self, splan: ScatterPlan) -> None:
        schema = self.store.schema
        if splan.group_by is not None and not schema.has_field(splan.group_by):
            raise QueryPlanError(f"cannot GROUP BY unknown field {splan.group_by!r}")
        if splan.order_by is not None:
            known = schema.has_field(splan.order_by)
            if splan.group_by is not None:
                known = splan.order_by in (splan.group_by, "count")
            if not known:
                raise QueryPlanError(
                    f"cannot ORDER BY unknown field {splan.order_by!r}"
                )

    def _run_scatter(
        self, splan: ScatterPlan, guard: Guard | None, *, partial: bool = False
    ) -> tuple[
        list[dict[str, Any]], int, list[dict[str, Any] | None], tuple[int, ...]
    ]:
        """Execute the scatter plan; returns (rows, rows_examined,
        per-shard metadata in shard order, failed shard indexes)."""
        if splan.group_by is not None:
            worker = self._fold_counts(splan.group_by)
        elif splan.order_by is not None:
            worker = self._fold_sorted(splan)
        else:
            worker = self._fold_plain(splan)
        parts, examined, metas, failed = self._scatter(
            splan, guard, worker, partial=partial
        )

        merge_start = time.perf_counter()
        if splan.group_by is not None:
            out = self._gather_counts(splan, parts)
        elif splan.order_by is not None:
            out = self._gather_sorted(splan, parts)
        else:
            out = self._gather_plain(splan, parts)
        _SCATTER_MERGE_SECONDS.observe(time.perf_counter() - merge_start)
        for meta in metas:
            if meta is not None:
                self._shard_rows[meta["shard"]].inc(meta["rows"])
        _EXECUTIONS.inc()
        _SCATTER_COUNT.inc()
        _ROWS_RETURNED.inc(len(out))
        return out, examined, metas, failed

    def _scatter(
        self,
        splan: ScatterPlan,
        guard: Guard | None,
        fold: Any,
        *,
        partial: bool = False,
    ) -> tuple[list[Any], int, list[dict[str, Any] | None], tuple[int, ...]]:
        """Run ``fold`` over every shard's candidate rows, in parallel.

        ``fold(rows_iterator) -> part`` consumes one shard's
        residual-filtered candidates; the per-shard parts come back in
        shard order.  Returns ``(parts, total_rows_examined, metas,
        failed)`` where ``metas[i]`` describes shard ``i``'s work (rows,
        wall time, buffer-pool page touches) — ``None`` for a worker
        that failed — and ``failed`` is the tuple of skipped shard
        indexes (always empty in strict mode, which raises instead).
        Workers adopt the caller's trace context, so their
        ``query.shard`` spans nest under the ``query.scatter`` root and
        their log lines carry the same trace ID.

        In partial mode a quarantined shard is skipped without being
        touched, a shard whose worker raises gets a bounded retry (the
        engine's :class:`RetryPolicy` — only transient faults actually
        re-run) and is then skipped, and sibling workers are *not*
        aborted by a skippable failure.  Interruptions (deadline /
        cancel / budget) abort the scatter in both modes.
        """
        self._refresh_engines()
        if guard is not None:
            guard.check()  # fail fast before spawning workers
        abort = CancelToken()
        worker_guards: list[Guard | None]
        if guard is None:
            worker_guards = [None] * self.store.shard_count
        else:
            ledger = (
                _SharedRowBudget(guard.max_rows)
                if guard.max_rows is not None
                else None
            )
            cancel = _EitherCancelled(guard.cancel, abort)
            worker_guards = [
                _ShardGuard(
                    deadline=guard.deadline,
                    cancel=cancel,
                    ledger=ledger,
                    stride=guard.stride,
                )
                for _ in range(self.store.shard_count)
            ]

        ctx = _tracing.TraceContext.capture()
        metas: list[dict[str, Any] | None] = [None] * self.store.shard_count
        health = getattr(self.store, "health", None)
        failed: dict[int, BaseException] = {}
        failed_lock = threading.Lock()
        skipped = object()  # sentinel part for a shard given up on

        def attempt(idx: int) -> Any:
            engine = self._engines[idx]
            wguard = worker_guards[idx]
            stats = PageStats()
            shard_start = time.perf_counter()
            examined = [0]
            with page_stats_scope(stats):
                candidates = engine._candidates(splan.shard_plan, wguard, examined)
                try:
                    rows: Iterator[dict[str, Any]] = candidates
                    residual = splan.shard_plan.residual
                    if residual is not None:
                        rows = (r for r in rows if residual.evaluate(r))
                    part = fold(rows)
                finally:
                    candidates.close()
            elapsed = time.perf_counter() - shard_start
            n = part.count if isinstance(part, PartialAggregate) else len(part)
            metas[idx] = {
                "shard": idx,
                "rows": n,
                "seconds": elapsed,
                "examined": examined[0],
                "page_hits": stats.hits,
                "page_misses": stats.misses,
            }
            return part

        def run_shard(idx: int) -> Any:
            with ctx.attach(), _tracing.span("query.shard", shard=idx) as sspan:
                try:
                    if partial:
                        part = self.retry.call(
                            lambda: attempt(idx), describe=f"query.shard{idx}"
                        )
                    else:
                        part = attempt(idx)
                except QueryInterrupted:
                    # The caller's bound tripped (or a sibling's abort
                    # propagated) — not a shard fault, in either mode.
                    abort.cancel()
                    raise
                except BaseException as exc:
                    if health is not None:
                        health.record_error(idx, exc, source="query")
                    if not partial:
                        abort.cancel()  # stop the sibling workers promptly
                        raise
                    with failed_lock:
                        failed[idx] = exc
                    self._shard_skipped[idx].inc()
                    sspan.set_attribute("skipped", True)
                    _logging.warn(
                        "query.scatter.shard_skipped",
                        shard=idx,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    return skipped
                if health is not None:
                    health.record_success(idx)
                meta = metas[idx]
                if meta is not None:
                    sspan.set_attribute("rows", meta["rows"])
                    sspan.set_attribute("seconds", round(meta["seconds"], 6))
                return part

        count = self.store.shard_count
        indexes = list(range(count))
        if health is not None:
            for idx in list(indexes):
                if not health.is_serving(idx):
                    if not partial:
                        # Strict queries must not read a shard pulled
                        # out of service — a corruption quarantine means
                        # its bytes cannot be trusted.  Fail fast with
                        # the typed error instead of fanning out.
                        raise ShardUnavailableError(
                            idx, health.state(idx), health.reason(idx)
                        )
                    indexes.remove(idx)
                    failed[idx] = ShardUnavailableError(
                        idx, health.state(idx), health.reason(idx)
                    )
                    self._shard_skipped[idx].inc()
        if len(indexes) == 1:
            parts = [run_shard(indexes[0])]
        else:
            pool = self._pool
            if pool is None:
                pool = self._pool = ThreadPoolExecutor(
                    max_workers=count, thread_name_prefix="repro-scatter"
                )
            futures: list[Future] = [pool.submit(run_shard, i) for i in indexes]
            parts = []
            errors: list[BaseException] = []
            for future in futures:
                try:
                    parts.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            if errors:
                self._raise_first(errors, worker_guards)
        parts = [part for part in parts if part is not skipped]

        examined = sum(m["examined"] for m in metas if m is not None)
        if guard is not None:
            # Fold the workers' progress back into the caller's guard so
            # its stats()/partial-progress reporting covers the scatter.
            guard.rows_examined += examined
            # A worker that LIMIT stopped between ticks settled its rows
            # unchecked, so no worker need have seen the shared budget
            # crossed: the scatter's total is held to it here.
            guard.check_rows()
        return parts, examined, metas, tuple(sorted(failed))

    def _raise_first(
        self, errors: list[BaseException], worker_guards: list[Guard | None]
    ) -> None:
        """Propagate the scatter's root cause.

        Workers stopped by the internal abort token unwind with
        :class:`QueryCancelled` — secondary noise when a sibling hit the
        real limit — so any other error (in shard order) wins; a
        cancellation propagates only when it is all there is (i.e. the
        caller really cancelled).  Interrupted errors report the rows
        examined by the *whole* scatter, not one worker.
        """
        total = sum(g.rows_examined for g in worker_guards if g is not None)
        chosen = next(
            (e for e in errors if not isinstance(e, QueryCancelled)), errors[0]
        )
        if isinstance(chosen, QueryInterrupted):
            chosen.rows_examined = total
        raise chosen

    # -- per-shard folds ----------------------------------------------------

    def _fold_counts(self, field: str) -> Any:
        def fold(rows: Iterator[dict[str, Any]]) -> dict[Any, int]:
            counts: dict[Any, int] = {}
            for row in rows:
                value = row.get(field)
                if value is None:
                    continue
                values = value if isinstance(value, list) else [value]
                for v in values:
                    counts[v] = counts.get(v, 0) + 1
            return counts

        return fold

    def _fold_sorted(self, splan: ScatterPlan) -> Any:
        field = splan.order_by
        pk = self.store.schema.primary_key

        def sort_key(record: dict[str, Any]) -> tuple:
            return (_sort_key(record.get(field)), _sort_key(record.get(pk)))

        limit = splan.shard_limit

        def fold(rows: Iterator[dict[str, Any]]) -> list[dict[str, Any]]:
            if limit is not None:
                top = heapq.nlargest if splan.descending else heapq.nsmallest
                return top(limit, rows, key=sort_key)
            return sorted(rows, key=sort_key, reverse=splan.descending)

        return fold

    def _fold_plain(self, splan: ScatterPlan) -> Any:
        limit = splan.shard_limit

        def fold(rows: Iterator[dict[str, Any]]) -> list[dict[str, Any]]:
            if limit is not None:
                return list(islice(rows, limit))
            return list(rows)

        return fold

    # -- gather merges ------------------------------------------------------

    def _gather_counts(
        self, splan: ScatterPlan, parts: list[dict[Any, int]]
    ) -> list[dict[str, Any]]:
        field = splan.group_by
        totals: dict[Any, int] = {}
        for part in parts:
            for value, count in part.items():
                totals[value] = totals.get(value, 0) + count
        # Format exactly as QueryEngine._aggregate: value-sorted rows.
        out = [
            {field: value, "count": count}
            for value, count in sorted(totals.items(), key=lambda kv: _sort_key(kv[0]))
        ]
        if splan.order_by is not None:
            order_field = splan.order_by
            out.sort(
                key=lambda r: _sort_key(r.get(order_field)),
                reverse=splan.descending,
            )
        if splan.limit is not None:
            out = out[: splan.limit]
        return out

    def _gather_sorted(
        self, splan: ScatterPlan, parts: list[list[dict[str, Any]]]
    ) -> list[dict[str, Any]]:
        field = splan.order_by
        pk = self.store.schema.primary_key

        def sort_key(record: dict[str, Any]) -> tuple:
            return (_sort_key(record.get(field)), _sort_key(record.get(pk)))

        merged: Iterator[dict[str, Any]] = heapq.merge(
            *parts, key=sort_key, reverse=splan.descending
        )
        if splan.limit is not None:
            return list(islice(merged, splan.limit))
        return list(merged)

    def _gather_plain(
        self, splan: ScatterPlan, parts: list[list[dict[str, Any]]]
    ) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for part in parts:
            out.extend(part)
        if splan.limit is not None:
            out = out[: splan.limit]
        return out
