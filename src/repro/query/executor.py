"""Query executor: run planned queries against a record store.

The executor is deliberately small: the access path yields candidate
records, the residual expression filters them, and ORDER BY / LIMIT shape
the output.  Records coming from list-field index probes are de-duplicated
by primary key (a list may contain the probe value twice).

:class:`QueryEngine` is the public entry point, over a
:class:`~repro.storage.store.RecordStore` or a
:class:`~repro.storage.sharded.ShardedStore` alike::

    engine = QueryEngine(store)
    rows = engine.execute('author:"McAteer" AND year >= 1978')
    print(engine.explain('year >= 1978'))

A sharded store is read through an inline exchange (:class:`_Exchange`):
each serving shard's access-path stream is read in the calling thread,
chained in shard order, or merged on ``(index key, primary key)`` when
the plan is index-ordered.  The one stream then goes through the same
filter → group → sort → limit pipeline as a single store's, under one
guard.  ``ORDER BY`` sorts record rows by ``(value, primary key)`` on
every store, so stores of one shard or of many return the same rows for
every ordered or grouped query.

``execute(..., profile=True)`` is the ``EXPLAIN ANALYZE`` surface: instead
of a bare row list it returns a :class:`QueryProfile` whose operator tree
annotates every node (seq-scan, index lookups/ranges, filter, aggregate,
sort, limit, and on a sharded store one shard child per shard under the
access node) with wall time, CPU time (``time.thread_time_ns``), bytes
touched (sampled estimate), and rows-examined/rows-returned counts.
Profiled and unprofiled runs share one pipeline
(:meth:`QueryEngine._run_plan`), which decides access, filter, GROUP BY,
ORDER BY and LIMIT for both; profiling only times its stages.  The
unprofiled path streams.  A profiled run reads access and filter in
rounds that pull as many candidates as passing rows are still missing,
and times each blocking stage (GROUP BY, sort, LIMIT) as one block, so no
clock is read per row.  Both read the access path only as far as the
output needs: when no sort stands between the scan and LIMIT (no ORDER
BY, or an index-ordered plan — see
:attr:`~repro.query.planner.Plan.index_ordered`), the scan stops at
LIMIT.  Each execution — an ``execute()`` run, or a ``count()``,
``aggregate()`` or ``execute_paged()`` call — counts once in
``query.executions``, ``query.rows.examined`` (the rows the access path
actually yielded), ``query.rows.returned`` and the ``query.seconds``
latency histogram (:func:`_count_execution`).

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
import functools
import heapq
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, TypeVar

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
from repro.storage.sharded import ShardedStore, merge_key_ordered
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
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.health import ShardHealthMachine
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
# execute(), count(), aggregate() or execute_paged() that unwound with
# an error, interruptions included.
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
    touched (counted in the query's
    :func:`repro.storage.bufferpool.page_stats_scope`; on a sharded
    store, the sum of the access node's per-shard children).  Both stay
    0 against a store with no checkpoint yet (in-memory, or not yet
    checkpointed) — there is no pool to hit.
    """

    rows: list[dict[str, Any]]
    root: OpProfile
    plan_text: str
    seconds: float
    plan_cached: bool = False  #: plan came from the engine's PlanCache
    fingerprint: str | None = None  #: workload fingerprint of the query shape
    page_hits: int = 0  #: buffer-pool hits attributed to this query
    page_misses: int = 0  #: buffer-pool misses attributed to this query
    partial: bool = False  #: a partial-mode execution skipped shard(s)
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
        *children: OpProfile,
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
            children=children,
        )


def _pull_to_limit(
    candidates: Iterator[dict[str, Any]],
    residual: Expr | None,
    limit: int | None,
    access_clock: _StageClock,
    filter_clock: _StageClock,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """``(pulled, passed)``: candidates read only as far as ``limit``
    passing rows need (all of them when ``limit`` is None).

    Each round pulls as many candidates as passing rows are still
    missing, rows a lazy pipeline must read in any case, and then
    filters them; a round that comes back short has drained the access
    path.  So the access path yields exactly the rows an unprofiled run
    reads, while access and filter time stay apart.
    """
    want = sys.maxsize if limit is None else limit
    pulled: list[dict[str, Any]] = []
    passed: list[dict[str, Any]] = []
    while len(passed) < want:
        need = want - len(passed)
        with access_clock:
            batch = list(islice(candidates, need))
        pulled += batch
        if residual is None:
            passed += batch
        elif batch:
            with filter_clock:
                passed += filter(residual.evaluate, batch)
        if len(batch) < need:
            break
    return pulled, passed


def _block(
    blocks: list[tuple[Any, ...]] | None,
    op: str,
    detail: str,
    step: Callable[[Any, Any], list[dict[str, Any]]],
    rows: Iterable[dict[str, Any]],
    arg: Any,
) -> list[dict[str, Any]]:
    """``step(rows, arg)``, a stage that takes in all of its input before
    it returns.  In a profiled run (``blocks`` is a list) the stage is
    timed as one block and noted for the operator tree."""
    if blocks is None:
        return step(rows, arg)
    with _StageClock() as clock:
        out = step(rows, arg)
    blocks.append((clock, op, detail, rows, out))
    return out


def _head(rows: Iterable[dict[str, Any]], limit: int) -> list[dict[str, Any]]:
    return list(islice(rows, limit))


_F = TypeVar("_F", bound=Callable[..., Any])


def _counts_failures(method: _F) -> _F:
    """Count one ``query.failures`` for every exception ``method`` raises
    (``execute`` counts its own, inline on the hot path)."""

    @functools.wraps(method)
    def counted(*args: Any, **kwargs: Any) -> Any:
        try:
            return method(*args, **kwargs)
        except Exception:
            _FAILURES.inc()
            raise

    return counted  # type: ignore[return-value]


def _count_execution(start: float, examined: int, returned: int) -> None:
    """Count one finished execution that started at ``start``
    (``time.perf_counter``): the rows its access path yielded and the
    rows it returned."""
    _EXECUTIONS.inc()
    _ROWS_EXAMINED.inc(examined)
    _ROWS_RETURNED.inc(returned)
    _QUERY_SECONDS.observe(time.perf_counter() - start)


class QueryEngine:
    """Plans and executes query strings (or pre-parsed :class:`Query`)
    over a :class:`~repro.storage.store.RecordStore` or a
    :class:`~repro.storage.sharded.ShardedStore`.

    Plans are memoized in a per-engine :class:`PlanCache` (LRU of
    ``plan_cache_size`` entries, keyed on the parsed AST plus the store's
    ``index_epoch``) — a repeated query skips the planner's rule search
    entirely, and any index create/drop or bulk write retires every
    cached plan by bumping the epoch.

    On a sharded store the engine answers to ``store.health``.  By
    default (strict) a shard that is not serving raises
    :class:`~repro.errors.ShardUnavailableError` before anything is
    read, and a shard's read error is recorded there and propagates.
    ``execute(..., partial=True)`` skips such shards instead, and a shard
    whose rows still fail to read under ``retry`` (bounded: transient
    faults recover in place, a persistent fault costs ``max_attempts``
    tries) is skipped too.  The rows then come back as a
    :class:`PartialResult`, and a profile carries the same ``partial``
    and ``shards_failed`` fields.

    Every :meth:`execute` runs under a trace ID (see
    :func:`repro.obs.logging.trace`): its log events, its spans, and —
    when a :class:`~repro.obs.slowlog.SlowQueryLog` is attached and the
    query crosses the threshold — its slow-log entry all carry that one
    ID.  The entry records that one execution, which is never run again:
    its plan, rows and rows examined, and its EXPLAIN ANALYZE tree when it
    ran with ``profile=True``.
    """

    def __init__(
        self,
        store: "RecordStore | ShardedStore",
        *,
        plan_cache_size: int = 256,
        slow_log: SlowQueryLog | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.store = store
        self.plan_cache = PlanCache(maxsize=plan_cache_size)
        self.slow_log = slow_log
        #: Retry of a failing shard's read in partial mode; strict mode
        #: never retries.
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
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

    def close(self) -> None:
        """Nothing to release: shards are read in the calling thread."""

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
        partial: bool = False,
    ) -> list[dict[str, Any]] | QueryProfile:
        """Run ``query`` and return the matching records.

        With ``profile=True``, returns a :class:`QueryProfile` instead:
        the rows plus the annotated operator tree with per-node timings
        and rows-examined/rows-returned counts (``EXPLAIN ANALYZE``).

        Execution can be bounded: pass a pre-built
        :class:`~repro.resilience.Guard`, or let the convenience knobs
        (``timeout_s`` wall clock, ``cancel`` token, ``max_rows`` row
        budget) build one.  The bound covers every shard of a sharded
        store: ``max_rows`` counts the rows examined across all of them.
        A violated bound unwinds with the matching
        :class:`~repro.errors.QueryInterrupted` subclass carrying
        partial-progress stats; a profiled run additionally attaches the
        partial EXPLAIN ANALYZE tree as ``exc.partial``.  An explicit
        ``guard`` takes precedence over the knobs.

        ``partial=True`` lets a sharded store degrade instead of failing
        (see the class docstring); the rows come back as a
        :class:`PartialResult`.  Interruptions still raise in both modes:
        they bound the caller's resources, not a shard's health.
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
            return self._execute(query, profile=profile, guard=guard, partial=partial)
        except Exception:
            _FAILURES.inc()
            raise

    def _execute(
        self,
        query: str | Query,
        *,
        profile: bool,
        guard: Guard | None,
        partial: bool,
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
                    with _tracing.span(
                        "query.execute", access=plan.access.op, profiled=True,
                        trace_id=trace_id,
                    ) as qspan:
                        if fp is not None:
                            qspan.set_attribute("fingerprint", fp)
                        rows, examined, exchange, root = self._run_plan(
                            plan, guard, partial, profile=True
                        )
                        pages = exchange.pages
                        qspan.set_attribute("rows", len(rows))
                        if pages.hits or pages.misses:
                            qspan.set_attribute("page_hits", pages.hits)
                            qspan.set_attribute("page_misses", pages.misses)
                        if exchange.failed:
                            qspan.set_attribute("shards_failed", list(exchange.shards_failed))
                else:
                    rows, examined, exchange, root = self._run_plan(plan, guard, partial)
                seconds = time.perf_counter() - start
            except QueryInterrupted as exc:
                seconds = time.perf_counter() - start
                if profile:
                    exc.partial = QueryProfile(
                        rows=[],
                        root=OpProfile(
                            op=plan.access.op,
                            detail=f"{plan.access.describe()} "
                            f"[interrupted: {type(exc).__name__}]",
                            rows_examined=exc.rows_examined,
                            rows_returned=0,
                            seconds=seconds,
                        ),
                        plan_text=self._explain(plan),
                        seconds=seconds,
                        plan_cached=cached,
                        fingerprint=fp,
                    )
                if fp is not None:
                    _RECORD_PACKED((
                        fp, template, 0, exc.rows_examined,
                        time.thread_time_ns() - cpu_start if cpu_start >= 0 else -1,
                        seconds, 0, cached, _interruption_kind(exc), False, None,
                    ))
                raise
            failed = exchange.shards_failed
            if profile:
                result: list[dict[str, Any]] | QueryProfile = QueryProfile(
                    rows=rows,
                    root=root,
                    plan_text=self._explain(plan),
                    seconds=seconds,
                    plan_cached=cached,
                    fingerprint=fp,
                    page_hits=exchange.pages.hits,
                    page_misses=exchange.pages.misses,
                    partial=bool(failed),
                    shards_failed=failed,
                )
            elif partial:
                result = PartialResult(rows, partial=bool(failed), shards_failed=failed)
            else:
                result = rows
            if partial and failed:
                _PARTIAL.inc()
            if fp is not None:
                if cpu_start < 0:
                    cpu_ns = -1
                else:
                    cpu_ns = time.thread_time_ns() - cpu_start
                    # A sample trip also ticks the byte-estimate
                    # resample countdown (see _BYTES_REFRESH).
                    if not profile:
                        self._bytes_rounds -= 1
                        if self._bytes_rounds < 0 and rows:
                            self._refresh_bytes_per_row(rows)
                # Packed positional form of WorkloadTable.record — one
                # deque append per execution (see record_packed); the
                # common successful path uses the short 8-slot shape.
                if profile:
                    if rows:
                        self._refresh_bytes_per_row(rows)
                    _RECORD_PACKED((
                        fp, template, len(rows), examined, cpu_ns, seconds,
                        examined * self._bytes_per_row, cached, None, False,
                        [n.workload_node() for n in root.iter_nodes()],
                    ))
                else:
                    _RECORD_PACKED((
                        fp, template, len(rows), examined, cpu_ns, seconds,
                        examined * self._bytes_per_row, cached,
                    ))
            if _logging.would_log("debug"):
                _logging.debug(
                    "query.execute",
                    query=query_text,
                    access=plan.access.op,
                    plan_cached=cached,
                    fingerprint=fp,
                    rows=len(rows),
                    seconds=round(seconds, 6),
                    profiled=profile,
                )
            slow = self.slow_log
            if slow is not None and seconds >= slow.threshold_s:
                # The entry is this execution's: its rows, the rows it
                # examined and, when it ran profiled, its operator tree.
                slow.record(
                    query=query_text,
                    plan=self._explain(plan),
                    plan_cached=cached,
                    rows=len(rows),
                    rows_examined=examined,
                    seconds=seconds,
                    profile=result if profile else None,
                    trace_id=trace_id,
                    fingerprint=fp,
                )
            return result

    def explain(self, query: str | Query) -> str:
        """The plan that :meth:`execute` would use, as text."""
        parsed = self._parse(query)
        plan, _ = self._plan(parsed)
        return self._explain(plan)

    def _plan(self, parsed: Query) -> tuple[Plan, bool]:
        return self.plan_cache.get_or_plan(parsed, self.store)

    def _explain(self, plan: Plan) -> str:
        """``plan.explain()`` with, on a sharded store, the exchange that
        collects the shards' access-path streams after the access line."""
        lines = plan.explain().split("\n")
        store = self.store
        if isinstance(store, ShardedStore):
            if plan.index_ordered:
                how = f"merge on ({plan.order_by}, {store.schema.primary_key})"
            else:
                how = "chain in shard order"
            lines.insert(1, f"EXCHANGE {store.shard_count} shards, {how}")
        return "\n".join(lines)

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

    def execute_without_indexes(self, query: str | Query) -> list[dict[str, Any]]:
        """Run ``query`` as a pure scan (the E3 baseline and test oracle)."""
        parsed = self._parse(query)
        plan = Plan(
            access=FullScan(),
            residual=parsed.where,
            group_by=parsed.group_by,
            order_by=parsed.order_by,
            descending=parsed.descending,
            limit=parsed.limit,
        )
        return self.run_plan(plan)

    # -- plan execution --------------------------------------------------------

    @_counts_failures
    def count(self, query: str | Query) -> int:
        """Number of records matching ``query`` (ignores GROUP BY/LIMIT)."""
        parsed = self._parse(query)
        plan, _ = self._plan(Query(where=parsed.where))
        start = time.perf_counter()
        examined = [0]
        rows: Any = self._candidates(plan, examined=examined)
        if plan.residual is not None:
            rows = filter(plan.residual.evaluate, rows)
        total = sum(1 for _ in rows)
        _count_execution(start, examined[0], 0)
        return total

    @_counts_failures
    def aggregate(
        self,
        query: str | Query,
        field: str,
        *,
        guard: Guard | None = None,
    ) -> dict[str, Any]:
        """Numeric aggregate of ``field`` over the records ``query`` matches.

        One :class:`PartialAggregate` folds the non-None values into a
        row of ``{"count", "sum", "min", "max", "avg"}``.  ``query`` must
        be a bare filter: GROUP BY COUNT goes through :meth:`execute`.
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
        plan, _ = self._plan(parsed)
        start = time.perf_counter()
        if guard is not None:
            guard.check()
        aggregate = PartialAggregate()
        examined = [0]
        candidates = self._candidates(plan, guard, examined)
        try:
            rows: Iterator[dict[str, Any]] = candidates
            if plan.residual is not None:
                residual = plan.residual
                rows = (r for r in rows if residual.evaluate(r))
            for row in rows:
                value = row.get(field)
                if value is not None:
                    aggregate.add(value)
        finally:
            candidates.close()
        _count_execution(start, examined[0], 1)
        return aggregate.finalize()

    @_counts_failures
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
        began = time.perf_counter()
        examined = [0]
        rows: Any = self._candidates(plan, examined=examined)
        if plan.residual is not None:
            rows = filter(plan.residual.evaluate, rows)

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
        _count_execution(began, examined[0], len(page_rows))
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
        self,
        plan: Plan,
        guard: Guard | None,
        partial: bool = False,
        profile: bool = False,
    ) -> tuple[list[dict[str, Any]], int, "_Exchange", OpProfile | None]:
        """:meth:`run_plan`'s rows, the rows the access path yielded, the
        exchange that read them and, with ``profile``, the operator tree.

        Every execution takes its access path, filter, GROUP BY, ORDER BY
        and LIMIT from here.  ``profile`` only times the stages: access
        and filter over :func:`_pull_to_limit`'s rounds, which read what
        the streaming pipeline reads, and each blocking stage as one
        block, so no clock is read per row.  On a sharded store the
        access node has one child per shard (see :class:`_ShardMeter`),
        and the exchange's ``pages`` hold the query's buffer-pool pages.
        """
        start = time.perf_counter()
        exchange = _Exchange(
            self.store, partial=partial, retry=self.retry,
            pages=PageStats() if profile else None,
        )
        if guard is not None:
            # Fail fast on a pre-expired deadline or pre-cancelled token
            # instead of after the first check stride.
            guard.check()
        residual = plan.residual
        examined = [0]
        candidates = self._candidates(plan, guard, examined, exchange)
        if plan.limit == 0:
            # No stage needs a row: the access path is never read.
            candidates.close()
        blocks: list[tuple[Any, ...]] | None = [] if profile else None
        try:
            if profile:
                access_clock, filter_clock = _StageClock(), _StageClock()
                # Pool pages are only touched while the access path
                # streams records off the paged tree.
                with page_stats_scope(exchange.pages):
                    pulled, passed = _pull_to_limit(
                        candidates, residual,
                        plan.limit if plan.stops_at_limit else None,
                        access_clock, filter_clock,
                    )
                rows: Iterable[dict[str, Any]] = passed
            elif residual is not None:
                rows = filter(residual.evaluate, candidates)
            else:
                rows = candidates
            if plan.group_by is not None:
                rows = _block(
                    blocks, "aggregate", f"GROUP BY {plan.group_by} (COUNT)",
                    self._aggregate, rows, plan.group_by,
                )
            if plan.order_by is not None:
                self._check_order_field(plan)
                if not plan.index_ordered:
                    order = "DESC" if plan.descending else "ASC"
                    rows = _block(
                        blocks, "sort", f"ORDER BY {plan.order_by} {order}",
                        self._ordered, rows, plan,
                    )
            if plan.limit is not None:
                rows = _block(blocks, "limit", f"LIMIT {plan.limit}", _head, rows, plan.limit)
            out = rows if isinstance(rows, list) else list(rows)
        finally:
            # Ends a scan that LIMIT stopped, which settles its count.
            candidates.close()
        _count_execution(start, examined[0], len(out))
        if blocks is None:
            return out, examined[0], exchange, None
        _PROFILED.inc()
        detail = plan.access.describe()
        if plan.index_ordered:
            detail += f"; index order serves ORDER BY {plan.order_by} ASC"
        node = access_clock.profile(
            plan.access.op, detail, examined[0], pulled, *exchange.nodes(),
            nbytes=_estimate_bytes(pulled, examined[0]),
        )
        if residual is not None:
            node = filter_clock.profile(
                "filter", str(residual), len(pulled), passed, node,
                nbytes=_estimate_bytes(pulled),
            )
        for clock, op, detail, rows_in, rows_out in blocks:
            # GROUP BY's bytes are those of the records it counted.
            node = clock.profile(
                op, detail, len(rows_in), rows_out, node,
                nbytes=_estimate_bytes(rows_in) if op == "aggregate" else None,
            )
        return out, examined[0], exchange, node

    def _check_order_field(self, plan: Plan) -> None:
        field = plan.order_by
        known = self.store.schema.has_field(field)
        if plan.group_by is not None:
            known = field in (plan.group_by, "count")
        if not known:
            raise QueryPlanError(f"cannot ORDER BY unknown field {field!r}")

    def _ordered(
        self, rows: Iterable[dict[str, Any]], plan: Plan
    ) -> list[dict[str, Any]]:
        """``rows`` in ``plan``'s ORDER BY order, cut to its LIMIT if it has
        one.  Under a LIMIT a heap holds only the rows kept; it returns
        what the stable sort's first ``limit`` rows would be."""
        key = self._order_key(plan)
        if plan.limit is None:
            return sorted(rows, key=key, reverse=plan.descending)
        top = heapq.nlargest if plan.descending else heapq.nsmallest
        return top(plan.limit, rows, key=key)

    def _order_key(self, plan: Plan) -> Callable[[dict[str, Any]], Any]:
        """The sort key of ``plan``'s ORDER BY.

        Record rows sort by ``(value, primary key)`` on every store, so
        ties have one order; DESC reverses both parts.  GROUP BY rows sort
        by the value alone and, the sort being stable, keep their
        group-value order among ties.
        """
        field = plan.order_by
        if plan.group_by is not None:
            return lambda row: _sort_key(row.get(field))
        pk = self.store.schema.primary_key
        return lambda row: (_sort_key(row.get(field)), _sort_key(row.get(pk)))

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
        exchange: "_Exchange | None" = None,
    ) -> Iterator[dict[str, Any]]:
        """The access path's records over every shard ``exchange`` reads
        (a strict one by default), pulled lazily.

        Every row the access path yields is charged to ``guard`` as it is
        taken (in partial mode, as the exchange reads it), and added to
        ``examined[0]`` once the stream is drained or closed: the rows
        examined that the workload table and EXPLAIN ANALYZE report.  One
        guard covers every shard, so the row budget is exact across them.
        Each primary key is yielded once.
        """
        if exchange is None:
            exchange = _Exchange(self.store)
        access = plan.access
        rows = exchange.rows(plan, guard)
        if exchange.partial:
            # Partial mode charges and counts each shard's rows as it
            # reads them, before any is handed on (_Exchange._read).
            guard = None
        # The guard is ticked once per block of rows taken (_block_end),
        # so nothing is read ahead of the consumer; rows taken since the
        # last tick are settled when the stream is closed early.
        pulled = charged = 0
        due = 0 if guard is None else _block_end(guard, 0)
        # A list field's range or an IN list can meet one record twice.
        seen: set[Any] | None = (
            set() if isinstance(access, (IndexMultiLookup, IndexRange)) else None
        )
        primary_key_of = self.store.schema.primary_key_of
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
                examined[0] += exchange.read if exchange.partial else pulled

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


# -- partial results and numeric aggregates -------------------------------

# Partial-mode executions that returned a degraded (incomplete) result —
# the numerator of a "how often are we serving partial" SLO.
_PARTIAL = _metrics.counter("query.scatter.partial.count")


class PartialResult(list):
    """Rows from a partial-mode execution, plus degradation metadata.

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


@dataclass(slots=True)
class PartialAggregate:
    """Running aggregate state over one numeric field.

    Carries the classic decomposable set — count, sum, min, max — from
    which avg derives as ``sum / count``.
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


# -- the inline exchange -------------------------------------------------------


def _access_rows(store: "RecordStore", access: Any) -> Iterable[Any]:
    """One store's rows for ``access``: records, or ``(key, record)``
    pairs in ``(key, primary key)`` order for an index range."""
    if isinstance(access, FullScan):
        return store.scan()
    if isinstance(access, IndexLookup):
        return store.find_by(access.field, access.value)
    if isinstance(access, IndexMultiLookup):
        return chain.from_iterable(
            store.find_by(access.field, value) for value in access.values
        )
    if isinstance(access, CompositeLookup):
        return store.find_by_composite(access.fields, access.values)
    if isinstance(access, CompositeRange):
        return store.range_by_composite(
            access.fields,
            access.prefix,
            access.low,
            access.high,
            include_low=access.include_low,
            include_high=access.include_high,
        )
    if isinstance(access, IndexRange):
        return store.iter_range(
            access.field,
            access.low,
            access.high,
            include_low=access.include_low,
            include_high=access.include_high,
        )
    raise QueryPlanError(f"unknown access path {access!r}")  # pragma: no cover


def _recorded(
    health: "ShardHealthMachine", idx: int, shard: "RecordStore", access: Any
) -> Iterator[Any]:
    """Shard ``idx``'s rows for ``access``, with the outcome recorded on
    ``health``: a read error before it propagates, a success once the
    rows are drained (a read that LIMIT stops counts as neither)."""
    try:
        yield from _access_rows(shard, access)
    except Exception as exc:
        health.record_error(idx, exc, source="query")
        raise
    health.record_success(idx)


_END = object()


class _ShardMeter(_StageClock):
    """One shard's rows, time and buffer-pool pages in a profiled run.

    Its pages are what the query's own :class:`PageStats` gained while
    the shard was read, so the query's totals count them too.
    """

    __slots__ = ("shard", "rows", "hits", "misses", "_pages", "_at")

    def __init__(self, shard: int, pages: PageStats):
        super().__init__()
        self.shard = shard
        self.rows = self.hits = self.misses = 0
        self._pages = pages

    def __enter__(self) -> "_ShardMeter":
        self._at = (self._pages.hits, self._pages.misses)
        super().__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        super().__exit__(*exc_info)
        hits, misses = self._at
        self.hits += self._pages.hits - hits
        self.misses += self._pages.misses - misses

    def stream(self, rows: Iterator[Any]) -> Iterator[Any]:
        """``rows``, each pull timed and counted."""
        while True:
            with self:
                row = next(rows, _END)
            if row is _END:
                return
            self.rows += 1
            yield row

    def node(self) -> OpProfile:
        return OpProfile(
            op="shard",
            detail=f"shard {self.shard}  pages hit={self.hits} miss={self.misses}",
            rows_examined=self.rows,
            rows_returned=self.rows,
            seconds=self.seconds,
            cpu_ns=self.cpu_ns,
        )


class _Exchange:
    """The shards one execution reads, and one stream of their rows.

    Every shard is read inline, in the calling thread.  A
    :class:`~repro.storage.store.RecordStore` is one shard with no health
    to consult.  On a :class:`~repro.storage.sharded.ShardedStore`,
    strict mode raises :class:`~repro.errors.ShardUnavailableError` for a
    shard that is not serving before anything is read, and records a
    shard's read error on ``store.health``.  Partial mode skips shards
    that are not serving, reads each other shard whole (or as far as the
    plan's LIMIT needs) under the engine's :class:`RetryPolicy` before
    handing on its rows, and skips a shard that still fails, so a skipped
    shard contributes no row; :attr:`shards_failed` names the skipped
    shards, and :attr:`read` counts the rows those reads took, each
    charged to the guard as it was read.  Given the ``pages`` of a
    profiled run, which it keeps, a sharded store's exchange measures
    each shard's rows, time and pages.
    """

    __slots__ = (
        "shards", "health", "partial", "retry", "primary_key", "failed", "meters",
        "read", "pages",
    )

    def __init__(
        self,
        store: "RecordStore | ShardedStore",
        *,
        partial: bool = False,
        retry: RetryPolicy | None = None,
        pages: PageStats | None = None,
    ):
        self.primary_key = store.schema.primary_key
        self.failed: dict[int, BaseException] = {}
        self.meters: list[_ShardMeter] | None = None
        self.read = 0
        self.retry = retry
        self.pages = pages
        if not isinstance(store, ShardedStore):
            self.shards: list[tuple[int, RecordStore]] = [(0, store)]
            self.health = None
            self.partial = False
            return
        self.health = health = store.health
        self.partial = partial
        self.shards = []
        for idx, shard in enumerate(store.shards):
            if health.is_serving(idx):
                self.shards.append((idx, shard))
                continue
            exc = ShardUnavailableError(idx, health.state(idx), health.reason(idx))
            if not partial:
                # A quarantined shard's bytes cannot be trusted: strict
                # mode refuses to read around it, or from it.
                raise exc
            self._skip(idx, exc)
        if pages is not None:
            self.meters = [_ShardMeter(idx, pages) for idx, _ in self.shards]

    @property
    def shards_failed(self) -> tuple[int, ...]:
        return tuple(sorted(self.failed)) if self.failed else ()

    def rows(self, plan: Plan, guard: Guard | None = None) -> Iterable[dict[str, Any]]:
        """Every serving shard's access-path records for ``plan``, as one
        stream: chained in shard order, or merged on ``(index key,
        primary key)`` when the plan is index-ordered.  No shard is read
        before the stream first pulls from it, so a LIMIT that the first
        shards fill leaves the rest unread."""
        access = plan.access
        streams = []
        for i, (idx, shard) in enumerate(self.shards):
            meter = None if self.meters is None else self.meters[i]
            if self.partial:
                stream = self._read_whole(idx, shard, plan, guard, meter)
            elif self.health is None:
                stream = _access_rows(shard, access)
            else:
                stream = _recorded(self.health, idx, shard, access)
                if meter is not None:
                    stream = meter.stream(stream)
            streams.append(stream)
        rows: Iterable[Any]
        if len(streams) == 1:
            rows = streams[0]
        elif plan.index_ordered:
            rows = merge_key_ordered(streams, self.primary_key)
        else:
            rows = chain.from_iterable(streams)
        return map(itemgetter(1), rows) if isinstance(access, IndexRange) else rows

    def _read_whole(
        self,
        idx: int,
        shard: "RecordStore",
        plan: Plan,
        guard: Guard | None,
        meter: _ShardMeter | None,
    ) -> Iterator[Any]:
        """Shard ``idx``'s rows, read whole under the retry policy when the
        first one is pulled; none when the read still fails (the shard is
        then skipped).  A guard interruption is the caller's bound, not a
        shard fault: it propagates."""
        assert self.health is not None and self.retry is not None
        if guard is not None:
            guard.check()  # deadline and cancellation, between shards
        read = self.read
        try:
            with meter if meter is not None else nullcontext():
                rows = self.retry.call(
                    lambda: self._read(shard, plan, guard),
                    describe=f"query.shard{idx}",
                )
        except QueryInterrupted:
            raise
        except Exception as exc:
            self.health.record_error(idx, exc, source="query")
            self._skip(idx, exc)
            return
        finally:
            if meter is not None:
                meter.rows = self.read - read
        self.health.record_success(idx)
        yield from rows

    def _read(self, shard: "RecordStore", plan: Plan, guard: Guard | None) -> list[Any]:
        """One attempt at a shard's rows for ``plan``, each charged to
        ``guard`` as it is read (ticked once per block, as in
        :meth:`QueryEngine._candidates`) and counted in :attr:`read`.

        When LIMIT can stop the access path, the read stops at the
        ``limit``-th distinct record that passes the residual: the rows
        after it cannot reach the output.
        """
        access = plan.access
        want = plan.limit if plan.stops_at_limit else None
        residual = plan.residual
        ranged = isinstance(access, IndexRange)
        pk = self.primary_key
        kept: set[Any] = set()
        rows: list[Any] = []
        pulled = charged = 0
        due = 0 if guard is None else _block_end(guard, 0)
        try:
            for row in _access_rows(shard, access):
                pulled += 1
                if pulled == due:
                    block, charged = pulled - charged, pulled
                    guard.tick(block)
                    due = _block_end(guard, pulled)
                rows.append(row)
                if want is not None:
                    record = row[1] if ranged else row
                    if residual is None or residual.evaluate(record):
                        kept.add(record[pk])
                        if len(kept) >= want:
                            break
            else:
                if guard is not None:
                    block, charged = pulled - charged, pulled
                    guard.tick(block)  # drained: the last block, checked
        finally:
            if guard is not None:
                guard.settle(pulled - charged)
            self.read += pulled
        return rows

    def _skip(self, idx: int, exc: BaseException) -> None:
        self.failed[idx] = exc
        _metrics.counter("query.scatter.shard.skipped", shard=str(idx)).inc()
        _logging.warn(
            "query.scatter.shard_skipped",
            shard=idx,
            error=f"{type(exc).__name__}: {exc}",
        )

    def nodes(self) -> tuple[OpProfile, ...]:
        """The access node's EXPLAIN ANALYZE children: one per shard."""
        if self.meters is None:
            return ()
        nodes = {m.shard: m.node() for m in self.meters}
        for idx in self.failed:
            # A shard whose read failed still shows the rows it read.
            meter = nodes.get(idx)
            nodes[idx] = OpProfile(
                op="shard",
                detail=f"shard {idx}  SKIPPED (failed or quarantined)",
                rows_examined=0 if meter is None else meter.rows_examined,
                rows_returned=0,
                seconds=0.0 if meter is None else meter.seconds,
            )
        return tuple(nodes[idx] for idx in sorted(nodes))
