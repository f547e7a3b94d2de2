"""Workload profiler: per-fingerprint resource attribution with top-K eviction.

The missing aggregation layer over the PR 1/4 telemetry: metrics say how
much total work the process did, traces and the slow log explain single
executions — this module answers *which query shapes* the work went to.

:class:`WorkloadTable` keeps one :class:`FingerprintStats` row per query
fingerprint (see :mod:`repro.query.fingerprint`): calls, rows examined /
returned, CPU and wall nanoseconds, bytes scanned, plan-cache hits,
deadline / cancellation / budget / shed counts, and a per-operator
breakdown (rows in/out, CPU, wall, bytes per ``seq-scan`` / ``filter`` /
``sort`` / …) rolled up from EXPLAIN ANALYZE runs.  The table is bounded:
past ``maxsize`` fingerprints the row with the fewest calls is evicted
(``query.workload.evicted`` counts them), so a long-lived server tracks
its top-K shapes, never an unbounded tail of one-off queries.

:class:`KeyUsageTable` is the storage-side companion: per-index
key-access histograms (probes and rows served per key, top-K bounded the
same way) recorded by ``RecordStore.find_by`` / ``range_by`` — the data
that makes key skew measurable before choosing a shard key.

Both tables are thread-safe and follow the metrics layer's hot-path
discipline: recording appends one tuple to a ``collections.deque`` (a
single atomic C call under the GIL — no lock) and the backlog is folded
into the aggregates lazily, on read or when it reaches a fixed
threshold.  Recording happens once per query / probe, never per row on
the unprofiled path, and is near-free when disabled: every recorder
starts with one flag check.  ``repro.obs.set_enabled(False)`` turns
them off with the rest of the observability stack.

Serving surfaces: ``/topz`` on the telemetry daemon renders
:meth:`WorkloadTable.top`; :func:`render_prometheus_workload` exposes the
table as the ``repro_workload_*`` exposition family with a bounded
``fingerprint`` label cardinality (see ``docs/operations.md``);
``repro top`` / ``repro workload-report`` are the CLI views.

Metric names (catalogued in ``docs/observability.md``):
``query.workload.recorded``, ``query.workload.evicted``,
``query.workload.fingerprints``, ``storage.keyusage.evicted``.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter, deque
from typing import Any, Iterable, Mapping

from repro.obs import metrics as _metrics
from repro.obs.promexport import escape_label_value, prometheus_name

__all__ = [
    "FingerprintStats",
    "WorkloadTable",
    "KeyUsageTable",
    "get_default_table",
    "get_default_key_usage",
    "record_execution",
    "record_key_probe",
    "top",
    "reset",
    "set_enabled",
    "is_enabled",
    "render_prometheus_workload",
    "DEFAULT_MAXSIZE",
    "DEFAULT_EXPOSITION_LIMIT",
    "SORT_KEYS",
]

#: Fingerprints tracked before lowest-call eviction kicks in.
DEFAULT_MAXSIZE = 512

#: Backstop backlog size that forces an inline fold on the recording
#: path.  Reads (``/topz``, ``/metrics``, ``top()``, ``snapshot()``,
#: ``histogram()``) always fold first, so on a scraped server the fold
#: work rides the telemetry reader, off the query path entirely; the
#: threshold only bounds memory (~1 MB of pending tuples worst case)
#: when nobody is reading.  A backstop fold adds a ~2 ms blip to the
#: execution that trips it — after that query's own timing was taken.
_FOLD_EVERY = 4096

#: Distinct keys tracked per index field by :class:`KeyUsageTable`.
DEFAULT_KEYS_PER_FIELD = 128

#: Fingerprint label cardinality cap for the ``repro_workload_*``
#: Prometheus family (documented in docs/operations.md).
DEFAULT_EXPOSITION_LIMIT = 20

#: Columns ``top()`` / ``/topz`` / ``repro top`` accept for sorting.
SORT_KEYS = (
    "calls",
    "cpu_ns",
    "wall_ns",
    "rows_returned",
    "rows_examined",
    "bytes_scanned",
)

_RECORDED = _metrics.counter("query.workload.recorded")
_EVICTED = _metrics.counter("query.workload.evicted")
_FINGERPRINTS = _metrics.gauge("query.workload.fingerprints")
_KEY_EVICTED = _metrics.counter("storage.keyusage.evicted")


class FingerprintStats:
    """Mutable aggregate row for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "template",
        "calls",
        "rows_returned",
        "rows_examined",
        "cpu_ns",
        "wall_ns",
        "bytes_scanned",
        "plan_cache_hits",
        "deadline_exceeded",
        "cancelled",
        "budget_exceeded",
        "shed",
        "operators",
    )

    def __init__(self, fingerprint: str, template: str):
        self.fingerprint = fingerprint
        self.template = template
        self.calls = 0
        self.rows_returned = 0
        self.rows_examined = 0
        self.cpu_ns = 0
        self.wall_ns = 0
        self.bytes_scanned = 0
        self.plan_cache_hits = 0
        self.deadline_exceeded = 0
        self.cancelled = 0
        self.budget_exceeded = 0
        self.shed = 0
        #: op name -> {calls, rows_in, rows_out, cpu_ns, wall_ns, bytes}
        self.operators: dict[str, dict[str, int]] = {}

    def to_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "template": self.template,
            "calls": self.calls,
            "rows_returned": self.rows_returned,
            "rows_examined": self.rows_examined,
            "cpu_ns": self.cpu_ns,
            "wall_ns": self.wall_ns,
            "bytes_scanned": self.bytes_scanned,
            "plan_cache_hits": self.plan_cache_hits,
            "deadline_exceeded": self.deadline_exceeded,
            "cancelled": self.cancelled,
            "budget_exceeded": self.budget_exceeded,
            "shed": self.shed,
            "operators": {op: dict(stats) for op, stats in self.operators.items()},
        }


class WorkloadTable:
    """Thread-safe fingerprint -> :class:`FingerprintStats` aggregate table.

    ``maxsize`` bounds the number of tracked fingerprints; inserting past
    it evicts the row with the fewest calls (ties arbitrary), so the
    table converges on the workload's hottest shapes.  ``evicted_calls``
    remembers how many calls left with evicted rows — the table never
    silently pretends it saw everything.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.enabled = True
        self.evicted_fingerprints = 0
        self.evicted_calls = 0
        self._rows: dict[str, FingerprintStats] = {}
        self._pending: deque[tuple] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        self._fold()
        return len(self._rows)

    def record(
        self,
        fingerprint: str,
        template: str,
        *,
        rows_returned: int = 0,
        rows_examined: int = 0,
        cpu_ns: int = 0,
        wall_ns: int = 0,
        bytes_scanned: int = 0,
        plan_cached: bool = False,
        interrupted: str | None = None,
        shed: bool = False,
        operators: Iterable[Mapping[str, Any]] | None = None,
    ) -> None:
        """Fold one execution into the fingerprint's aggregate row.

        ``interrupted`` is ``None`` or one of ``"timeout"`` /
        ``"cancelled"`` / ``"budget"``; ``operators`` is the per-node
        breakdown of a profiled run (dicts with ``op``, ``rows_in``,
        ``rows_out``, ``cpu_ns``, ``wall_ns``, ``bytes``).
        """
        self.record_packed((
            fingerprint, template, rows_returned, rows_examined, cpu_ns,
            wall_ns * 1e-9, bytes_scanned, bool(plan_cached), interrupted,
            bool(shed), tuple(operators) if operators else None,
        ))

    def record_packed(self, item: tuple) -> None:
        """Zero-marshalling variant of :meth:`record` for the hot path.

        ``item`` is positional, in one of two shapes: the full 11-tuple
        ``(fingerprint, template, rows_returned, rows_examined, cpu_ns,
        wall_s, bytes_scanned, plan_cached, interrupted, shed,
        operators)``, or the hot 8-tuple that stops after ``plan_cached``
        — an ordinary successful execution has nothing to say in the
        last three slots, so the executor doesn't pay to load them.
        One attributed execution costs one deque append — no keyword
        marshalling, no lock.

        Three hot-path allowances, settled at fold time: ``cpu_ns`` may
        be ``-1`` for an execution whose thread-CPU clock was not
        sampled (the fold scales the sampled executions' CPU up to the
        group's call count — thread-CPU reads cost several hundred ns
        on some kernels, so the executor samples 1-in-N); wall time
        rides as raw **seconds** (the ``perf_counter`` delta the
        executor already holds — one fold-time multiply replaces one
        per-execution multiply); and ``bytes_scanned`` may be a float
        (summed columnarly, truncated to int once per fold).
        ``plan_cached`` and ``shed`` must be real bools — the fold
        counts them with ``count(True)``.
        """
        if not self.enabled:
            return
        self._pending.append(item)
        if len(self._pending) >= _FOLD_EVERY:
            self._fold()

    def _fold(self) -> None:
        """Drain the pending backlog into the aggregate rows.

        Draining happens lock-free (``popleft`` is atomic; concurrent
        folders take disjoint items and the aggregates are commutative),
        then each fingerprint's group is applied columnarly under the
        lock: a steady workload repeats few shapes, so one C-level pass
        per column beats per-item attribute increments.
        """
        hot: list[tuple] = []
        cold: list[tuple] = []
        while True:
            try:
                item = self._pending.popleft()
            except IndexError:
                break
            (hot if len(item) == 8 else cold).append(item)
        if not hot and not cold:
            return
        with self._lock:
            for items, full in ((hot, False), (cold, True)):
                if not items:
                    continue
                cols = list(zip(*items))
                # Hot case: a backlog full of one query shape skips
                # grouping (the fingerprint strings come interned from
                # the plan cache, so count() compares mostly by
                # identity).
                if cols[0].count(cols[0][0]) == len(items):
                    self._apply_group(cols[0][0], items, cols, full)
                else:
                    groups: dict[str, list[tuple]] = {}
                    for item in items:
                        groups.setdefault(item[0], []).append(item)
                    for fingerprint, group in groups.items():
                        self._apply_group(
                            fingerprint, group, list(zip(*group)), full
                        )
            _FINGERPRINTS.set(len(self._rows))
        _RECORDED.inc(len(hot) + len(cold))

    def _apply_group(
        self, fingerprint: str, group: list[tuple], cols: list[tuple], full: bool
    ) -> None:
        # Called under the lock.  ``cols`` is ``group`` transposed;
        # ``full`` marks 11-slot items — the hot 8-slot shape has no
        # interruption/shed/operator columns to roll up.
        row = self._rows.get(fingerprint)
        if row is None:
            row = FingerprintStats(fingerprint, group[0][1])
            self._rows[fingerprint] = row
            if len(self._rows) > self.maxsize:
                self._evict_coldest(keep=fingerprint)
        row.calls += len(group)
        row.rows_returned += sum(cols[2])
        row.rows_examined += sum(cols[3])
        # CPU: -1 marks an unsampled execution; scale the sampled sum up
        # to the group's call count (each -1 contributes -1 to the plain
        # sum, so adding the count restores the sampled-only total).
        unsampled = cols[4].count(-1)
        sampled = len(group) - unsampled
        if sampled:
            row.cpu_ns += (sum(cols[4]) + unsampled) * len(group) // sampled
        row.wall_ns += int(sum(cols[5]) * 1e9 + 0.5)
        row.bytes_scanned += int(sum(cols[6]))
        row.plan_cache_hits += cols[7].count(True)
        if not full:
            return
        interrupted = cols[8]
        row.deadline_exceeded += interrupted.count("timeout")
        row.cancelled += interrupted.count("cancelled")
        row.budget_exceeded += interrupted.count("budget")
        row.shed += cols[9].count(True)
        if not any(cols[10]):
            return
        for operators in cols[10]:
            if not operators:
                continue
            for node in operators:
                op = str(node.get("op", "?"))
                agg = row.operators.get(op)
                if agg is None:
                    agg = row.operators[op] = {
                        "calls": 0,
                        "rows_in": 0,
                        "rows_out": 0,
                        "cpu_ns": 0,
                        "wall_ns": 0,
                        "bytes": 0,
                    }
                agg["calls"] += 1
                agg["rows_in"] += int(node.get("rows_in", 0))
                agg["rows_out"] += int(node.get("rows_out", 0))
                agg["cpu_ns"] += int(node.get("cpu_ns", 0))
                agg["wall_ns"] += int(node.get("wall_ns", 0))
                agg["bytes"] += int(node.get("bytes", 0))

    def _evict_coldest(self, *, keep: str) -> None:
        # Called under the lock.  The just-inserted row is exempt so a
        # fresh fingerprint always gets at least one call recorded.
        coldest = min(
            (fp for fp in self._rows if fp != keep),
            key=lambda fp: self._rows[fp].calls,
        )
        self.evicted_calls += self._rows.pop(coldest).calls
        self.evicted_fingerprints += 1
        _EVICTED.inc()

    def top(self, n: int = 10, *, sort_by: str = "calls") -> list[dict[str, Any]]:
        """The ``n`` hottest rows by ``sort_by`` (one of :data:`SORT_KEYS`)."""
        if sort_by not in SORT_KEYS:
            raise ValueError(
                f"sort_by must be one of {', '.join(SORT_KEYS)}; got {sort_by!r}"
            )
        self._fold()
        with self._lock:
            rows = sorted(
                self._rows.values(),
                key=lambda r: getattr(r, sort_by),
                reverse=True,
            )[: max(0, n)]
            return [row.to_dict() for row in rows]

    def snapshot(self) -> dict[str, Any]:
        """The whole table plus eviction bookkeeping, JSON-ready."""
        self._fold()
        with self._lock:
            return {
                "tracked": len(self._rows),
                "maxsize": self.maxsize,
                "evicted_fingerprints": self.evicted_fingerprints,
                "evicted_calls": self.evicted_calls,
                "fingerprints": [row.to_dict() for row in self._rows.values()],
            }

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._rows.clear()
            self.evicted_fingerprints = 0
            self.evicted_calls = 0
        _FINGERPRINTS.set(0)


class KeyUsageTable:
    """Per-index key-access histograms: probes and rows served per key.

    One bounded ``key -> (probes, rows)`` map per indexed field; past
    ``keys_per_field`` distinct keys the least-probed key is dropped
    (``storage.keyusage.evicted``), preserving the head of the key
    distribution — exactly the part that decides a partition key.  Ties
    go to the key that entered the map first.  Each field also keeps a
    heap of ``(probes, insertion number, key)``, one entry per tracked
    key, refreshed lazily: probe counts only grow, so a popped entry
    whose count is still current is the least-probed key, and eviction
    costs O(log n) instead of a scan of the map.
    """

    def __init__(self, keys_per_field: int = DEFAULT_KEYS_PER_FIELD):
        if keys_per_field < 1:
            raise ValueError(f"keys_per_field must be positive, got {keys_per_field}")
        self.keys_per_field = keys_per_field
        self.enabled = True
        self._fields: dict[str, dict[str, list[int]]] = {}
        self._totals: dict[str, list[int]] = {}  # field -> [probes, rows]
        self._heaps: dict[str, list[tuple[int, int, str]]] = {}
        self._inserted = 0  # insertion number of the last key tracked
        self._pending: deque[tuple] = deque()
        self._lock = threading.Lock()

    def record(self, field: str, key: Any, rows: int = 1) -> None:
        """Count one probe of ``key`` on ``field`` serving ``rows`` records.

        The hot path of every indexed lookup: one deque append, no lock,
        no string conversion — key labelling happens at fold time.
        """
        if not self.enabled:
            return
        self._pending.append((field, key, rows))
        if len(self._pending) >= _FOLD_EVERY:
            self._fold()

    def record_many(
        self, field: str, key_rows: Iterable[tuple[Any, int]], *, probes: int
    ) -> None:
        """Fold a batch of ``(key, rows)`` pairs from one scan or probe.

        Range scans aggregate their per-key row counts locally and call
        this once, so the table is touched once per scan — never per
        record.
        """
        if not self.enabled:
            return
        self._pending.append((field, tuple(key_rows), probes, True))
        if len(self._pending) >= _FOLD_EVERY:
            self._fold()

    def _fold(self) -> None:
        """Drain the pending backlog into the per-field histograms.

        A steady workload probes the same few keys, so identical single
        probes are first collapsed through a :class:`Counter` (one dict
        op per item, C speed) and each distinct probe is applied once
        with a multiplier.  Unhashable keys and scan batches fall back
        to the per-item path.
        """
        items = []
        while True:
            try:
                items.append(self._pending.popleft())
            except IndexError:
                break
        if not items:
            return
        try:
            counted = Counter(items)  # C-speed collapse of repeat probes
        except TypeError:  # an unhashable key somewhere: per-item path
            counted = None
        with self._lock:
            if counted is not None:
                for item, n in counted.items():
                    if len(item) == 3:  # single probe: (field, key, rows)
                        field, key, rows = item
                        self._apply(field, ((key, rows),), n, n)
                    else:  # batch: (field, key_rows, probes, True)
                        self._apply(item[0], item[1], item[2] * n, n)
            else:
                for item in items:
                    if len(item) == 3:
                        field, key, rows = item
                        self._apply(field, ((key, rows),), 1, 1)
                    else:
                        self._apply(item[0], item[1], item[2], 1)

    def _apply(self, field, key_rows, probes: int, mult: int) -> None:
        # Called under the lock.  ``mult`` repeats each (key, rows) pair:
        # n collapsed identical probes apply as one call with mult=n.
        keys = self._fields.setdefault(field, {})
        totals = self._totals.setdefault(field, [0, 0])
        totals[0] += probes
        for key, rows in key_rows:
            label = _key_label(key)
            rows *= mult
            totals[1] += rows
            cell = keys.get(label)
            if cell is None:
                keys[label] = [mult, rows]
                self._inserted += 1
                heap = self._heaps.setdefault(field, [])
                heapq.heappush(heap, (mult, self._inserted, label))
                if len(keys) > self.keys_per_field:
                    self._evict(keys, heap)
            else:
                cell[0] += mult
                cell[1] += rows

    @staticmethod
    def _evict(keys: dict[str, list[int]], heap: list[tuple[int, int, str]]) -> None:
        # Called under the lock.  Same victim as a scan for the fewest
        # probes in insertion order: an entry's count is never above its
        # key's, so an entry that is still current is the minimum.
        while True:
            probes, inserted, label = heap[0]
            current = keys[label][0]
            if current == probes:
                heapq.heappop(heap)
                del keys[label]
                _KEY_EVICTED.inc()
                return
            heapq.heapreplace(heap, (current, inserted, label))

    def histogram(self, field: str, *, n: int = 20) -> dict[str, Any] | None:
        """Top-``n`` key histogram for ``field`` (``None`` when unseen)."""
        self._fold()
        with self._lock:
            keys = self._fields.get(field)
            if keys is None:
                return None
            totals = self._totals[field]
            ranked = sorted(keys.items(), key=lambda kv: kv[1][0], reverse=True)
            top_rows = max((cell[1] for cell in keys.values()), default=0)
            return {
                "field": field,
                "probes": totals[0],
                "rows": totals[1],
                "tracked_keys": len(keys),
                # Share of all served rows that the single hottest key
                # absorbed — the headline skew number for shard planning.
                "top_key_row_share": round(top_rows / totals[1], 4) if totals[1] else 0.0,
                "top_keys": [
                    {"key": label, "probes": cell[0], "rows": cell[1]}
                    for label, cell in ranked[: max(0, n)]
                ],
            }

    def fields(self) -> tuple[str, ...]:
        self._fold()
        with self._lock:
            return tuple(self._fields)

    def snapshot(self, *, keys_per_field: int = 20) -> dict[str, Any]:
        return {
            field: self.histogram(field, n=keys_per_field)
            for field in self.fields()
        }

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._fields.clear()
            self._totals.clear()
            self._heaps.clear()


def _key_label(key: Any) -> str:
    """Stable, bounded string form of an index key (tuples for composites)."""
    text = str(key)
    return text if len(text) <= 64 else text[:61] + "..."


# -- process-global defaults -------------------------------------------------

_default_table = WorkloadTable()
_default_key_usage = KeyUsageTable()


def get_default_table() -> WorkloadTable:
    return _default_table


def get_default_key_usage() -> KeyUsageTable:
    return _default_key_usage


def record_execution(fingerprint: str, template: str, **kwargs: Any) -> None:
    """Record into the default table (see :meth:`WorkloadTable.record`)."""
    _default_table.record(fingerprint, template, **kwargs)


def record_key_probe(field: str, key: Any, *, rows: int = 1) -> None:
    """Record one key probe into the default key-usage table."""
    _default_key_usage.record(field, key, rows=rows)


def top(n: int = 10, *, sort_by: str = "calls") -> list[dict[str, Any]]:
    return _default_table.top(n, sort_by=sort_by)


def reset() -> None:
    """Clear the default workload and key-usage tables."""
    _default_table.reset()
    _default_key_usage.reset()


def set_enabled(flag: bool) -> None:
    """Toggle attribution recording on the default tables."""
    _default_table.enabled = flag
    _default_key_usage.enabled = flag


def is_enabled() -> bool:
    return _default_table.enabled


# -- Prometheus exposition ---------------------------------------------------

#: (row attribute, exposition suffix, unit scale) for the workload family.
_EXPOSITION_COLUMNS = (
    ("calls", "calls_total", 1),
    ("rows_returned", "rows_returned_total", 1),
    ("rows_examined", "rows_examined_total", 1),
    ("bytes_scanned", "bytes_scanned_total", 1),
    ("cpu_ns", "cpu_seconds_total", 1e-9),
    ("wall_ns", "wall_seconds_total", 1e-9),
    ("plan_cache_hits", "plan_cache_hits_total", 1),
)


def render_prometheus_workload(
    table: WorkloadTable | None = None,
    *,
    limit: int = DEFAULT_EXPOSITION_LIMIT,
    namespace: str = "repro",
) -> str:
    """The fingerprint table as ``repro_workload_*`` text exposition.

    Only the ``limit`` hottest fingerprints (by calls) are exported —
    the label-cardinality cap that keeps a scrape's series count bounded
    no matter how diverse the workload gets.  Returns ``""`` when the
    table is empty, so callers can append unconditionally.
    """
    if table is None:
        table = _default_table
    rows = table.top(limit, sort_by="calls")
    if not rows:
        return ""
    lines: list[str] = []
    for attr, suffix, scale in _EXPOSITION_COLUMNS:
        metric = prometheus_name(f"workload.{suffix}", namespace=namespace)
        # prometheus_name flattens the dot we used to reuse its sanitizer.
        lines.append(
            f"# HELP {metric} Per-fingerprint workload {attr} "
            f"(top {limit} by calls; repro.obs.workload)"
        )
        lines.append(f"# TYPE {metric} counter")
        for row in rows:
            value = row[attr] * scale
            rendered = repr(float(value)) if scale != 1 else str(value)
            lines.append(
                f'{metric}{{fingerprint="{escape_label_value(row["fingerprint"])}"}} '
                f"{rendered}"
            )
    return "\n".join(lines) + "\n"
