"""RESILIENCE — cost of the guard on hot scans, latency of load shedding.

Two contracts from ``docs/resilience.md`` are measured:

* **Cancellation-check overhead** — an unconstrained full-scan query
  through the executor with a :class:`~repro.resilience.Guard` (deadline
  + cancel token armed, never tripping) versus the same query unguarded
  (the seed executor's code path), interleaved per round so clock drift
  hits both arms equally.  The acceptance bound is < 2 %.
* **Shed-response latency** — with every execution slot occupied and a
  zero-depth queue, the admission gate must answer "come back later" in
  microseconds.  Reported as p50/p99 over a synthetic overload: worker
  threads hammering the saturated gate.
* **Scrub overhead on foreground queries** — scatter-gather query
  latency over a 4-shard paged store with the background CRC scrubber
  idle versus sweeping continuously at its default rate limit.  The
  token bucket is supposed to make the scrubber invisible to foreground
  reads; the p50/p99 deltas put a number on "invisible".

Standalone-runnable (pytest not required)::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # print JSON
    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
    PYTHONPATH=src python benchmarks/bench_resilience.py --output BENCH_resilience.json

The checked-in ``BENCH_resilience.json`` at the repo root is the
recorded baseline; regenerate it with the third form when the guard or
the gate changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from repro.errors import AdmissionRejected
from repro.query.executor import QueryEngine, ShardedQueryEngine
from repro.resilience import AdmissionController, CancelToken, Deadline, Guard
from repro.storage import ShardedStore
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.scrub import DEFAULT_BYTES_PER_S, Scrubber
from repro.storage.store import RecordStore

#: The unconstrained full scan: matches every record, no index, no limit.
SCAN_QUERY = "year >= 1900"

REPEATS = 15
WARMUP = 2
STORE_SIZE = 100_000
SHED_WORKERS = 8
SHEDS_PER_WORKER = 2_000
SCRUB_SHARDS = 4
SCRUB_STORE_SIZE = 40_000
SCRUB_QUERY_REPEATS = 400

TARGET_OVERHEAD_PCT = 2.0

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
    ],
    primary_key="id",
)


def _build_store(size: int) -> RecordStore:
    store = RecordStore(SCHEMA)
    store.put_many(
        [{"id": i, "name": f"rec-{i}", "year": 1900 + (i % 120)} for i in range(size)]
    )
    return store


def _fresh_guard() -> Guard:
    # Deadline and token armed but never tripping: the scan pays the full
    # per-row tick (increment + compare + amortized clock) without ever
    # unwinding, which is exactly the hot-path cost being bounded.
    return Guard(deadline=Deadline.after(3600.0), cancel=CancelToken())


def _overhead(guarded_fn, unguarded_fn, rows: int, repeats: int) -> dict:
    samples: dict[str, list[float]] = {"guarded": [], "unguarded": []}
    for round_no in range(WARMUP + repeats):
        # Alternate arm order per round so neither arm systematically
        # absorbs post-switch cold-cache cost.
        arms = (
            (("guarded", guarded_fn), ("unguarded", unguarded_fn))
            if round_no % 2 == 0
            else (("unguarded", unguarded_fn), ("guarded", guarded_fn))
        )
        timings = {}
        for name, fn in arms:
            start = perf_counter()
            fn()
            timings[name] = perf_counter() - start
        if round_no >= WARMUP:
            samples["guarded"].append(timings["guarded"])
            samples["unguarded"].append(timings["unguarded"])

    # Same two noise-robust estimates as bench_obs: best-of per arm and
    # the median of per-round paired ratios; overhead is real only when
    # it shows up in both.
    best_guarded = min(samples["guarded"])
    best_unguarded = min(samples["unguarded"])
    ratios = sorted(
        g / u for g, u in zip(samples["guarded"], samples["unguarded"]) if u
    )
    paired = ratios[len(ratios) // 2] if ratios else 1.0
    overhead = (min(best_guarded / best_unguarded, paired) - 1.0) * 100
    per_row_ns = (best_guarded - best_unguarded) / rows * 1e9
    return {
        "rows": rows,
        "unguarded_s": round(best_unguarded, 6),
        "guarded_s": round(best_guarded, 6),
        "tick_cost_ns_per_row": round(per_row_ns, 2),
        "overhead_pct": round(overhead, 2),
    }


def _scan_overhead(store: RecordStore, repeats: int) -> dict:
    engine = QueryEngine(store)
    engine.execute(SCAN_QUERY)  # prime parser/planner caches, untimed
    executor = _overhead(
        lambda: engine.execute(SCAN_QUERY, guard=_fresh_guard()),
        lambda: engine.execute(SCAN_QUERY),
        len(store),
        repeats,
    )
    return {"executor_full_scan": executor}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _shed_latency(workers: int, sheds_per_worker: int) -> dict:
    gate = AdmissionController(max_concurrent=1, max_queue=0, queue_timeout_s=0.0)
    gate.acquire()  # saturate: every subsequent acquire sheds at the door
    latencies: list[list[float]] = [[] for _ in range(workers)]

    def hammer(slot: list[float]) -> None:
        for _ in range(sheds_per_worker):
            start = perf_counter()
            try:
                gate.acquire()
            except AdmissionRejected:
                pass
            slot.append(perf_counter() - start)

    try:
        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in latencies
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gate.release()

    merged = sorted(v for slot in latencies for v in slot)
    return {
        "workers": workers,
        "sheds": len(merged),
        "p50_us": round(_percentile(merged, 0.50) * 1e6, 1),
        "p99_us": round(_percentile(merged, 0.99) * 1e6, 1),
        "max_us": round(merged[-1] * 1e6, 1) if merged else 0.0,
    }


def _query_latencies(engine: ShardedQueryEngine, query: str, repeats: int) -> list[float]:
    latencies = []
    for _ in range(repeats):
        start = perf_counter()
        engine.execute(query)
        latencies.append(perf_counter() - start)
    return sorted(latencies)


def _scrub_overhead(size: int, repeats: int, root: Path) -> dict:
    store = ShardedStore(SCHEMA, root, shards=SCRUB_SHARDS, data_format="paged")
    try:
        store.put_many(
            [
                {"id": i, "name": f"rec-{i}", "year": 1900 + (i % 120)}
                for i in range(size)
            ]
        )
        store.checkpoint()
        engine = ShardedQueryEngine(store)
        query = "year >= 2010"  # touches every shard, returns a thin slice
        engine.execute(query)  # prime parser/planner caches, untimed

        idle = _query_latencies(engine, query, repeats)

        # Keep a sweep in flight for the whole measurement window: loop
        # run_once() in a thread rather than start(), whose interval gap
        # would let the foreground arm race ahead of the scrubber.
        scrubber = Scrubber(store)
        stop = threading.Event()

        def sweep() -> None:
            while not stop.is_set():
                scrubber.run_once()

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        try:
            busy = _query_latencies(engine, query, repeats)
        finally:
            stop.set()
            sweeper.join()
    finally:
        store.close()

    idle_p99 = _percentile(idle, 0.99)
    busy_p99 = _percentile(busy, 0.99)
    return {
        "shards": SCRUB_SHARDS,
        "records": size,
        "queries": repeats,
        "scrub_rate_mb_s": round(DEFAULT_BYTES_PER_S / (1024 * 1024), 1),
        "idle_p50_us": round(_percentile(idle, 0.50) * 1e6, 1),
        "idle_p99_us": round(idle_p99 * 1e6, 1),
        "scrubbing_p50_us": round(_percentile(busy, 0.50) * 1e6, 1),
        "scrubbing_p99_us": round(busy_p99 * 1e6, 1),
        "p99_overhead_pct": round((busy_p99 / idle_p99 - 1.0) * 100, 2)
        if idle_p99
        else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write JSON here instead of stdout")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink sizes for CI smoke (10k rows, fewer repeats)",
    )
    args = parser.parse_args(argv)

    size = 10_000 if args.quick else STORE_SIZE
    repeats = 5 if args.quick else REPEATS
    sheds = 200 if args.quick else SHEDS_PER_WORKER
    scrub_size = 4_000 if args.quick else SCRUB_STORE_SIZE
    scrub_queries = 50 if args.quick else SCRUB_QUERY_REPEATS

    store = _build_store(size)
    scan = _scan_overhead(store, repeats)
    shed = _shed_latency(SHED_WORKERS, sheds)
    with tempfile.TemporaryDirectory(prefix="bench-scrub-") as tmp:
        scrub = _scrub_overhead(scrub_size, scrub_queries, Path(tmp))

    doc = {
        "benchmark": "bench_resilience",
        "python": sys.version.split()[0],
        # Scrub overhead is an I/O-contention measurement: the sweeper
        # competes with foreground reads for cores and page cache, so a
        # result is only comparable to runs on similar hardware.
        "host": {"cpu_count": os.cpu_count()},
        "quick": args.quick,
        "repeats": repeats,
        "target_overhead_pct": TARGET_OVERHEAD_PCT,
        "guarded_scan": scan,
        "shed_latency": shed,
        "scrub_overhead": scrub,
    }
    text = json.dumps(doc, indent=2)
    overhead = scan["executor_full_scan"]["overhead_pct"]
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(
            f"wrote {args.output} (guard overhead {overhead:+.2f}%, "
            f"shed p99 {shed['p99_us']}us)",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
