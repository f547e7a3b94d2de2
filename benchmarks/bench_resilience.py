"""RESILIENCE — cost of the guard on hot scans, latency of load shedding.

Two contracts from ``docs/resilience.md`` are measured:

* **Cancellation-check overhead** — an unconstrained full-scan query
  through the executor with a :class:`~repro.resilience.Guard` (deadline
  + cancel token armed, never tripping) versus the same query unguarded.
  Both arms run back to back in each of at least 20 rounds, in
  alternating order, timed by thread CPU time; the overhead is the
  median of the per-round guarded/unguarded ratios, reported with its
  inter-quartile range.  The acceptance bound is < 2 %.
* **Shed-response latency** — with every execution slot occupied and a
  zero-depth queue, the admission gate must answer "come back later" in
  microseconds.  Reported as p50/p99 over a synthetic overload: worker
  threads hammering the saturated gate.
* **Scrub overhead on foreground queries** — query latency over a
  4-shard paged store with the background CRC scrubber idle versus
  sweeping continuously at its default rate limit.  The
  token bucket is supposed to make the scrubber invisible to foreground
  reads; the p50/p99 deltas put a number on "invisible".

Standalone-runnable (pytest not required)::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # print JSON
    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
    PYTHONPATH=src python benchmarks/bench_resilience.py --output BENCH_resilience.json

The checked-in ``BENCH_resilience.json`` at the repo root is the
recorded baseline; regenerate it with the third form when the guard or
the gate changes.  The host block and percentiles come from
``bench_e2e/harness.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, thread_time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))

import harness  # noqa: E402
from repro.errors import AdmissionRejected  # noqa: E402
from repro.query.executor import QueryEngine  # noqa: E402
from repro.resilience import AdmissionController, CancelToken, Deadline, Guard  # noqa: E402
from repro.storage import ShardedStore  # noqa: E402
from repro.storage.schema import Field, FieldType, Schema  # noqa: E402
from repro.storage.scrub import DEFAULT_BYTES_PER_S, Scrubber  # noqa: E402
from repro.storage.store import RecordStore  # noqa: E402

#: The unconstrained full scan: matches every record, no index, no limit.
SCAN_QUERY = "year >= 1900"

#: Alternating rounds of the guard-overhead arms (both arms per round).
ROUNDS = 41
QUICK_ROUNDS = 21
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


def _overhead(guarded_fn, unguarded_fn, rows: int, rounds: int) -> dict:
    """The guard's cost as the median per-round guarded/unguarded ratio.

    Each round times both arms back to back, in alternating order, by
    thread CPU time: time the thread spends descheduled on a shared host
    counts for neither arm, and a slow stretch of the host hits both
    arms of one round alike.  The ratios' inter-quartile range says how
    far apart rounds read.
    """
    samples: dict[str, list[float]] = {"guarded": [], "unguarded": []}
    ratios: list[float] = []
    for round_no in range(WARMUP + rounds):
        arms = [("guarded", guarded_fn), ("unguarded", unguarded_fn)]
        if round_no % 2:
            arms.reverse()
        timings = {}
        for name, fn in arms:
            start = thread_time()
            fn()
            timings[name] = thread_time() - start
        if round_no >= WARMUP:
            samples["guarded"].append(timings["guarded"])
            samples["unguarded"].append(timings["unguarded"])
            ratios.append(timings["guarded"] / timings["unguarded"])
    spread = harness.spread(ratios)
    guarded = statistics.median(samples["guarded"])
    unguarded = statistics.median(samples["unguarded"])
    return {
        "rows": rows,
        "rounds": rounds,
        "unguarded_cpu_s": round(unguarded, 6),
        "guarded_cpu_s": round(guarded, 6),
        # The per-row cost the median paired ratio implies, so it agrees
        # with overhead_pct (the arms' separate medians need not).
        "tick_cost_ns_per_row": round(
            (spread["median"] - 1.0) * unguarded / rows * 1e9, 2
        ),
        "overhead_pct": round((spread["median"] - 1.0) * 100, 2),
        "overhead_q1_pct": round((spread["q1"] - 1.0) * 100, 2),
        "overhead_q3_pct": round((spread["q3"] - 1.0) * 100, 2),
    }


def _scan_overhead(store: RecordStore, rounds: int) -> dict:
    engine = QueryEngine(store)
    engine.execute(SCAN_QUERY)  # prime parser/planner caches, untimed
    executor = _overhead(
        lambda: engine.execute(SCAN_QUERY, guard=_fresh_guard()),
        lambda: engine.execute(SCAN_QUERY),
        len(store),
        rounds,
    )
    return {"executor_full_scan": executor}


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

    merged = [v for slot in latencies for v in slot]
    return {
        "workers": workers,
        "sheds": len(merged),
        "p50_us": round(harness.percentile(merged, 50) * 1e6, 1),
        "p99_us": round(harness.percentile(merged, 99) * 1e6, 1),
        "max_us": round(max(merged) * 1e6, 1),
    }


def _query_latencies(engine: QueryEngine, query: str, repeats: int) -> list[float]:
    latencies = []
    for _ in range(repeats):
        start = perf_counter()
        engine.execute(query)
        latencies.append(perf_counter() - start)
    return latencies


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
        engine = QueryEngine(store)
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

    idle_p99 = harness.percentile(idle, 99)
    busy_p99 = harness.percentile(busy, 99)
    return {
        "shards": SCRUB_SHARDS,
        "records": size,
        "queries": repeats,
        "scrub_rate_mb_s": round(DEFAULT_BYTES_PER_S / (1024 * 1024), 1),
        "idle_p50_us": round(harness.percentile(idle, 50) * 1e6, 1),
        "idle_p99_us": round(idle_p99 * 1e6, 1),
        "scrubbing_p50_us": round(harness.percentile(busy, 50) * 1e6, 1),
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
    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    sheds = 200 if args.quick else SHEDS_PER_WORKER
    scrub_size = 4_000 if args.quick else SCRUB_STORE_SIZE
    scrub_queries = 50 if args.quick else SCRUB_QUERY_REPEATS

    store = _build_store(size)
    scan = _scan_overhead(store, rounds)
    shed = _shed_latency(SHED_WORKERS, sheds)
    with tempfile.TemporaryDirectory(prefix="bench-scrub-") as tmp:
        scrub = _scrub_overhead(scrub_size, scrub_queries, Path(tmp))

    doc = {
        "benchmark": "bench_resilience",
        # Scrub overhead is an I/O-contention measurement: the sweeper
        # competes with foreground reads for cores and page cache, so a
        # result is only comparable to runs on similar hardware.
        "host": harness.host_block(),
        "quick": args.quick,
        "rounds": rounds,
        "target_overhead_pct": TARGET_OVERHEAD_PCT,
        "guarded_scan": scan,
        "shed_latency": shed,
        "scrub_overhead": scrub,
    }
    text = json.dumps(doc, indent=2)
    guard = scan["executor_full_scan"]
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(
            f"wrote {args.output} (guard overhead {guard['overhead_pct']:+.2f}%, "
            f"IQR {guard['overhead_q1_pct']:+.2f}% to {guard['overhead_q3_pct']:+.2f}%, "
            f"shed p99 {shed['p99_us']}us)",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
