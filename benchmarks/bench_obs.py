"""OBS — overhead of the observability layer on query and storage hot paths.

Re-runs the hot paths of ``bench_query.py`` and ``bench_storage.py`` with
the default registry + tracer enabled and disabled, interleaving repeats
so clock drift hits both arms equally.  The contract being verified (see
``docs/observability.md``):

* enabled instrumentation costs < 5% on the bench hot paths (which
  now carry the structured-logging call sites at the default ``info``
  level), including hot-key point reads on a paged store
  (``storage.paged_get``), where a cached descent costs only tens of
  microseconds and its fixed counter increments are a visible share,
* a disabled registry reduces every hook to a near-no-op (reported as
  nanoseconds per disabled ``Counter.inc``),
* one structured-log call is cheap in every regime — emitted,
  level-filtered, rate-limited, disabled — reported as nanoseconds
  per call under ``log_event_ns``, and
* workload attribution (query fingerprinting + per-fingerprint
  recording, ``docs/profiling.md``) stays under the same 5% bound on
  the hottest query path, isolated from the rest of the layer under
  ``attribution`` (sampling profiler off — its cost is opt-in).

Standalone-runnable (pytest not required)::

    PYTHONPATH=src python benchmarks/bench_obs.py            # print JSON
    PYTHONPATH=src python benchmarks/bench_obs.py --output BENCH_obs.json

The checked-in ``BENCH_obs.json`` at the repo root is the recorded
baseline; regenerate it with the second form when the instrumentation
changes.  The host block and the spread of each overhead's per-round
ratios come from ``bench_e2e/harness.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))

import harness  # noqa: E402
from repro import obs  # noqa: E402
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig  # noqa: E402
from repro.corpus.wvlr import PUBLICATION_SCHEMA  # noqa: E402
from repro.query.executor import QueryEngine  # noqa: E402
from repro.storage.store import IndexKind, RecordStore  # noqa: E402
from repro.storage.wal import WriteAheadLog  # noqa: E402

REPEATS = 25
WARMUP = 2
INNER = {  # iterations per timed sample, sized so each sample is ~1ms+
    "query.point_lookup": 200,
    "query.range_order_limit": 1,
    "query.forced_scan": 1,
    "storage.scan_full": 1,
    "storage.wal_append_200": 1,
    "storage.recovery_replay_1k": 1,
    "storage.paged_get": 200,
}
CORPUS_SIZE = 10_000
HOT_SHARE = 0.10  # storage.paged_get reads the newest 10% of keys

# Hot paths lifted from bench_query.QUERIES (raw strings: the benches
# parse per execution, and so do we).
QUERY_POINT = 'surnames:"McAteer"'
QUERY_RANGE_SORT = "year >= 1985 ORDER BY page LIMIT 10"
QUERY_SCAN = "year >= 1975"


def _corpus_rows() -> list[dict]:
    records = SyntheticCorpus(
        SyntheticCorpusConfig(size=CORPUS_SIZE, seed=303)
    ).records()
    return [record.to_store_dict() for record in records]


def _build_engine(rows: list[dict]) -> tuple[RecordStore, QueryEngine]:
    store = RecordStore(PUBLICATION_SCHEMA)
    with store.transaction() as txn:
        for row in rows:
            txn.insert(row)
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    return store, QueryEngine(store)


def _build_paged_store(root: Path, rows: list[dict]) -> RecordStore:
    """The same corpus checkpointed to a paged store and reopened, so
    every read goes through the on-disk B+ tree and the buffer pool."""
    directory = root / "paged-db"
    with RecordStore(PUBLICATION_SCHEMA, directory, data_format="paged") as store:
        store.put_many(rows)
        store.checkpoint()
    return RecordStore(PUBLICATION_SCHEMA, directory, data_format="paged")


def _build_replay_dir(root: Path) -> Path:
    records = SyntheticCorpus(SyntheticCorpusConfig(size=1_000, seed=404)).records()
    directory = root / "replay-db"
    with RecordStore(PUBLICATION_SCHEMA, directory) as store:
        with store.transaction() as txn:
            for record in records:
                txn.insert(record.to_store_dict())
    return directory


def _workloads(store, engine, paged: RecordStore, hot: list, scratch: Path):
    hot_keys = itertools.cycle(hot)
    payloads = [
        {"op": "put", "record": {"id": i, "v": "x" * 40}} for i in range(200)
    ]
    wal_seq = [0]
    replay_dir = _build_replay_dir(scratch)

    def wal_append():
        wal_seq[0] += 1
        path = scratch / f"w{wal_seq[0]}.wal"
        with WriteAheadLog(path, sync=False) as wal:
            for p in payloads:
                wal.append(p)
        path.unlink()

    def recovery_replay():
        with RecordStore(PUBLICATION_SCHEMA, replay_dir) as reopened:
            return len(reopened)

    return {
        "query.point_lookup": lambda: engine.execute(QUERY_POINT),
        "query.range_order_limit": lambda: engine.execute(QUERY_RANGE_SORT),
        "query.forced_scan": lambda: engine.execute_without_indexes(QUERY_SCAN),
        "storage.scan_full": lambda: sum(1 for _ in store.scan()),
        "storage.wal_append_200": wal_append,
        "storage.recovery_replay_1k": recovery_replay,
        "storage.paged_get": lambda: paged.get(next(hot_keys)),
    }


def _drain_workload() -> None:
    """Stand in for the telemetry scraper, untimed, between rounds.

    Workload folding is read-driven (``docs/profiling.md``): on a scraped
    server the aggregation cost rides the ``/topz`` / ``/metrics``
    reader, not the query path.  This bench never scrapes, so without
    this the pending buffers grow for the whole run — tens of thousands
    of surviving tuples that every GC pass re-scans, until the inline
    backstop fold finally fires inside somebody's timed sample.  Neither
    happens on a scraped server, so neither belongs in the measurement.
    """
    from repro.obs import workload

    len(workload.get_default_table())
    workload.get_default_key_usage().fields()


def _time_once(fn, inner: int) -> float:
    start = perf_counter()
    for _ in range(inner):
        fn()
    return (perf_counter() - start) / inner


def _overhead(enabled: list[float], disabled: list[float]) -> dict:
    """One overhead from an on/off pair of sample lists.

    Two noise-robust estimates, reported as their minimum: best-of per
    arm (the true cost of a deterministic loop is its fastest run) and
    the median of per-round paired ratios (both arms of a round run back
    to back, so machine drift cancels).  Each filters a different noise
    shape — sustained load inflates best-of, a single loaded round
    inflates the odd ratio — and overhead is real only when it shows up
    in both.  The paired ratios' median and quartiles are reported too,
    as overhead percent, so a reader can see how far the rounds spread.
    """
    on, off = min(enabled), min(disabled)
    paired = harness.spread([e / d for e, d in zip(enabled, disabled) if d])
    overhead = (min(on / off, paired["median"]) - 1.0) * 100 if off else 0.0
    return {
        "enabled_s": round(on, 7),
        "disabled_s": round(off, 7),
        "overhead_pct": round(overhead, 2),
        "paired_overhead_pct": {
            "median": round((paired["median"] - 1.0) * 100, 2),
            "q1": round((paired["q1"] - 1.0) * 100, 2),
            "q3": round((paired["q3"] - 1.0) * 100, 2),
            "iqr": round((paired["q3"] - paired["q1"]) * 100, 2),
            "n": paired["n"],
        },
    }


def _bench(workloads) -> dict:
    samples = {name: {"enabled": [], "disabled": []} for name in workloads}
    for round_no in range(WARMUP + REPEATS):
        for name, fn in workloads.items():
            inner = INNER[name]
            fn()  # prime caches after the workload switch, untimed
            # Alternate arm order per round so neither arm systematically
            # absorbs post-switch cold-cache cost.
            arms = (True, False) if round_no % 2 == 0 else (False, True)
            timings = {}
            for arm in arms:
                obs.set_enabled(arm)
                fn()  # re-prime after the flip: neither arm starts cold
                timings[arm] = _time_once(fn, inner)
            if round_no >= WARMUP:
                samples[name]["enabled"].append(timings[True])
                samples[name]["disabled"].append(timings[False])
        _drain_workload()
    obs.set_enabled(True)
    return {
        name: _overhead(arms["enabled"], arms["disabled"])
        for name, arms in samples.items()
    }


def _attribution_overhead(engine) -> dict:
    """Cost of fingerprinting + workload recording on the hottest path.

    The main arms above flip the whole obs layer, so their enabled
    numbers already include attribution.  This micro isolates it: the
    registry/tracer/logger stay enabled in both arms and only workload
    recording flips, on the point-lookup path where per-execution cost
    is most visible.  Same interleaved-repeats pattern as ``_bench`` so
    clock drift hits both arms equally.
    """
    from repro.obs import workload

    inner = INNER["query.point_lookup"]
    samples = {"on": [], "off": []}
    obs.set_enabled(True)
    try:
        for round_no in range(WARMUP + REPEATS):
            engine.execute(QUERY_POINT)  # prime, untimed
            arms = (True, False) if round_no % 2 == 0 else (False, True)
            timings = {}
            for arm in arms:
                workload.set_enabled(arm)
                engine.execute(QUERY_POINT)  # re-prime after the flip
                timings[arm] = _time_once(
                    lambda: engine.execute(QUERY_POINT), inner
                )
            if round_no >= WARMUP:
                samples["on"].append(timings[True])
                samples["off"].append(timings[False])
            _drain_workload()
    finally:
        workload.set_enabled(True)
    return {
        "workload": "query.point_lookup",
        **_overhead(samples["on"], samples["off"]),
    }


def _log_event_ns() -> dict:
    """Per-event cost of the structured logger's four fast paths.

    The hot-path workloads above already carry the instrumentation's
    ``debug(...)`` call sites at the default ``info`` level, so their
    overhead numbers cover logging in its default configuration.  This
    micro isolates what one log call costs in each regime an operator
    can configure: fully emitted (ring append), filtered by level,
    dropped by the rate limiter, and globally disabled.
    """
    logger = obs.logging.get_default_logger()
    n = 100_000
    saved_limit = logger.rate_limit_per_s
    saved_level = logger.level

    def _time(fn) -> float:
        start = perf_counter()
        for i in range(n):
            fn(i)
        return (perf_counter() - start) / n * 1e9

    try:
        logger.set_level("info")
        logger.rate_limit_per_s = 0.0
        emitted = _time(lambda i: obs.logging.info("bench.obs.log", i=i))
        filtered = _time(lambda i: obs.logging.debug("bench.obs.log", i=i))
        logger.rate_limit_per_s = 1.0  # budget exhausted after one event
        dropped = _time(lambda i: obs.logging.info("bench.obs.log", i=i))
        obs.set_enabled(False)
        disabled = _time(lambda i: obs.logging.info("bench.obs.log", i=i))
    finally:
        obs.set_enabled(True)
        logger.rate_limit_per_s = saved_limit
        logger.set_level(saved_level)
    return {
        "emitted": round(emitted, 1),
        "filtered_by_level": round(filtered, 1),
        "dropped_by_rate_limit": round(dropped, 1),
        "disabled": round(disabled, 1),
    }


def _counter_inc_ns(enabled: bool) -> float:
    """Cost of one Counter.inc() with the registry enabled/disabled."""
    counter = obs.metrics.counter("bench.obs.inc.micro")
    n = 1_000_000
    obs.set_enabled(enabled)
    try:
        start = perf_counter()
        for _ in range(n):
            counter.inc()
        elapsed = perf_counter() - start
    finally:
        obs.set_enabled(True)
    return elapsed / n * 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    obs.reset()
    rows = _corpus_rows()
    store, engine = _build_engine(rows)
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as scratch:
        paged = _build_paged_store(Path(scratch), rows)
        try:
            hot = sorted(row["id"] for row in rows)[-int(len(rows) * HOT_SHARE) :]
            results = _bench(_workloads(store, engine, paged, hot, Path(scratch)))
        finally:
            paged.close()
    attribution = _attribution_overhead(engine)
    worst = max(
        [r["overhead_pct"] for r in results.values()]
        + [attribution["overhead_pct"]]
    )
    doc = {
        "benchmark": "bench_obs",
        "corpus_size": CORPUS_SIZE,
        "repeats": REPEATS,
        # The ~36us point lookup is the one workload short enough that
        # scheduler jitter on a busy or single-core host shows up as
        # percent-scale noise in its ratio; a result is only comparable
        # to runs on similar hardware, so record what this box was.
        "host": harness.host_block(),
        "target_overhead_pct": 5.0,
        "worst_overhead_pct": worst,
        "counter_inc_ns": {
            "enabled": round(_counter_inc_ns(True), 1),
            "disabled": round(_counter_inc_ns(False), 1),
        },
        "log_event_ns": _log_event_ns(),
        "attribution": attribution,
        "workloads": results,
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output} (worst overhead {worst:+.2f}%)", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
