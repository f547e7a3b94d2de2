"""SHARD — durable ingest and scatter-gather query scaling across shards.

Two experiments, written to ``BENCH_shard.json``:

* **ingest** — streaming durable ingest (``sync=True``, 5k-record
  batches, WAL-bounded auto-checkpoints at ~2 MiB per shard) into a
  :class:`ShardedStore` at 1 / 2 / 4 / 8 shards.  A checkpoint costs
  O(store size), so a WAL-bounded ingest loop pays a quadratic total
  checkpoint bill; hash-partitioning into N shards divides both the
  per-checkpoint size and the per-shard checkpoint cadence, cutting
  that term ~N×.  Target: ≥ 2.5x records/s at 4 shards vs 1 on the
  full 100k-record run.
* **query** — p50/p99 latency of a sorted scan and a numeric aggregate
  through :class:`QueryEngine` at each shard count, plus a byte-identity
  check of every result against the 1-shard baseline.  The engine reads
  the shards one after another in the calling thread, so this measures
  the per-shard cost of the exchange, not a parallel speedup — the
  ingest arm is where sharding pays.

Standalone-runnable (pytest not required)::

    PYTHONPATH=src python benchmarks/bench_shard.py             # print JSON
    PYTHONPATH=src python benchmarks/bench_shard.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_shard.py --output BENCH_shard.json

``--quick`` shrinks the corpus and repeat counts so CI can smoke-test the
harness in seconds; the checked-in baseline comes from a full run.  The
host block and percentiles come from ``bench_e2e/harness.py``.
"""

from __future__ import annotations

import argparse
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
from repro.storage.sharded import ShardedStore  # noqa: E402
from repro.storage.store import IndexKind  # noqa: E402

SHARD_COUNTS = (1, 2, 4, 8)
FULL_SIZE = 100_000
QUICK_SIZE = 5_000
BATCH_RECORDS = 5_000
CHECKPOINT_WAL_BYTES = 2 << 20  # ~2 MiB per shard
INGEST_SPEEDUP_TARGET = 2.5

QUERY_SORTED = "year >= 1960 ORDER BY year DESC LIMIT 100"
QUERY_AGG_FILTER = "volume >= 10"
QUERY_AGG_FIELD = "page"

_RECORD_CACHE: dict[int, list[dict]] = {}


def _records(size: int) -> list[dict]:
    # Cap the author pool (its distinctness check is quadratic in pool
    # size); the storage arms only care about record volume and skew.
    if size not in _RECORD_CACHE:
        config = SyntheticCorpusConfig(
            size=size, seed=1729, author_pool=min(size // 2, 2_000)
        )
        corpus = SyntheticCorpus(config)
        _RECORD_CACHE[size] = [record.to_store_dict() for record in corpus.records()]
    return _RECORD_CACHE[size]


def _add_indexes(store: ShardedStore) -> None:
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("volume", IndexKind.BTREE)
    store.create_composite_index(("volume", "page"))


def _checkpoint_total() -> int:
    counters = obs.metrics.snapshot()["counters"]
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("storage.sharded.checkpoint.count")
    )


def bench_shard_ingest(size: int, scratch: Path) -> dict:
    """Streaming durable ingest at each shard count; same records, same
    per-shard WAL bound, so only the partitioning varies."""
    rows = _records(size)
    results: dict[str, dict] = {}
    base_rps = None
    for shards in SHARD_COUNTS:
        before = _checkpoint_total()
        with ShardedStore(
            PUBLICATION_SCHEMA,
            scratch / f"ingest-{shards}",
            shards=shards,
            sync=True,
            checkpoint_wal_bytes=CHECKPOINT_WAL_BYTES,
        ) as store:
            _add_indexes(store)
            start = perf_counter()
            for lo in range(0, size, BATCH_RECORDS):
                store.put_many(rows[lo : lo + BATCH_RECORDS])
            elapsed = perf_counter() - start
            assert len(store) == size
        checkpoints = _checkpoint_total() - before
        rps = size / elapsed
        if base_rps is None:
            base_rps = rps
        results[str(shards)] = {
            "seconds": round(elapsed, 3),
            "records_per_s": round(rps),
            "checkpoints": checkpoints,
            "speedup_vs_1": round(rps / base_rps, 2),
        }
        print(
            f"  ingest {size} @ {shards} shard(s): {elapsed:.2f}s "
            f"({rps:,.0f} rec/s, {checkpoints} checkpoints, "
            f"{rps / base_rps:.2f}x vs 1)",
            file=sys.stderr,
        )
    return results


def bench_shard_query(size: int, repeats: int) -> dict:
    """Sorted-scan and aggregate latency over each shard count, with a
    byte-identity check of every shard count against 1 shard."""
    rows = _records(min(size, 20_000))
    results: dict[str, dict] = {}
    baseline_sorted = baseline_agg = None
    for shards in SHARD_COUNTS:
        store = ShardedStore(PUBLICATION_SCHEMA, shards=shards)
        store.put_many(rows)
        _add_indexes(store)
        engine = QueryEngine(store)
        try:
            sorted_out = engine.execute(QUERY_SORTED)
            agg_out = engine.aggregate(QUERY_AGG_FILTER, QUERY_AGG_FIELD)
            if baseline_sorted is None:
                baseline_sorted, baseline_agg = sorted_out, agg_out
            else:
                assert sorted_out == baseline_sorted, (
                    f"sorted scan diverged at {shards} shards"
                )
                assert agg_out == baseline_agg, (
                    f"aggregate diverged at {shards} shards"
                )
            sorted_samples, agg_samples = [], []
            for _ in range(repeats):
                start = perf_counter()
                engine.execute(QUERY_SORTED)
                sorted_samples.append(perf_counter() - start)
                start = perf_counter()
                engine.aggregate(QUERY_AGG_FILTER, QUERY_AGG_FIELD)
                agg_samples.append(perf_counter() - start)
        finally:
            store.close()
        s50, s99 = (harness.percentile(sorted_samples, p) for p in (50, 99))
        a50, a99 = (harness.percentile(agg_samples, p) for p in (50, 99))
        results[str(shards)] = {
            "sorted_p50_ms": round(s50 * 1e3, 3),
            "sorted_p99_ms": round(s99 * 1e3, 3),
            "aggregate_p50_ms": round(a50 * 1e3, 3),
            "aggregate_p99_ms": round(a99 * 1e3, 3),
            "identical_to_1_shard": True,
        }
        print(
            f"  query @ {shards} shard(s): sorted p50 {s50 * 1e3:.2f}ms "
            f"p99 {s99 * 1e3:.2f}ms, aggregate p50 {a50 * 1e3:.2f}ms "
            f"p99 {a99 * 1e3:.2f}ms",
            file=sys.stderr,
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write JSON here instead of stdout")
    parser.add_argument(
        "--quick", action="store_true", help="small corpus / few repeats (CI smoke)"
    )
    args = parser.parse_args(argv)

    size = QUICK_SIZE if args.quick else FULL_SIZE
    repeats = 5 if args.quick else 30
    obs.reset()
    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:
        ingest = bench_shard_ingest(size, Path(tmp))
        query = bench_shard_query(size, repeats)
    doc = {
        "benchmark": "bench_shard",
        # The ingest speedup is checkpoint-bound on one core; the
        # thread-pool commit headroom only shows with cores to spare,
        # so a result is only comparable to runs on similar hardware.
        "host": harness.host_block(),
        "quick": args.quick,
        "targets": {"ingest_speedup_4_shards_vs_1": INGEST_SPEEDUP_TARGET},
        "config": {
            "records": size,
            "batch_records": BATCH_RECORDS,
            "checkpoint_wal_bytes": CHECKPOINT_WAL_BYTES,
            "sync": True,
        },
        "ingest": ingest,
        "query": query,
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
