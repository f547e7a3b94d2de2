"""PAGED — millisecond reopen and working-set-bounded memory.

Two experiments, written to ``BENCH_paged.json``:

* **reopen** — the same corpus as a legacy v2 directory (records
  inline in ``snapshot.json``, written by hand with
  ``tests/legacy_v2.py``, as an upgrade finds it) and as a paged
  checkpoint, then measure cold open time.  The v2 open must parse the
  full inline snapshot (O(dataset)); the paged open reads one 4 KiB meta
  page and serves everything else read-through (O(1)).  Target: the
  paged store reopens ≥ 10x faster at 100k records, and a full sorted
  scan of both reopened stores is byte-identical (same records CRC).
* **pool sweep** — a skewed point-read workload (90% of reads on a 10%
  hot set) against the paged store at pool sizes 8 / 32 / 128 / 512
  pages.  Reports the ``storage.bufferpool.*`` hit rate, throughput,
  and resident bytes versus the on-disk pages file — the table behind
  the tuning guidance in ``docs/performance.md``: memory is bounded by
  the *pool*, not the dataset, and the knee sits where the pool covers
  the working set.  Each size runs :data:`SWEEP_PASSES` passes, each on
  a freshly opened store, so every pass sees the same page traffic (the
  bench asserts one hit rate per size); reads/s is reported as the
  passes' median and quartiles, because one pass swings by a third on
  a shared host.

Standalone-runnable (pytest not required)::

    PYTHONPATH=src python benchmarks/bench_paged.py             # print JSON
    PYTHONPATH=src python benchmarks/bench_paged.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_paged.py --output BENCH_paged.json

``--quick`` shrinks the corpus and repeat counts so CI can smoke-test the
harness in seconds; the checked-in baseline comes from a full run.  The
host block, percentiles, spreads and directory sizes come from
``bench_e2e/harness.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # for tests.legacy_v2
sys.path.insert(0, str(ROOT / "bench_e2e"))

import harness  # noqa: E402
from repro import obs  # noqa: E402
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig  # noqa: E402
from repro.corpus.wvlr import PUBLICATION_SCHEMA  # noqa: E402
from repro.storage import RecordStore, records_checksum  # noqa: E402
from repro.storage.pages import PAGE_SIZE  # noqa: E402
from tests.legacy_v2 import write_v2_store  # noqa: E402

FULL_SIZE = 100_000
QUICK_SIZE = 5_000
POOL_SIZES = (8, 32, 128, 512)
SWEEP_PASSES = 5
REOPEN_SPEEDUP_TARGET = 10.0
HOT_FRACTION = 0.10  # the working set: 10% of keys ...
HOT_PROBABILITY = 0.90  # ... take 90% of the reads

_RECORD_CACHE: dict[int, list[dict]] = {}


def _records(size: int) -> list[dict]:
    if size not in _RECORD_CACHE:
        config = SyntheticCorpusConfig(
            size=size, seed=1729, author_pool=min(size // 2, 2_000)
        )
        corpus = SyntheticCorpus(config)
        _RECORD_CACHE[size] = [record.to_store_dict() for record in corpus.records()]
    return _RECORD_CACHE[size]


def _scan_checksum(store: RecordStore) -> str:
    return records_checksum(sorted(store.scan(), key=lambda r: r["id"]))


def bench_reopen(size: int, repeats: int, scratch: Path) -> dict:
    """Cold-open latency of the same corpus: legacy v2 vs paged v3."""
    rows = _records(size)
    results: dict[str, dict] = {}
    checksums: dict[str, str] = {}
    write_v2_store(scratch / "v2", rows)  # opening never upgrades it
    with RecordStore(PUBLICATION_SCHEMA, scratch / "paged") as store:
        store.put_many(rows)
        store.checkpoint()
    for fmt in ("v2", "paged"):
        directory = scratch / fmt
        opens = []
        for _ in range(repeats):
            start = perf_counter()
            store = RecordStore(PUBLICATION_SCHEMA, directory)
            opens.append(perf_counter() - start)
            store.close()
        with RecordStore(PUBLICATION_SCHEMA, directory) as store:
            assert len(store) == size
            checksums[fmt] = _scan_checksum(store)
        open_ms = harness.percentile(opens, 50) * 1e3
        disk_bytes = harness.directory_bytes(directory)
        results[fmt] = {
            "open_p50_ms": round(open_ms, 3),
            "disk_bytes": disk_bytes,
        }
        print(
            f"  reopen {size} records [{fmt}]: p50 {open_ms:.1f}ms "
            f"({disk_bytes / 1e6:.1f} MB on disk)",
            file=sys.stderr,
        )
    speedup = results["v2"]["open_p50_ms"] / results["paged"]["open_p50_ms"]
    identical = checksums["v2"] == checksums["paged"]
    results["speedup_paged_vs_v2"] = round(speedup, 1)
    results["scan_checksum_identical"] = identical
    print(
        f"  paged reopens {speedup:.1f}x faster; scans "
        f"{'byte-identical' if identical else 'DIVERGED'}",
        file=sys.stderr,
    )
    assert identical, "paged and v2 scans diverged"
    return results


def bench_pool_sweep(size: int, reads: int, scratch: Path) -> dict:
    """Hit rate and resident memory across buffer-pool capacities."""
    rows = _records(size)
    directory = scratch / "sweep"
    with RecordStore(PUBLICATION_SCHEMA, directory) as store:
        store.put_many(rows)
        store.checkpoint()
    pages_bytes = next(directory.glob("store.pages.*")).stat().st_size

    keys = [row["id"] for row in rows]
    rng = random.Random(42)
    hot = keys[: max(1, int(len(keys) * HOT_FRACTION))]
    workload = [
        rng.choice(hot) if rng.random() < HOT_PROBABILITY else rng.choice(keys)
        for _ in range(reads)
    ]

    results: dict[str, dict] = {"pages_file_bytes": pages_bytes}
    for pool_pages in POOL_SIZES:
        hit_rates, reads_per_s = set(), []
        for _ in range(SWEEP_PASSES):
            before = obs.metrics.snapshot()["counters"]
            with RecordStore(
                PUBLICATION_SCHEMA, directory, pool_pages=pool_pages
            ) as store:
                start = perf_counter()
                for key in workload:
                    store.get(key)
                elapsed = perf_counter() - start
                # the pool, not the dataset, bounds resident record memory
                resident = len(store._records.tree.pool) * PAGE_SIZE
            pages = harness.counter_delta(before, obs.metrics.snapshot()["counters"])
            hits = pages.get("storage.bufferpool.hits", 0)
            misses = pages.get("storage.bufferpool.misses", 0)
            hit_rates.add(round(hits / max(1, hits + misses), 4))
            reads_per_s.append(reads / elapsed)
            assert resident <= pool_pages * PAGE_SIZE
        # A fresh pool replays the same reads, so every pass has the
        # same page traffic; only its speed varies.
        assert len(hit_rates) == 1, f"hit rate varied across passes: {hit_rates}"
        (hit_rate,) = hit_rates
        speed = harness.spread(reads_per_s)
        results[str(pool_pages)] = {
            "hit_rate": hit_rate,
            "reads_per_s": {key: round(value, 4) for key, value in speed.items()},
            "resident_bytes": resident,
            "pool_bound_bytes": pool_pages * PAGE_SIZE,
        }
        print(
            f"  pool {pool_pages:4d} pages: hit rate {hit_rate:6.2%}, "
            f"{speed['median']:9,.0f} reads/s (Q1-Q3 {speed['q1']:,.0f}-"
            f"{speed['q3']:,.0f}, {SWEEP_PASSES} passes), resident "
            f"{resident / 1024:.0f} KiB of {pages_bytes / 1e6:.1f} MB file",
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
    open_repeats = 3 if args.quick else 9
    reads = 5_000 if args.quick else 50_000
    obs.reset()
    with tempfile.TemporaryDirectory(prefix="bench-paged-") as tmp:
        reopen = bench_reopen(size, open_repeats, Path(tmp))
        sweep = bench_pool_sweep(size, reads, Path(tmp))

    speedup = reopen["speedup_paged_vs_v2"]
    if not args.quick and speedup < REOPEN_SPEEDUP_TARGET:
        print(
            f"  WARNING: reopen speedup {speedup}x below the "
            f"{REOPEN_SPEEDUP_TARGET}x target",
            file=sys.stderr,
        )
    doc = {
        "benchmark": "bench_paged",
        # Reads/s depend on the host; record what this one was.
        "host": harness.host_block(),
        "quick": args.quick,
        "targets": {"reopen_speedup": REOPEN_SPEEDUP_TARGET},
        "config": {
            "records": size,
            "open_repeats": open_repeats,
            "sweep_reads": reads,
            "sweep_passes": SWEEP_PASSES,
            "hot_fraction": HOT_FRACTION,
            "hot_probability": HOT_PROBABILITY,
            "page_size": PAGE_SIZE,
        },
        "reopen": reopen,
        "pool_sweep": sweep,
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
