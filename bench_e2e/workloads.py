"""The five workloads of the end-to-end author-index benchmark.

``run.py`` starts this file in a fresh interpreter per workload, with
``PYTHONHASHSEED`` fixed and the program's ``src`` directory on the path::

    python bench_e2e/workloads.py --workload lookup --seed 1 --seconds 15 \
        --trace 0 --workdir DIR

Every workload follows the same shape.  Its inputs (records and the op
list) are generated from ``--seed``.  The store is then set up several
times and ``setup_s`` is the median.  One client runs the op list in a
closed loop, each op after the previous one completes, until
``--seconds`` have passed, and checks each result after the op's timer
stops.  Only calls into the program's public APIs are timed.

With ``--trace 1`` the same loop runs with benchmark-side spans around
every call into a program layer.  The first ``counted`` ops are all
traced, and the program's counters are read before and after them, so
count metrics repeat exactly for a seed.  After them, blocks of traced
and untraced ops alternate, which gives the tracing overhead.  The run
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import SpanRecorder, finite, layer_of, percentile  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.builder import AuthorIndexBuilder, build_index  # noqa: E402
from repro.core.entry import PublicationRecord  # noqa: E402
from repro.core.pagination import paginate  # noqa: E402
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig  # noqa: E402
from repro.corpus.wvlr import PUBLICATION_SCHEMA  # noqa: E402
from repro.names.resolution import NameResolver  # noqa: E402
from repro.query import QueryEngine, ShardedQueryEngine, parse_query  # noqa: E402
from repro.storage import IndexKind, RecordStore, ShardedStore, records_checksum  # noqa: E402

# The traffic is assumed, not measured: the program keeps no query log,
# and neither the source artifact nor the related work reports one.  The
# assumed values are HOT_SHARE, HOT_READS, TOPK_YEARS, the op counts in
# Scale and update's checkpoint after every batch.  What the corpus does
# determine is drawn from it: a surname lookup picks a surname as often
# as it appears in bylines, and a citation lookup picks a record, so each
# (volume, page) is looked up as often as records carry it.  README.md
# ("Where the traffic comes from") gives the reason for each value.
SHARDS = 4
POOL_PAGES = 256  # the default pool; the sharded store splits it across shards
HOT_SHARE = 0.10  # 10% of the keys ...
HOT_READS = 0.90  # ... take 90% of the point reads
TOPK_YEARS = 3  # top-k queries ask for one of the last 3 years onwards
TOPK_LIMIT = 50
PLANTED_SHARE = 0.10  # bylines given an OCR-damaged author spelling
RESOLVED_CORPUS_SEED = 1993


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes and op counts of one run."""

    records: int = 10_000
    author_pool: int = 2_000
    resolved_records: int = 1_000
    gets: int = 5_000
    cites: int = 2_000
    surnames: int = 1_000
    topks: int = 100
    batch_size: int = 250
    batches_per_round: int = 10
    cites_per_batch: int = 25
    setup_repeats: int = 3
    #: ops traced and counted at the start of a ``--trace 1`` run
    counted_lookup: int = 1_000
    counted_publish: int = 2
    #: consecutive ops per traced/untraced block after the counted ones
    block_lookup: int = 100
    #: queries of each kind re-run with ``profile=True`` in a traced run
    profile_samples: int = 20
    #: enabled/disabled pairs and ops per pair of the telemetry-overhead check
    obs_pairs: int = 10
    obs_ops: int = 200


FULL = Scale()
QUICK = Scale(
    records=2_000,
    author_pool=400,
    resolved_records=300,
    gets=500,
    cites=200,
    surnames=100,
    topks=10,
    batch_size=50,
    batches_per_round=4,
    cites_per_batch=5,
    setup_repeats=2,
    counted_lookup=200,
    counted_publish=1,
    block_lookup=50,
    profile_samples=3,
    obs_pairs=2,
    obs_ops=50,
)

#: Program spans (``repro.obs.tracing``) of an index build, renamed into
#: the layer that does the work.
BUILD_PHASES = {
    "build.explode": "core.build.explode",
    "build.resolve": "names.resolve",
    "build.dedupe": "core.build.dedupe",
    "build.collate": "core.build.collate",
}

#: Per-layer self time reported as a share of the traced ops' wall time.
SHARE_SPANS = (
    "storage.open",
    "storage.scan",
    "storage.get",
    "storage.put_many",
    "storage.checkpoint",
    "query.execute",
    "core.decode",
    "core.build",
    "core.build.explode",
    "core.build.dedupe",
    "core.build.collate",
    "core.groups",
    "core.paginate",
    "core.render.text",
    "core.render.html",
    "names.resolve",
)
LAYERS = ("bench", "storage", "query", "core", "names")


# -- inputs -------------------------------------------------------------------


def corpus(size: int, seed: int, author_pool: int | None) -> list[PublicationRecord]:
    config = SyntheticCorpusConfig(size=size, seed=seed, author_pool=author_pool)
    return SyntheticCorpus(config).records()


def resolved_corpus(size: int, seed: int) -> list[PublicationRecord]:
    """A corpus with OCR-damaged author spellings planted in ~10% of
    bylines, which name resolution has to merge back.

    The records come from one fixed corpus and ``seed`` chooses the
    damage: which bylines, which author, which variant.  Resolution cost
    is dominated by a few large name blocks whose sizes depend on the
    generated author pool, so drawing the pool from the seed made the
    pass time vary by a quarter between seeds.
    """
    generator = SyntheticCorpus(SyntheticCorpusConfig(size=size, seed=RESOLVED_CORPUS_SEED))
    records = generator.records()
    names, truth = generator.noisy_variants()
    variants = {names[g[0]].identity_key(): [names[i] for i in g[1:]] for g in truth}
    rng = random.Random(seed + 1)
    out = []
    for record in records:
        if rng.random() < PLANTED_SHARE:
            authors = list(record.authors)
            j = rng.randrange(len(authors))
            authors[j] = rng.choice(variants[authors[j].identity_key()])
            record = dataclasses.replace(record, authors=tuple(authors))
        out.append(record)
    return out


def user_bytes(row: dict[str, Any]) -> int:
    return len(json.dumps(row, separators=(",", ":"), ensure_ascii=False).encode())


def disk_ratio(directory: Path, rows: list[dict[str, Any]]) -> float:
    """Bytes the store occupies per byte of its records as compact JSON."""
    return harness.directory_bytes(directory) / sum(map(user_bytes, rows))


def quoted(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cite_query(volume: int, page: int) -> str:
    return f"volume = {volume} AND page = {page}"


def lookup_ops(rows: list[dict[str, Any]], scale: Scale, seed: int) -> list[tuple]:
    """The assumed lookup mix: ``(kind, argument, query)`` per op.

    The ops come in one round per top-k query, each round holding the
    list's mix (50 ``get``, 20 ``cite``, 10 ``surname``, 1 ``topk``) in
    shuffled order, and the top-k threshold cycles through the last
    ``TOPK_YEARS`` years.  A run stops part-way through the list, so in
    a list shuffled as a whole the run's share of slow top-k queries,
    and which years they asked for (a ~10x cost difference), was left
    to chance and moved the measured rate more than the program did.

    The hot keys are the most recent 10% of records, a contiguous key
    range, so they sit on few pages and fit the buffer pool.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    keys = [row["id"] for row in rows]
    hot = keys[-max(1, int(len(keys) * HOT_SHARE)) :]
    last_year = max(row["year"] for row in rows)
    rounds = scale.topks
    ops: list[tuple] = []
    for r in range(rounds):
        batch: list[tuple] = []
        for _ in range(scale.gets // rounds):
            key = rng.choice(hot) if rng.random() < HOT_READS else rng.choice(keys)
            batch.append(("get", key, None))
        for _ in range(scale.cites // rounds):
            row = rng.choice(rows)
            volume, page = row["volume"], row["page"]
            batch.append(("cite", (volume, page), cite_query(volume, page)))
        for _ in range(scale.surnames // rounds):
            surname = rng.choice(rng.choice(rows)["surnames"])  # weighted by frequency
            batch.append(("surname", surname, f"surnames : {quoted(surname)}"))
        year = last_year - r % TOPK_YEARS
        batch.append(("topk", year, f"year >= {year} ORDER BY year LIMIT {TOPK_LIMIT}"))
        rng.shuffle(batch)
        ops += batch
    return ops


def index_by(rows: list[dict[str, Any]], key: Callable[[dict], list]) -> dict[Any, set[int]]:
    out: dict[Any, set[int]] = defaultdict(set)
    for row in rows:
        for value in key(row):
            out[value].add(row["id"])
    return out


def by_cite(row: dict[str, Any]) -> list[tuple[int, int]]:
    return [(row["volume"], row["page"])]


# -- stores -------------------------------------------------------------------


def open_store(sharded: bool, directory: Path) -> RecordStore | ShardedStore:
    """A durable paged store (``sync=True``) with the default pool."""
    if sharded:
        return ShardedStore(
            PUBLICATION_SCHEMA, directory, shards=SHARDS, sync=True,
            data_format="paged", pool_pages=POOL_PAGES // SHARDS,
        )
    return RecordStore(
        PUBLICATION_SCHEMA, directory, sync=True, data_format="paged", pool_pages=POOL_PAGES
    )


def make_engine(store: RecordStore | ShardedStore) -> QueryEngine | ShardedQueryEngine:
    if isinstance(store, ShardedStore):
        return ShardedQueryEngine(store)
    return QueryEngine(store)


def declare_indexes(store: RecordStore | ShardedStore) -> None:
    """The repository's four default indexes (``PublicationRepository``)."""
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("volume", IndexKind.BTREE)
    store.create_composite_index(("volume", "page"))


def warm_indexes(store: RecordStore | ShardedStore, row: dict[str, Any]) -> None:
    """One read through each index: a reopened paged store rebuilds its
    secondary indexes lazily, on first use."""
    store.find_by("surnames", row["surnames"][0])
    store.find_by("year", row["year"])
    store.find_by("volume", row["volume"])
    store.find_by_composite(("volume", "page"), (row["volume"], row["page"]))


def close_all(engine: Any, store: Any) -> None:
    if isinstance(engine, ShardedQueryEngine):
        engine.close()
    store.close()


# -- the measured loop --------------------------------------------------------


class Run:
    """State of one workload run: timings, failures, spans and counters.

    Every time is logged raw with its start and scaled to reference
    speed (see :class:`harness.SpeedProbe`) when the run ends.
    """

    def __init__(self, name: str, scale: Scale, seed: int, seconds: float,
                 trace: bool, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.rec = SpanRecorder()
        self.probe = harness.SpeedProbe()
        if name in ("lookup", "lookup_sharded"):
            self.counted, self.block = scale.counted_lookup, scale.block_lookup
        elif name == "update":
            self.counted, self.block = scale.batches_per_round, 1
        else:
            self.counted, self.block = scale.counted_publish, 1
        #: ``(start, seconds, kind, traced, after the counted ops)`` per op;
        #: a failed op has ``inf`` seconds
        self.op_log: list[tuple[float, float, str, bool, bool]] = []
        #: ``(start, seconds, call)`` of calls inside an op (update batches)
        self.call_log: list[tuple[float, float, str]] = []
        #: op kind -> its count in the workload's op list
        self.mix: dict[str, int] = {}
        #: ``(start, {phase: seconds})`` per set-up repetition
        self.setup_log: list[tuple[float, dict[str, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict[str, Any] = {}
        self.traced_wall = 0.0
        self.counts: dict[str, float] = {}
        self.wchar = 0
        self.user_bytes_written = 0
        self.scatter_overhead_s = 0.0
        self.program_spans: list[dict[str, Any]] = []
        self._snap: dict[str, float] = {}
        self._wchar0 = 0

    # -- set-up --

    def setup_store(self, rows: list[dict[str, Any]], *, sharded: bool = False):
        """Load, checkpoint, reopen and warm a store ``setup_repeats``
        times.  Returns the last store, open, with its engine and
        directory."""
        for rep in range(self.scale.setup_repeats):
            directory = self.workdir / f"setup{rep}"
            gc.collect()
            self.probe.tick()
            t0 = perf_counter()
            store = open_store(sharded, directory)
            declare_indexes(store)
            store.put_many(rows)
            t1 = perf_counter()
            store.checkpoint()
            t2 = perf_counter()
            store.close()
            store = open_store(sharded, directory)
            t3 = perf_counter()
            warm_indexes(store, rows[0])
            t4 = perf_counter()
            engine = make_engine(store)
            t5 = perf_counter()
            self.setup_log.append((t0, {
                "total": t5 - t0, "load": t1 - t0, "checkpoint": t2 - t1,
                "reopen": t3 - t2, "index_rebuild": t4 - t3, "engine": t5 - t4,
            }))
            if rep < self.scale.setup_repeats - 1:
                close_all(engine, store)
                shutil.rmtree(directory)
        self.probe.tick()
        return store, engine, directory

    # -- loop --

    def start(self) -> None:
        gc.collect()
        self.t_start = perf_counter()
        self.deadline = self.t_start + self.seconds

    def more(self, i: int) -> bool:
        return i < self.counted or perf_counter() < self.deadline

    def traced(self, i: int) -> bool:
        if not self.trace:
            return False
        if i < self.counted:
            return True
        return ((i - self.counted) // self.block) % 2 == 1

    def op(self, i: int, kind: str, fn: Callable[[], Any],
           check: Callable[[Any], bool]) -> None:
        """Time ``fn()`` as op ``i``, then check its result untimed.

        An op that raises or returns a wrong result is a failure and
        counts as an infinite latency.
        """
        self.probe.tick()
        traced = self.traced(i)
        rec = self.rec
        rec.enabled = traced
        rec.trace_id = i
        if self.trace and i == 0:
            self._snapshot_before()
        t_iter = t0 = perf_counter()
        elapsed = math.inf
        try:
            with rec.span("op." + kind):
                t0 = perf_counter()
                result = fn()
                elapsed = perf_counter() - t0
            with rec.span("bench.check"):
                ok = bool(check(result))
            if not ok:
                self._error(f"{kind}: wrong result (op {i})")
        except Exception:  # a failed op is counted, the run goes on
            ok = False
            self._error(f"{kind}: {traceback.format_exc(limit=3)}")
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.op_log.append((t0, elapsed if ok else math.inf, kind, traced, i >= self.counted))
        if traced:
            self.traced_wall += perf_counter() - t_iter
        rec.enabled = False
        if self.trace and i == self.counted - 1:
            self._snapshot_after()

    def call(self, name: str, fn: Callable[[], Any]) -> Any:
        """Time one call inside an op, in a span named after it."""
        with self.rec.span(name):
            t0 = perf_counter()
            result = fn()
            self.call_log.append((t0, perf_counter() - t0, name))
        return result

    def verify(self, what: str, ok: bool) -> None:
        """A correctness check that is not an op (e.g. a reopen)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._error(f"{what}: failed")

    def stop(self) -> None:
        self.measure_s = perf_counter() - self.t_start
        self.probe.tick()
        self.peak_rss_mb = harness.peak_rss_mb()

    def _error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    # -- counters --

    def _read_counters(self) -> dict[str, float]:
        snap = obs.metrics_snapshot()
        counters = harness.sum_series(snap["counters"])
        for name, hist in snap["histograms"].items():
            base = name.split("{", 1)[0]
            counters[base + ".sum"] = counters.get(base + ".sum", 0.0) + hist["sum"]
        return counters

    def _snapshot_before(self) -> None:
        self._snap = self._read_counters()
        self._wchar0 = harness.io_wchar()

    def _snapshot_after(self) -> None:
        self.wchar = harness.io_wchar() - self._wchar0
        self.counts = harness.counter_delta(self._snap, self._read_counters())

    # -- program spans --

    def keep_program_span(self, span: Any) -> None:
        if len(self.program_spans) < 50:
            self.program_spans.append(span.to_dict())

    def graft_build(self, start: float) -> None:
        """Attribute the phases of the program's ``build.index`` span."""
        if not self.rec.enabled:
            return
        root = obs.tracing.last_root()
        if root is None or root.name != "build.index":
            return
        offset = start
        for child in root.children:
            name = BUILD_PHASES.get(child.name)
            if name is not None:
                self.rec.add_child(name, offset, child.duration_s)
            offset += child.duration_s
        self.keep_program_span(root)

    def note_scatter(self) -> None:
        """Scatter fixed cost of the last sharded query: its wall time
        minus the slowest shard."""
        if not self.rec.enabled:
            return
        root = obs.tracing.last_root()
        if root is None or root.name != "query.scatter":
            return
        slowest = max((c.duration_s for c in root.children), default=0.0)
        self.scatter_overhead_s += root.duration_s - slowest
        self.keep_program_span(root)

    # -- results --

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        if not math.isfinite(seconds):
            return seconds
        return seconds * self.probe.factor(start, start + seconds)

    def samples(self, *, raw: bool = False) -> dict[str, list[float]]:
        """Op latencies per kind, scaled unless ``raw``."""
        out: dict[str, list[float]] = defaultdict(list)
        for start, seconds, kind, _, _ in self.op_log:
            out[kind].append(seconds if raw else self.scaled(start, seconds))
        return out

    def calls(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for start, seconds, name in self.call_log:
            out[name].append(self.scaled(start, seconds))
        return out

    def setup_phases(self) -> dict[str, float]:
        """Median over the set-up repetitions of each phase, scaled."""
        phases: dict[str, list[float]] = defaultdict(list)
        for start, times in self.setup_log:
            factor = self.probe.factor(start, start + times["total"])
            for phase, seconds in times.items():
                phases[phase].append(seconds * factor)
        return {phase: statistics.median(v) for phase, v in phases.items()}


# -- workloads ----------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_publish(run: Run, resolved: bool) -> None:
    """reopen → scan → decode → build → groups → paginate → render."""
    scale = run.scale
    if resolved:
        records = resolved_corpus(scale.resolved_records, run.seed)
    else:
        records = corpus(scale.records, run.seed, scale.author_pool)
    rows = [record.to_store_dict() for record in records]
    reference = build_index(records, resolve_variants=resolved)
    expected = (
        sha256(reference.render("text")),
        sha256(reference.render("html")),
        len(reference.groups()),
        len(paginate(reference)),
    )
    del reference
    store, engine, directory = run.setup_store(rows)
    close_all(engine, store)
    run.extra["disk_bytes_per_user_byte"] = disk_ratio(directory, rows)
    rec = run.rec

    def one_pass() -> tuple:
        with rec.span("storage.open"):
            store = open_store(False, directory)
        try:
            with rec.span("storage.scan"):
                scanned = list(store.scan())
        finally:
            with rec.span("storage.close"):
                store.close()
        with rec.span("core.decode"):
            decoded = [PublicationRecord.from_store_dict(row) for row in scanned]
        with rec.span("core.build") as span:
            index = AuthorIndexBuilder(resolve_variants=resolved).add_records(decoded).build()
            run.graft_build(span.start)
        with rec.span("core.groups"):
            groups = index.groups()
        with rec.span("core.paginate"):
            pages = paginate(index)
        with rec.span("core.render.text"):
            text = index.render("text")
        with rec.span("core.render.html"):
            html = index.render("html")
        return text, html, len(groups), len(pages)

    def check(result: tuple) -> bool:
        text, html, groups, pages = result
        run.extra["output_bytes"] = len(text.encode()) + len(html.encode())
        return (sha256(text), sha256(html), groups, pages) == expected

    run.mix = {"pass": 1}
    run.start()
    i = 0
    while run.more(i):
        run.op(i, "pass", one_pass, check)
        i += 1
    run.stop()
    if run.trace and resolved:
        report = NameResolver().resolve([a for r in records for a in r.authors])
        run.extra["pairs_scored"] = report.pairs_scored
        run.extra["pairs_merged"] = report.pairs_merged


def workload_lookup(run: Run, sharded: bool) -> None:
    """Point reads, citation lookups, surname lookups and top-k queries."""
    scale = run.scale
    rows = [r.to_store_dict() for r in corpus(scale.records, run.seed, scale.author_pool)]
    by_id = {row["id"]: row for row in rows}
    cites = index_by(rows, by_cite)
    surnames = index_by(rows, lambda row: row["surnames"])
    years = sorted(row["year"] for row in rows)
    ops = lookup_ops(rows, scale, run.seed)
    run.mix = {"get": scale.gets, "cite": scale.cites, "surname": scale.surnames,
               "topk": scale.topks}
    store, engine, directory = run.setup_store(rows, sharded=sharded)
    run.extra["disk_bytes_per_user_byte"] = disk_ratio(directory, rows)
    rec = run.rec

    def get(key: int) -> dict:
        with rec.span("storage.get"):
            return store.get(key)

    def execute(text: str) -> list:
        with rec.span("query.execute"):
            result = engine.execute(text)
            if sharded:
                run.note_scatter()
        return result

    def ids(result: list) -> set[int]:
        return {row["id"] for row in result}

    def topk_ok(year: int, result: list) -> bool:
        expected = [y for y in years if y >= year][:TOPK_LIMIT]
        return [row["year"] for row in result] == expected and all(
            row == by_id[row["id"]] for row in result
        )

    checks = {
        "get": lambda key, result: result == by_id[key],
        "cite": lambda arg, result: ids(result) == cites[arg],
        "surname": lambda arg, result: ids(result) == surnames[arg],
        "topk": topk_ok,
    }
    try:
        # Warm-up: the hot keys once, then one query of each kind.
        for key in [row["id"] for row in rows[-max(1, int(len(rows) * HOT_SHARE)) :]]:
            store.get(key)
        for kind in ("cite", "surname", "topk"):
            engine.execute(next(op[2] for op in ops if op[0] == kind))
        run.start()
        i = 0
        while run.more(i):
            kind, arg, text = ops[i % len(ops)]
            fn = (lambda: get(arg)) if kind == "get" else (lambda: execute(text))
            run.op(i, kind, fn, lambda result: checks[kind](arg, result))
            i += 1
        run.stop()
        if run.trace:
            obs_overhead(run, store, engine, ops)
            profile_queries(run, engine, ops)
            parse_share(run, ops)
    finally:
        close_all(engine, store)


def workload_update(run: Run) -> None:
    """Durable batch writes with reads and a checkpoint after each batch.

    A round applies ``batches_per_round`` batches to a copy of the
    set-up store, then closes it, reopens it and checks the checksum of
    every record.  Each round starts again from the set-up store and
    always runs to its end, so every run measures the same store sizes
    however fast it is.
    """
    scale = run.scale
    size = scale.records + scale.batches_per_round * scale.batch_size
    rows = [r.to_store_dict() for r in corpus(size, run.seed, scale.author_pool)]
    base_rows, new_rows = rows[: scale.records], rows[scale.records :]
    batches = [
        new_rows[b * scale.batch_size : (b + 1) * scale.batch_size]
        for b in range(scale.batches_per_round)
    ]
    base_cites = index_by(base_rows, by_cite)
    new_cites: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for b, batch in enumerate(batches):
        for row in batch:
            new_cites[(row["volume"], row["page"])].append((b, row["id"]))
    rng = random.Random(run.seed * 1_000_003 + 29)
    batch_cites = []
    for b, batch in enumerate(batches):
        old = base_rows + new_rows[: b * scale.batch_size]
        picks = [rng.choice(batch) for _ in range(scale.cites_per_batch // 2)]
        picks += [rng.choice(old) for _ in range(scale.cites_per_batch - len(picks))]
        batch_cites.append([(row["volume"], row["page"]) for row in picks])
    row_bytes = [user_bytes(row) for row in rows]
    checksums: dict[int, str] = {}

    def expected_checksum(applied: int) -> str:
        if applied not in checksums:
            checksums[applied] = records_checksum(
                rows[: scale.records + applied * scale.batch_size]
            )
        return checksums[applied]

    store, engine, base_dir = run.setup_store(base_rows)
    close_all(engine, store)
    disk_ratios = []

    def apply_batch(store: RecordStore, engine: QueryEngine, b: int) -> tuple:
        written = run.call("storage.put_many", lambda: store.put_many(batches[b]))
        results = [
            run.call("query.execute", lambda: engine.execute(cite_query(volume, page)))
            for volume, page in batch_cites[b]
        ]
        run.call("storage.checkpoint", store.checkpoint)
        return written, results

    def check_batch(b: int, result: tuple) -> bool:
        written, results = result
        for (volume, page), rows_out in zip(batch_cites[b], results):
            expected = set(base_cites.get((volume, page), ()))
            expected.update(pk for bi, pk in new_cites.get((volume, page), ()) if bi <= b)
            if {row["id"] for row in rows_out} != expected:
                return False
        return written == len(batches[b])

    run.mix = {"batch": 1}
    run.start()
    i = 0
    round_no = 0
    while run.more(i):
        directory = run.workdir / f"round{round_no}"
        shutil.copytree(base_dir, directory)
        store = open_store(False, directory)
        warm_indexes(store, base_rows[0])
        engine = QueryEngine(store)
        applied = 0
        try:
            for b in range(scale.batches_per_round):
                if run.trace and i < run.counted:
                    run.user_bytes_written += sum(
                        row_bytes[scale.records + b * scale.batch_size :][: scale.batch_size]
                    )
                run.op(i, "batch", lambda: apply_batch(store, engine, b),
                       lambda result: check_batch(b, result))
                i += 1
                applied = b + 1
        finally:
            store.close()
        reopened = open_store(False, directory)
        try:
            run.verify("reopen checksum",
                       records_checksum(list(reopened.scan())) == expected_checksum(applied))
        finally:
            reopened.close()
        live = sum(row_bytes[: scale.records + applied * scale.batch_size])
        disk_ratios.append(harness.directory_bytes(directory) / live)
        shutil.rmtree(directory)
        round_no += 1
    run.stop()
    run.extra["rounds"] = round_no
    run.extra["disk_bytes_per_user_byte"] = statistics.median(disk_ratios)


# -- traced-run extras --------------------------------------------------------


def obs_overhead(run: Run, store: Any, engine: Any, ops: list[tuple]) -> None:
    """Telemetry cost on point reads and citation lookups: the same ops
    repeated with ``obs`` enabled and disabled, in alternating pairs."""
    gets = [arg for kind, arg, _ in ops if kind == "get"][: run.scale.obs_ops]
    cites = [text for kind, _, text in ops if kind == "cite"][: run.scale.obs_ops]
    times: dict[tuple[str, bool], list[float]] = defaultdict(list)
    try:
        for pair in range(run.scale.obs_pairs):
            for enabled in ((True, False) if pair % 2 == 0 else (False, True)):
                obs.set_enabled(enabled)
                t0 = perf_counter()
                for key in gets:
                    store.get(key)
                t1 = perf_counter()
                for text in cites:
                    engine.execute(text)
                t2 = perf_counter()
                times[("get", enabled)].append(t1 - t0)
                times[("cite", enabled)].append(t2 - t1)
    finally:
        obs.set_enabled(True)
    for kind in ("get", "cite"):
        on = statistics.median(times[(kind, True)])
        off = statistics.median(times[(kind, False)])
        run.extra[f"obs_overhead_{kind}_pct"] = (on / off - 1.0) * 100.0


def profile_queries(run: Run, engine: Any, ops: list[tuple]) -> None:
    """EXPLAIN ANALYZE of the first queries of each kind: per-operator
    self time, and rows examined per row returned."""
    samples: dict[str, list[dict]] = defaultdict(list)
    op_self: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    examined: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for kind, _, text in ops:
        if kind == "get" or len(samples[kind]) >= run.scale.profile_samples:
            continue
        profile = engine.execute(text, profile=True)
        samples[kind].append(profile.to_dict())
        nodes = list(profile.root.iter_nodes())
        for node in nodes:
            op_self[kind][node.op] += node.seconds * 1e3
        examined[kind][0] += max(node.rows_examined for node in nodes)
        examined[kind][1] += profile.root.rows_returned
    run.extra["explain_analyze"] = {
        kind: {"operator_self_ms": dict(op_self[kind]), "samples": samples[kind]}
        for kind in samples
    }
    for kind, (seen, returned) in examined.items():
        run.extra[f"{kind}_examined_per_returned"] = seen / returned if returned else 0.0


def parse_share(run: Run, ops: list[tuple]) -> None:
    """Parse time of the query strings against their execute time."""
    texts = [text for kind, _, text in ops if kind != "get"][: run.scale.obs_ops]
    t0 = perf_counter()
    for text in texts:
        parse_query(text)
    per_parse = (perf_counter() - t0) / len(texts)
    samples = run.samples(raw=True)
    executed = [x for kind in ("cite", "surname", "topk") for x in samples[kind]]
    if executed:
        run.extra["parse_pct"] = per_parse / statistics.mean(executed) * 100.0


# -- metrics ------------------------------------------------------------------


def latency(run: Run, *, raw: bool = False) -> tuple[float | None, float | None]:
    """``(op_median_ms, ops_per_s)`` at reference speed, or unscaled.

    ``op_median_ms`` is the geometric mean of each op kind's median,
    weighted by the kind's share of the workload's op list (``run.mix``):
    the median itself for a one-kind workload, and on the lookup mix a
    figure in which each kind's relative change counts by its share.
    The plain median of all ops would sit inside the point reads' upper
    tail there and move with the pool's hit ratio.

    ``ops_per_s`` is the closed-loop client's rate: ops completed over
    the sum of their latencies.  Being a mean, it counts every slow op
    by the time it took, so a change that only lengthens the tail
    (collector pauses, checkpoint stalls, pool misses) moves it although
    no median moves.  Both are ``None`` when an op failed.
    """
    samples = run.samples(raw=raw)
    times = [x for values in samples.values() for x in values]
    if not times or not all(math.isfinite(x) for x in times):
        return None, None
    return weighted_median_ms(samples, run.mix), len(times) / math.fsum(times)


def weighted_median_ms(samples: dict[str, list[float]], mix: dict[str, int]) -> float:
    ops = sum(mix.values())
    log_mean = sum(n * math.log(percentile(samples[k], 50)) for k, n in mix.items()) / ops
    return math.exp(log_mean) * 1e3


def end_to_end(run: Run) -> dict[str, tuple[float | None, str]]:
    """The metrics a user of the program sees; times at reference speed."""
    typical, per_s = latency(run)
    return {
        "op_median_ms": (typical, "ms"),
        "ops_per_s": (per_s, "1/s"),
        "setup_s": (run.setup_phases()["total"], "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "disk_bytes_per_user_byte": (run.extra["disk_bytes_per_user_byte"], "ratio"),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(run: Run) -> dict[str, tuple[float | None, str]]:
    c = run.counts
    self_times = run.rec.self_times()
    wall = run.traced_wall
    layer_s = defaultdict(float)
    for name, seconds in self_times.items():
        layer_s[layer_of(name)] += seconds
    out: dict[str, tuple[float | None, str]] = {}
    out["bench.unattributed_pct"] = (ratio(wall - run.rec.root_seconds(), wall) * 100, "%")
    out["bench.trace_overhead_pct"] = (trace_overhead(run), "%")
    # Cross-check of the host-speed scaling: the unscaled op_median_ms of
    # the untraced ops, and the probe pass time it was scaled by.
    untraced: dict[str, list[float]] = defaultdict(list)
    for _, seconds, kind, traced, _ in run.op_log:
        if not traced:
            untraced[kind].append(seconds)
    raw = untraced if all(untraced[k] for k in run.mix) else run.samples(raw=True)
    out["bench.raw_op_median_ms"] = (finite(weighted_median_ms(raw, run.mix)), "ms")
    out["bench.probe_ms"] = (statistics.median(run.probe.seconds) * 1e3, "ms")
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (ratio(layer_s[layer], wall) * 100, "%")
    for name in SHARE_SPANS:
        out[f"{name}.self_pct"] = (ratio(self_times.get(name, 0.0), wall) * 100, "%")
    query_s = sum(s for n, s in self_times.items() if layer_of(n) == "query")
    out["query.scatter.overhead_pct"] = (ratio(run.scatter_overhead_s, query_s) * 100, "%")
    out["query.scatter.merge_pct"] = (
        ratio(c.get("query.scatter.merge.seconds.sum", 0.0), query_s) * 100, "%"
    )
    out["query.parse_pct"] = (run.extra.get("parse_pct", 0.0), "%")
    hits, misses = c.get("storage.bufferpool.hits", 0), c.get("storage.bufferpool.misses", 0)
    out["storage.bufferpool.hits"] = (hits, "count")
    out["storage.bufferpool.misses"] = (misses, "count")
    out["storage.bufferpool.evictions"] = (c.get("storage.bufferpool.evictions", 0), "count")
    out["storage.bufferpool.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    out["storage.paged_btree.searches_per_op"] = (
        ratio(c.get("storage.paged_btree.searches", 0), run.counted), "count/op"
    )
    out["storage.wal.fsyncs"] = (c.get("storage.wal.fsync.count", 0), "count")
    out["storage.wal.bytes_per_user_byte"] = (
        ratio(c.get("storage.wal.append.bytes", 0), run.user_bytes_written), "ratio"
    )
    out["storage.write_bytes_per_user_byte"] = (
        ratio(run.wchar, run.user_bytes_written), "ratio"
    )
    out["query.plan_cache.hit_ratio"] = (
        ratio(c.get("query.planner.cache.hit", 0),
              c.get("query.planner.cache.hit", 0) + c.get("query.planner.cache.miss", 0)),
        "ratio",
    )
    for kind in ("surname", "topk"):
        out[f"query.{kind}.rows_examined_per_returned"] = (
            run.extra.get(f"{kind}_examined_per_returned", 0.0), "ratio"
        )
    collated = c.get("build.entries.collated", 0)
    out["core.dedupe.kept_ratio"] = (
        ratio(collated, collated + c.get("build.entries.deduped", 0)), "ratio"
    )
    out["core.output_bytes"] = (run.extra.get("output_bytes", 0), "bytes")
    out["names.resolve.pairs_scored"] = (run.extra.get("pairs_scored", 0), "count")
    out["names.resolve.merge_ratio"] = (
        ratio(run.extra.get("pairs_merged", 0), run.extra.get("pairs_scored", 0)), "ratio"
    )
    out["obs.overhead.get_pct"] = (run.extra.get("obs_overhead_get_pct", 0.0), "%")
    out["obs.overhead.cite_pct"] = (run.extra.get("obs_overhead_cite_pct", 0.0), "%")
    phases = run.setup_phases()
    for phase in ("load", "checkpoint", "reopen", "index_rebuild"):
        out[f"setup.{phase}_ms"] = (phases[phase] * 1e3, "ms")
    return out


def trace_overhead(run: Run) -> float:
    """Median latency of traced against untraced ops of each kind after
    the counted ops, weighted by the kind's op count."""
    modes: dict[tuple[bool, str], list[float]] = defaultdict(list)
    for start, seconds, kind, traced, after_counted in run.op_log:
        if after_counted and math.isfinite(seconds):
            modes[(traced, kind)].append(run.scaled(start, seconds))
    traced_s = untraced_s = 0.0
    for kind, values in run.samples().items():
        on, off = modes[(True, kind)], modes[(False, kind)]
        if on and off:
            traced_s += len(values) * statistics.median(on)
            untraced_s += len(values) * statistics.median(off)
    return ratio(traced_s - untraced_s, untraced_s) * 100


def workload_metrics(run: Run) -> dict[str, tuple[float | None, str, int]]:
    """Per-workload metrics printed and written with the report: each op
    kind's median and highest supported percentile, at reference speed,
    plus the end-to-end times unscaled (``raw_*``) as a cross-check."""
    out: dict[str, tuple[float | None, str, int]] = {}

    def timing(prefix: str, values: list[float], scale: float, unit: str) -> None:
        if not values:
            return
        out[f"{prefix}_p50_{unit}"] = (finite(percentile(values, 50) * scale), unit, len(values))
        tail = harness.tail_percentile(values)
        if tail is not None and tail[0] > 50:
            label = f"{tail[0]:g}".replace(".", "_")
            out[f"{prefix}_p{label}_{unit}"] = (finite(tail[1] * scale), unit, len(values))

    samples, calls = run.samples(), run.calls()
    if "pass" in samples:
        out["publish_s"] = (finite(percentile(samples["pass"], 50)), "s", len(samples["pass"]))
    timing("get", samples.get("get", []), 1e6, "us")
    timing("cite", samples.get("cite", []) or calls.get("query.execute", []), 1e6, "us")
    timing("surname", samples.get("surname", []), 1e3, "ms")
    timing("topk", samples.get("topk", []), 1e3, "ms")
    if "storage.put_many" in calls:
        puts = calls["storage.put_many"]
        out["ingest_records_per_s"] = (
            len(puts) * run.scale.batch_size / sum(puts), "1/s", len(puts)
        )
        timing("checkpoint", calls["storage.checkpoint"], 1e3, "ms")
    raw = [x for values in run.samples(raw=True).values() for x in values]
    raw_typical, raw_per_s = latency(run, raw=True)
    out["raw_op_median_ms"] = (raw_typical, "ms", len(raw))
    out["raw_ops_per_s"] = (raw_per_s, "1/s", len(raw))
    out["raw_setup_s"] = (
        statistics.median(times["total"] for _, times in run.setup_log), "s", len(run.setup_log)
    )
    out["probe_ms"] = (statistics.median(run.probe.seconds) * 1e3, "ms", len(run.probe.seconds))
    out["fail_ratio"] = (run.failed / max(run.attempted, 1), "ratio", run.attempted)
    out["ops"] = (float(len(raw)), "count", len(raw))
    return out


# -- entry point --------------------------------------------------------------


def run_workload(name: str, scale: Scale, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[Run, dict[str, Any]]:
    """Run one workload in this process; returns the run and its report."""
    obs.reset()
    run = Run(name, scale, seed, seconds, trace, workdir)
    if name == "publish":
        workload_publish(run, resolved=False)
    elif name == "publish_resolved":
        workload_publish(run, resolved=True)
    elif name == "lookup":
        workload_lookup(run, sharded=False)
    elif name == "lookup_sharded":
        workload_lookup(run, sharded=True)
    elif name == "update":
        workload_update(run)
    else:
        raise ValueError(f"unknown workload {name!r}")
    metrics = per_layer(run) if trace else end_to_end(run)
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": harness.host_block(),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {
            k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in workload_metrics(run).items()
        },
        "setup_ms": {k: v * 1e3 for k, v in run.setup_phases().items()},
        "measure_s": run.measure_s,
        "series": {
            "ops": [[t, finite(x), k] for t, x, k, _, _ in run.op_log],
            "probe": list(zip(run.probe.starts, run.probe.seconds)),
        },
    }
    if trace:
        report["trace_detail"] = {
            "counted_ops": run.counted,
            "counters": run.counts,
            "self_ms": {k: v * 1e3 for k, v in sorted(run.rec.self_times().items())},
            "spans": run.rec.to_json(limit=20_000),
            "program_spans": run.program_spans,
            "explain_analyze": run.extra.get("explain_analyze", {}),
        }
    return run, report


def summary_lines(report: dict[str, Any]) -> list[str]:
    lines = [f"{report['workload']} (seed {report['seed']}, trace {int(report['trace'])}):"]
    n_ops = report["workload_metrics"]["ops"]["n"]
    for name, m in report["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<40} {value:>14} {m['unit']:<8} n={n_ops}")
    for name, m in report["workload_metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<40} {value:>14} {m['unit']:<8} n={m['n']}")
    for error in report["errors"]:
        lines.append(f"  error: {error.strip()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = harness.parser("Run one workload of the end-to-end benchmark in this process.")
    p.add_argument("--workdir", required=True, help="directory for the stores")
    args = p.parse_args(argv)
    if args.workload is None:
        p.error("--workload is required")
    scale = QUICK if args.quick else FULL
    seconds = harness.default_seconds(args)
    workdir = Path(args.workdir)
    _, report = run_workload(args.workload, scale, args.seed, seconds, bool(args.trace), workdir)
    print("\n".join(summary_lines(report)))
    if args.output:
        harness.write_json(report, args.output)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
