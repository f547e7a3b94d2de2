"""Command-line interface: ``python -m repro`` / ``repro-index``.

Subcommands
-----------
``build``
    Build an author index from a JSON corpus (or the bundled reference
    corpus) and render it to any registered format.
``ingest``
    Parse raw OCR'd index text into the JSON corpus format.
``query``
    Run a query against a corpus loaded into the embedded store.
    ``--explain`` prints the plan; ``--profile`` executes with
    EXPLAIN ANALYZE-style per-operator timings and row counts
    (``--json`` for the machine-readable form).  ``--timeout-ms`` /
    ``--max-rows`` bound the execution: a violated bound prints a
    one-line JSON error to stderr and exits 3 (deadline/cancel) or
    4 (budget).
``stats``
    Print corpus/index statistics, or — with ``--metrics`` — run the
    full pipeline (storage, build, query, search) against the corpus and
    dump the observability registry snapshot (JSON by default).
``formats``
    List available render formats.
``fsck``
    Check (and with ``--repair``, repair) the integrity of a store
    directory: snapshot manifest, WAL segment chain, CRC frames, crash
    artifacts.  Exit code 0 = clean/repaired, 1 = repairable damage
    found (run again with ``--repair``), 2 = fatal damage.  A sharded
    store root (``shards.json``) is detected automatically: every shard
    is checked, the exit code is the worst across shards, and ``--json``
    emits the per-shard report.
``checkpoint``
    Open a store directory, replay its WAL, and checkpoint it: publish a
    verified paged checkpoint (v3 manifest + ``store.pages`` file,
    millisecond reopen) and delete the WAL segments it covers.  Sharded
    roots are detected automatically and checkpointed shard-parallel.
    A directory still holding a legacy v2 inline-records snapshot is
    upgraded to v3 by this.
``serve-telemetry``
    Run the stdlib HTTP telemetry daemon: ``/statusz`` (HTML dashboard),
    ``/metrics`` (Prometheus), ``/healthz`` (fsck-backed store health),
    ``/alertz`` (SLO burn-rate alerts), ``/progressz`` (in-flight long
    operations), ``/varz``, ``/tracez``, ``/logz``.  See
    ``docs/operations.md``.
``progress``
    One-shot (or ``--interval`` live) view of a running daemon's
    ``/progressz``: in-flight checkpoints, bulk builds, fsck walks, and
    sharded ingests with done/total, rate, and ETA.
``alerts``
    Evaluate declarative SLO rules (availability burn rate, latency,
    checkpoint staleness, WAL backlog) over a recorded metric sample
    ring — or poll a daemon's ``/alertz`` — and exit 1 when any rule is
    firing, so cron/CI can page on it.
``serve-query``
    The telemetry daemon plus a resilient ``/query`` endpoint: admission
    control with load shedding (429 + ``Retry-After``), per-query
    deadlines and row budgets, and a circuit breaker feeding
    ``/healthz``.  See ``docs/resilience.md``.
``logs``
    Tail structured log events: from a JSONL file (``--file``), or from
    an in-process run of the standard pipeline workload at debug level.
``top``
    The workload profiler's fingerprint table — which query shapes the
    process's work went to (calls, rows, CPU/wall time, bytes, plan-cache
    hits, interruptions).  ``--url`` polls a running daemon's ``/topz``
    (``--interval`` for a live view); without it, a mixed demo burst runs
    in-process and its table is shown.
``profile``
    Run the sampling wall-clock profiler for ``--seconds`` and write
    ``flamegraph.pl``-ready collapsed stacks: against a running daemon
    (``--url``, via ``/profilez``) or around an in-process query burst.
``workload-report``
    Seed a store (synthetic corpus by default), run a mixed query burst,
    and write the full workload report as JSON: per-fingerprint operator
    breakdowns, per-index key-usage, and exact key-distribution
    histograms — the shard-key planning input.  See ``docs/profiling.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.core import CollationOptions
from repro.core.builder import AuthorIndexBuilder
from repro.core.entry import PublicationRecord
from repro.core.render import available_formats
from repro.corpus import (
    PUBLICATION_SCHEMA,
    load_reference_records,
    parse_index_text,
    populate_store,
)
from repro.errors import (
    BudgetExceeded,
    QueryInterrupted,
    ReproError,
)
from repro.query import QueryEngine
from repro.storage import IndexKind, RecordStore

#: Exit code for a query stopped by its deadline or a cancellation.
EXIT_QUERY_INTERRUPTED = 3
#: Exit code for a query stopped by its row/byte budget.
EXIT_BUDGET_EXCEEDED = 4


def _load_corpus(path: str | None) -> list[PublicationRecord]:
    """Records from a JSON corpus file, or the bundled reference corpus."""
    if path is None:
        return load_reference_records()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    items = raw["records"] if isinstance(raw, dict) else raw
    return [
        PublicationRecord.create(
            item.get("id", i + 1), item["title"], item["authors"], item["citation"]
        )
        for i, item in enumerate(items)
    ]


def _records_via_shards(records: list[PublicationRecord], shards: int) -> list[PublicationRecord]:
    """Round-trip ``records`` through an N-shard store and a sorted query.

    The records come back in primary-key order, byte-identical to the
    input corpus order (primary keys are unique), so the built index is
    the same; the point is running the real partitioning and shard reads
    when ``--shards`` is requested.
    """
    from repro.storage import ShardedStore

    with ShardedStore(PUBLICATION_SCHEMA, shards=shards) as store:
        populate_store(store, records)
        rows = QueryEngine(store).execute("* ORDER BY id")
    return [PublicationRecord.from_store_dict(row) for row in rows]


def _cmd_build(args: argparse.Namespace) -> int:
    records = _load_corpus(args.corpus)
    if args.shards:
        records = _records_via_shards(records, args.shards)
    options = CollationOptions(mc_as_mac=args.mc_as_mac)
    builder = AuthorIndexBuilder(options=options, resolve_variants=args.resolve)
    index = builder.add_records(records).build()
    render_options: dict[str, object] = {}
    if args.format == "text":
        render_options["paginated"] = not args.no_pages
    output = index.render(args.format, **render_options)
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
        print(f"wrote {len(output)} characters to {args.output}", file=sys.stderr)
    else:
        print(output, end="")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    report = parse_index_text(text)
    corpus = {
        "records": [
            {
                "id": r.record_id,
                "title": r.title,
                "authors": [
                    a.inverted() + ("*" if r.is_student_work else "")
                    for a in r.authors
                ],
                "citation": r.citation.columnar(),
            }
            for r in report.records
        ]
    }
    output = json.dumps(corpus, indent=2, ensure_ascii=False)
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
    else:
        print(output)
    if args.store:
        from repro.storage import ShardedStore

        with ShardedStore(
            PUBLICATION_SCHEMA, args.store, shards=args.shards or 1, sync=True
        ) as store:
            store.put_many(r.to_store_dict() for r in report.records)
            store.checkpoint()
            print(
                f"stored {len(store)} records durably in "
                f"{store.shard_count} shard(s) at {args.store}",
                file=sys.stderr,
            )
    print(
        f"parsed {report.record_count} records "
        f"({report.furniture_lines} furniture lines dropped, "
        f"{len(report.warnings)} warnings)",
        file=sys.stderr,
    )
    if args.show_warnings:
        for warning in report.warnings:
            print(f"  warning: {warning}", file=sys.stderr)
    return 0


def _print_rows(rows: list[dict]) -> None:
    for row in rows:
        authors = "; ".join(row["authors"])
        print(f"{authors} | {row['title']} | {row['volume']}:{row['page']} ({row['year']})")
    print(f"({len(rows)} rows)", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.storage import ShardedStore

    records = _load_corpus(args.corpus)
    store: RecordStore | ShardedStore
    if args.shards:
        store = ShardedStore(PUBLICATION_SCHEMA, shards=args.shards)
    else:
        store = RecordStore(PUBLICATION_SCHEMA)
    with store:
        populate_store(store, records)
        store.create_index("surnames", IndexKind.HASH)
        store.create_index("year", IndexKind.BTREE)
        store.create_index("volume", IndexKind.BTREE)
        slow_log = None
        if args.slow_log or args.slow_ms is not None:
            from repro.obs.slowlog import DEFAULT_THRESHOLD_S, SlowQueryLog

            threshold = (
                args.slow_ms / 1000.0 if args.slow_ms is not None else DEFAULT_THRESHOLD_S
            )
            slow_log = SlowQueryLog(args.slow_log, threshold_s=threshold)
        engine = QueryEngine(store, slow_log=slow_log)
        if args.explain:
            print(engine.explain(args.query))
            return 0
        bounds: dict = {}
        if args.timeout_ms is not None:
            bounds["timeout_s"] = args.timeout_ms / 1000.0
        if args.max_rows is not None:
            bounds["max_rows"] = args.max_rows
        if args.partial_ok:
            bounds["partial"] = True
        # A slow-log entry carries the operator tree of the run it logs,
        # so a logged query runs profiled.
        profiled = args.profile or slow_log is not None
        result = engine.execute(args.query, profile=profiled, **bounds)
        if args.profile:
            if args.json:
                print(json.dumps(
                    {"rows": result.rows, "profile": result.to_dict()},
                    indent=2, ensure_ascii=False,
                ))
            else:
                print(result.render())
                print()
                _print_rows(result.rows)
            return 0
        _print_rows(result.rows if profiled else result)
        if getattr(result, "partial", False):
            failed = ", ".join(str(s) for s in result.shards_failed)
            print(
                f"warning: partial result — shard(s) {failed} "
                "failed or quarantined and were skipped",
                file=sys.stderr,
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.metrics:
        return _cmd_stats_metrics(args)
    records = _load_corpus(args.corpus)
    index = AuthorIndexBuilder().add_records(records).build()
    print(index.statistics().summary())
    return 0


def _run_standard_workload(corpus: str | None) -> dict:
    """Exercise every pipeline over the corpus; returns the registry snapshot.

    The snapshot therefore always contains the four metric families
    (``storage.*``, ``build.*``, ``query.*``, ``search.*``) for one
    complete, reproducible workload — the baseline ``repro stats
    --metrics`` runs are diffable across revisions via the jsonl format.
    """
    from repro import obs
    from repro.search.engine import TitleSearchEngine

    registry = obs.get_default_registry()
    registry.reset()
    records = _load_corpus(corpus)
    # A disk-backed store so the WAL append/flush metrics move too.
    with tempfile.TemporaryDirectory(prefix="repro-stats-") as tmp:
        with RecordStore(PUBLICATION_SCHEMA, directory=tmp) as store:
            populate_store(store, records)
            store.create_index("surnames", IndexKind.HASH)
            store.create_index("year", IndexKind.BTREE)
            store.create_index("volume", IndexKind.BTREE)
            AuthorIndexBuilder().add_records(records).build()
            engine = QueryEngine(store)
            # Run the same query twice: the first planning is a
            # query.planner.cache.miss, the repeat a cache.hit, so the
            # snapshot always shows the plan cache moving.
            engine.execute("year >= 1900 ORDER BY year LIMIT 25")
            engine.execute("year >= 1900 ORDER BY year LIMIT 25")
            TitleSearchEngine(records).search("law")
            # Checkpoint last so the storage.checkpoint.* family (and a
            # WAL rotation) always moves in the baseline snapshot.
            store.checkpoint()
        # Snapshot after the store closes: the WAL flushes its locally
        # batched append counters to the registry on close.
        return registry.snapshot()


def _cmd_stats_metrics(args: argparse.Namespace) -> int:
    """``stats --metrics``: run the standard workload, dump the registry."""
    from repro import obs

    if args.since is not None:
        return _cmd_stats_rates(args)
    snapshot = _run_standard_workload(args.corpus)
    if args.metrics_format == "text":
        print(obs.export.render_text(snapshot))
    elif args.metrics_format == "jsonl":
        print(obs.export.render_jsonl(snapshot))
    elif args.metrics_format == "prom":
        # Same renderer the telemetry daemon's /metrics endpoint uses.
        print(obs.render_prometheus(snapshot), end="")
    else:
        print(obs.export.render_json(snapshot))
    return 0


def _cmd_stats_rates(args: argparse.Namespace) -> int:
    """``stats --metrics --since N``: windowed counter rates.

    With ``--timeseries FILE``, rates come from the on-disk sample ring
    a telemetry daemon (or earlier run) recorded there.  Without it, the
    standard workload runs bracketed by two samples, so the rates
    describe that workload.
    """
    from repro.obs.timeseries import TimeSeriesLog

    if args.timeseries:
        ts = TimeSeriesLog(args.timeseries)
    else:
        from repro import obs

        # The workload resets the registry before running; reset before
        # the first sample too, so the pair brackets exactly one
        # workload even when an earlier command already ran one
        # in-process.
        obs.get_default_registry().reset()
        ts = TimeSeriesLog()
        ts.sample()
        _run_standard_workload(args.corpus)
        ts.sample()
    rates = ts.rates(args.since)
    print(json.dumps(rates, indent=2, sort_keys=True))
    return 0


def _cmd_formats(_args: argparse.Namespace) -> int:
    for name in available_formats():
        print(name)
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    from repro.core.kwic import build_kwic_index
    from repro.core.titleindex import build_title_index
    from repro.core.toc import build_toc

    records = _load_corpus(args.corpus)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    author_index = AuthorIndexBuilder().add_records(records).build()
    (out_dir / "author_index.txt").write_text(
        author_index.render("text"), encoding="utf-8"
    )
    (out_dir / "title_index.txt").write_text(
        build_title_index(records).render_text(), encoding="utf-8"
    )
    (out_dir / "subject_index.txt").write_text(
        build_kwic_index(records, min_group_size=2).render_text(), encoding="utf-8"
    )
    (out_dir / "contents.txt").write_text(
        build_toc(records).render_text(), encoding="utf-8"
    )
    print(f"wrote 4 index files to {out_dir}/", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import corpus_report

    records = _load_corpus(args.corpus)
    stopwords = set(args.suppress.split(",")) if args.suppress else set()
    output = corpus_report(
        records, title=args.title, keyword_stopwords=stopwords
    )
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
        print(f"wrote report to {args.output}", file=sys.stderr)
    else:
        print(output, end="")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search.engine import TitleSearchEngine

    records = _load_corpus(args.corpus)
    engine = TitleSearchEngine(records)
    hits = engine.search(args.query, k=args.top)
    by_id = {r.record_id: r for r in records}
    for hit in hits:
        record = by_id[hit.record_id]
        authors = "; ".join(a.inverted() for a in record.authors)
        print(f"{hit.score:6.2f}  {record.title}  — {authors}  "
              f"[{record.citation.columnar()}]")
    print(f"({len(hits)} hits)", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.lint import lint_index

    records = _load_corpus(args.corpus)
    index = AuthorIndexBuilder().add_records(records).build()
    issues = lint_index(index)
    for issue in issues:
        print(issue)
    print(f"({len(issues)} issues)", file=sys.stderr)
    return 1 if issues and args.strict else 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.storage.fsck import fsck, fsck_sharded, is_sharded_root

    if is_sharded_root(args.directory):
        report = fsck_sharded(args.directory, repair=args.repair)
        if args.shards is not None and len(report.shard_reports) not in (0, args.shards):
            print(
                f"error: expected {args.shards} shards, store has "
                f"{len(report.shard_reports)}",
                file=sys.stderr,
            )
            return 2
    else:
        if args.shards is not None:
            print(
                "error: --shards given but the directory is not a sharded "
                "store root (no shards.json)",
                file=sys.stderr,
            )
            return 2
        report = fsck(args.directory, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    else:
        print(report.render())
    return report.exit_code()


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.storage import ShardedStore, is_sharded_root

    bar = None
    if args.progress:
        from repro.obs.progress import ProgressBar

        bar = ProgressBar()
    if is_sharded_root(args.directory):
        # shards= is optional (the manifest knows); when given it is
        # cross-checked and a mismatch aborts before any shard opens.
        with ShardedStore(
            PUBLICATION_SCHEMA, args.directory, shards=args.shards
        ) as store:
            before = store.wal_size_bytes
            store.checkpoint(progress=bar)
            print(
                f"checkpointed {len(store)} records across "
                f"{store.shard_count} shards; "
                f"WAL {before} -> {store.wal_size_bytes} bytes",
                file=sys.stderr,
            )
        return 0
    if args.shards is not None:
        print(
            "error: --shards given but the directory is not a sharded "
            "store root (no shards.json)",
            file=sys.stderr,
        )
        return 2
    with RecordStore(PUBLICATION_SCHEMA, directory=args.directory) as store:
        before = store.wal_size_bytes
        store.checkpoint(progress=bar)
        print(
            f"checkpointed {len(store)} records; "
            f"WAL {before} -> {store.wal_size_bytes} bytes",
            file=sys.stderr,
        )
    return 0


def _open_sharded_root(directory: str) -> "object | None":
    """Open the sharded store at ``directory``, or print why not.

    Shared by the shard fault-tolerance commands (scrub / quarantine /
    readmit); returns ``None`` after printing an error (callers exit 2).
    """
    from repro.errors import StorageError
    from repro.storage import ShardedStore, is_sharded_root

    if not is_sharded_root(directory):
        print(
            f"error: {directory} is not a sharded store root (no shards.json)",
            file=sys.stderr,
        )
        return None
    try:
        return ShardedStore(PUBLICATION_SCHEMA, directory)
    except StorageError as exc:
        print(
            f"error: cannot open store: {exc}\n"
            f"hint: a shard too damaged to open needs offline repair — "
            f"try `repro fsck --repair {directory}` first",
            file=sys.stderr,
        )
        return None


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.storage import Scrubber

    store = _open_sharded_root(args.directory)
    if store is None:
        return 2
    bytes_per_s = args.rate_mb_s * 1024 * 1024 if args.rate_mb_s else None
    with store:
        scrubber = Scrubber(store, bytes_per_s=bytes_per_s)
        report = scrubber.run_once(repair=args.repair)
        rows = store.health.rows()
    if args.json:
        print(json.dumps(
            {"scrub": report.to_dict(), "health": rows},
            indent=2, ensure_ascii=False,
        ))
    else:
        print(report.render())
        for row in rows:
            if row["state"] != "healthy":
                print(f"shard {row['shard']}: {row['state']} ({row['reason']})")
    return 0 if all(r.clean or r.repaired for r in report.shards) else 1


def _cmd_quarantine(args: argparse.Namespace) -> int:
    store = _open_sharded_root(args.directory)
    if store is None:
        return 2
    with store:
        store.quarantine(args.shard, args.reason)
        state = store.health.state(args.shard)
    print(f"shard {args.shard}: {state}", file=sys.stderr)
    return 0


def _cmd_readmit(args: argparse.Namespace) -> int:
    store = _open_sharded_root(args.directory)
    if store is None:
        return 2
    with store:
        store.readmit(args.shard, reopen=not args.no_reopen)
        state = store.health.state(args.shard)
        records = len(store.shards[args.shard])
    print(
        f"shard {args.shard}: {state} ({records} records)", file=sys.stderr
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.export import dumps_csv, format_bibtex

    records = _load_corpus(args.corpus)
    if args.to == "bibtex":
        output = format_bibtex(records, journal=args.journal)
    else:
        output = dumps_csv(records)
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
        print(f"wrote {len(records)} records to {args.output}", file=sys.stderr)
    else:
        print(output, end="")
    return 0


def _cmd_serve_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.server import TelemetryServer
    from repro.obs.slo import SLOEngine, load_rules
    from repro.obs.timeseries import TimeSeriesLog, TimeSeriesRecorder

    if args.store is not None and args.seed_corpus:
        # Seed the store directory with the corpus (for smoke tests and
        # demos) so /healthz has a real snapshot + WAL chain to walk.
        records = _load_corpus(args.corpus)
        if args.shards:
            from repro.storage import ShardedStore

            with ShardedStore(
                PUBLICATION_SCHEMA, args.store, shards=args.shards
            ) as store:
                if len(store) == 0:
                    populate_store(store, records)
                store.checkpoint()
        else:
            with RecordStore(PUBLICATION_SCHEMA, directory=args.store) as store:
                if len(store) == 0:
                    populate_store(store, records)
                store.checkpoint()
    # The SLO engine needs sampled history: use the on-disk ring when
    # --timeseries names one, an in-memory ring otherwise, so /alertz
    # and the /statusz alerts section work out of the box.
    rules = load_rules(args.slo_rules) if args.slo_rules else None
    ts_log = TimeSeriesLog(args.timeseries) if args.timeseries else TimeSeriesLog()
    recorder = TimeSeriesRecorder(ts_log, interval_s=args.interval).start()
    # Optional background scrubber: needs the sharded store held open
    # for the daemon's lifetime so its verdict can back /healthz.
    scrub_store = scrubber = None
    if args.scrub_interval:
        from repro.storage import ShardedStore, Scrubber, is_sharded_root

        if args.store is None or not is_sharded_root(args.store):
            print(
                "error: --scrub-interval needs a sharded --store "
                "(shards.json root)",
                file=sys.stderr,
            )
            recorder.stop()
            return 2
        scrub_store = ShardedStore(PUBLICATION_SCHEMA, args.store)
        scrubber = Scrubber(scrub_store)
        scrubber.start(args.scrub_interval, repair=args.scrub_repair)
    server = TelemetryServer(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        slo_engine=SLOEngine(ts_log, rules),
        scrubber=scrubber,
        health_ttl_s=args.health_ttl,
    )
    print(f"telemetry: listening on {server.url}", file=sys.stderr)
    print(
        "endpoints: /statusz /metrics /healthz /alertz /progressz /varz "
        "/tracez /logz /topz /profilez",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        if scrubber is not None:
            scrubber.stop()
        if scrub_store is not None:
            scrub_store.close()
        recorder.stop()
    return 0


def _cmd_serve_query(args: argparse.Namespace) -> int:
    from repro.obs.server import TelemetryServer
    from repro.resilience import AdmissionController, CircuitBreaker, QueryService

    from repro.storage import is_sharded_root

    records = _load_corpus(args.corpus)
    if args.store is not None and is_sharded_root(args.store):
        # A sharded root serves health-gated strict reads, and
        # `partial_ok=1` degrades to the healthy shards with an HTTP 206.
        store = _open_sharded_root(args.store)
        if store is None:
            return 2
    else:
        store = RecordStore(PUBLICATION_SCHEMA, directory=args.store)
        if len(store) == 0:
            populate_store(store, records)
            if args.store is not None:
                store.checkpoint()
    engine = QueryEngine(store)
    try:
        store.create_index("surnames", IndexKind.HASH)
        store.create_index("year", IndexKind.BTREE)
        store.create_index("volume", IndexKind.BTREE)
        admission = AdmissionController(
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
            queue_timeout_s=args.queue_timeout_ms / 1000.0,
            breaker=CircuitBreaker(),
        )
        service = QueryService(
            engine,
            admission=admission,
            default_timeout_s=args.default_timeout_ms / 1000.0,
            default_max_rows=args.default_max_rows,
        )
        server = TelemetryServer(
            host=args.host,
            port=args.port,
            store_dir=args.store,
            query_service=service,
            health_ttl_s=args.health_ttl,
        )
        print(f"query service: listening on {server.url}", file=sys.stderr)
        print(
            "endpoints: /query /metrics /healthz /varz /tracez /logz "
            "/topz /profilez",
            file=sys.stderr,
        )
        server.serve_forever()
    finally:
        store.close()
    return 0


def _render_progress_snapshot(body: dict) -> str:
    """``/progressz`` payload as aligned terminal lines."""
    lines = []
    for op in body.get("active", []):
        total = f"/{op['total']}" if op["total"] is not None else ""
        pct = f" ({op['percent']:.0f}%)" if op["percent"] is not None else ""
        eta = f"  ETA {op['eta_s']:.0f}s" if op["eta_s"] is not None else ""
        lines.append(
            f"ACTIVE  {op['name']:<28} {op['done']}{total}{pct}  "
            f"{op['rate_per_s']:,.0f}/s{eta}"
        )
    for op in body.get("recent", []):
        status = "ok" if op["ok"] else "FAILED"
        lines.append(
            f"RECENT  {op['name']:<28} {op['done']} in {op['elapsed_s']}s  {status}"
        )
    if not lines:
        lines.append("(no operations in flight or recently finished)")
    return "\n".join(lines)


def _cmd_progress(args: argparse.Namespace) -> int:
    import time as _time

    base = args.url.rstrip("/")
    shown = 0
    while True:
        body = _http_get_json(f"{base}/progressz")
        if args.json:
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            print(f"-- {base}/progressz --")
            print(_render_progress_snapshot(body))
        shown += 1
        if args.interval is None or (
            args.iterations is not None and shown >= args.iterations
        ):
            return 0
        _time.sleep(args.interval)


def _render_alerts(body: dict) -> str:
    """``/alertz`` payload (or a local evaluation) as terminal lines."""
    if body.get("enabled") is False:
        return f"alerting disabled: {body.get('reason', 'no SLO engine')}"
    lines = [f"{'RULE':<24} {'SEVERITY':<8} {'STATE':<8} REASON"]
    for state in body.get("rules", []):
        verdict = "FIRING" if state["firing"] else (
            "no-data" if state.get("no_data") else "ok"
        )
        lines.append(
            f"{state['name']:<24} {state['severity']:<8} {verdict:<8} "
            f"{state['reason']}"
        )
    firing = body.get("firing", [])
    lines.append(
        f"({len(firing)} firing / {len(body.get('rules', []))} rules)"
    )
    return "\n".join(lines)


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Evaluate SLO rules; exit 0 when quiet, 1 when any rule is firing."""
    try:
        if args.url:
            if args.rules or args.timeseries:
                print(
                    "error: --rules/--timeseries evaluate locally and "
                    "cannot be combined with --url (the daemon owns its "
                    "rules)",
                    file=sys.stderr,
                )
                return 2
            body = _http_get_json(f"{args.url.rstrip('/')}/alertz")
        else:
            if not args.timeseries:
                print(
                    "error: need --timeseries FILE (a sample ring written "
                    "by serve-telemetry) or --url DAEMON",
                    file=sys.stderr,
                )
                return 2
            from repro.obs.slo import SLOEngine, load_rules
            from repro.obs.timeseries import TimeSeriesLog

            rules = load_rules(args.rules) if args.rules else None
            body = SLOEngine(TimeSeriesLog(args.timeseries), rules).evaluate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(_render_alerts(body))
    return 1 if body.get("firing") else 0


def _cmd_logs(args: argparse.Namespace) -> int:
    from repro.obs import logging as obs_logging

    if args.file:
        records = obs_logging.read_jsonl(args.file)
        if args.level:
            minimum = obs_logging.LEVELS[args.level]
            records = [
                r for r in records
                if obs_logging.LEVELS.get(r.get("level", "info"), 20) >= minimum
            ]
        if args.event:
            prefix = args.event.rstrip(".")
            records = [
                r for r in records
                if r.get("event") == prefix
                or str(r.get("event", "")).startswith(prefix + ".")
            ]
        if args.trace:
            records = [r for r in records if r.get("trace_id") == args.trace]
        if args.tail is not None:
            records = records[-args.tail:]
    else:
        # No file: run the standard workload at debug level and tail the
        # in-process ring — a self-contained demo of the event stream.
        logger = obs_logging.get_default_logger()
        previous = logger.level
        logger.set_level("debug")
        try:
            _run_standard_workload(args.corpus)
        finally:
            logger.set_level(previous)
        records = obs_logging.tail(
            args.tail, level=args.level, event=args.event, trace_id=args.trace
        )
    for record in records:
        if args.json:
            print(json.dumps(record, ensure_ascii=False, sort_keys=True))
        else:
            print(obs_logging.format_event(record))
    print(f"({len(records)} events)", file=sys.stderr)
    return 0


def _http_get_json(url: str, *, timeout_s: float = 10.0) -> dict:
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as resp:  # noqa: S310 - operator-supplied URL
        return json.loads(resp.read().decode("utf-8"))


def _seeded_engine(corpus: str | None) -> tuple[QueryEngine, RecordStore]:
    """An in-memory store over ``corpus`` with the standard three indexes."""
    records = _load_corpus(corpus)
    store = RecordStore(PUBLICATION_SCHEMA)
    populate_store(store, records)
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("volume", IndexKind.BTREE)
    return QueryEngine(store), store


def _run_mixed_burst(engine: QueryEngine, store: RecordStore) -> dict:
    """A mixed bag of query shapes against ``store``: index lookups,
    ranges, sorts, aggregates, and one budget-tripped scan — enough
    distinct fingerprints (with operator breakdowns from the profiled
    runs) to make the workload table worth reading.  Literals are
    sampled from the store so every shape actually matches rows.
    """
    surnames: list[str] = []
    years: list[int] = []
    volumes: list[int] = []
    for record in store.scan():
        surnames.extend(record.get("surnames") or [])
        if record.get("year") is not None:
            years.append(record["year"])
        if record.get("volume") is not None:
            volumes.append(record["volume"])
        if len(years) >= 64:
            break
    surnames = surnames or ["?"]
    years = sorted(years) or [1980]
    volumes = sorted(volumes) or [1]
    mid_year = years[len(years) // 2]
    executed = profiled = interrupted = 0
    for i in range(8):
        surname = surnames[(i * 7) % len(surnames)]
        year = years[(i * 5) % len(years)]
        volume = volumes[(i * 3) % len(volumes)]
        shapes: list[tuple[str, bool]] = [
            (f'surnames:"{surname}"', False),
            (f"year >= {year} ORDER BY year LIMIT 25", False),
            (f"year >= {min(year, mid_year)} AND year <= {max(year, mid_year)}", True),
            (f"volume = {volume}", False),
            (f"year >= {years[0]} GROUP BY year", i == 0),
        ]
        for text, profile in shapes:
            engine.execute(text, profile=profile)
            executed += 1
            profiled += int(profile)
    try:
        engine.execute(f"year >= {years[0]} ORDER BY title", max_rows=10)
    except QueryInterrupted:
        interrupted += 1
    executed += 1
    return {"queries": executed, "profiled": profiled, "interrupted": interrupted}


def _render_top_rows(rows: list[dict], *, evicted_calls: int = 0) -> str:
    """The fingerprint table as an aligned terminal table."""
    header = (
        f"{'FINGERPRINT':<13} {'CALLS':>6} {'ROWS':>8} {'EXAM':>8} "
        f"{'CPU_MS':>9} {'WALL_MS':>9} {'BYTES':>10} {'HIT%':>5} "
        f"{'INT':>4}  TEMPLATE"
    )
    lines = [header]
    for row in rows:
        calls = row["calls"] or 1
        interruptions = (
            row["deadline_exceeded"] + row["cancelled"]
            + row["budget_exceeded"] + row["shed"]
        )
        template = row["template"]
        if len(template) > 48:
            template = template[:45] + "..."
        lines.append(
            f"{row['fingerprint']:<13} {row['calls']:>6} "
            f"{row['rows_returned']:>8} {row['rows_examined']:>8} "
            f"{row['cpu_ns'] / 1e6:>9.2f} {row['wall_ns'] / 1e6:>9.2f} "
            f"{row['bytes_scanned']:>10} "
            f"{100.0 * row['plan_cache_hits'] / calls:>5.0f} "
            f"{interruptions:>4}  {template}"
        )
    if evicted_calls:
        lines.append(f"(+ {evicted_calls} calls under evicted fingerprints)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    if args.url:
        base = args.url.rstrip("/")
        iterations = args.iterations
        if iterations is None and args.interval is None:
            iterations = 1  # one shot unless a live view was asked for
        interval = args.interval if args.interval is not None else 2.0
        shown = 0
        while True:
            body = _http_get_json(f"{base}/topz?n={args.n}&sort={args.sort}")
            if args.json:
                print(json.dumps(body, indent=2, sort_keys=True))
            else:
                print(
                    f"-- {base}/topz  sort={body['sort']}  "
                    f"tracked={body['tracked']}/{body['maxsize']} --"
                )
                print(_render_top_rows(
                    body["fingerprints"], evicted_calls=body["evicted_calls"]
                ))
            shown += 1
            if iterations is not None and shown >= iterations:
                return 0
            _time.sleep(interval)
    # No daemon: run the demo burst in-process and show its table once.
    from repro.obs import workload as obs_workload

    engine, store = _seeded_engine(args.corpus)
    burst = _run_mixed_burst(engine, store)
    table = obs_workload.get_default_table()
    rows = table.top(args.n, sort_by=args.sort)
    if args.json:
        print(json.dumps(
            {"burst": burst, "fingerprints": rows}, indent=2, sort_keys=True
        ))
    else:
        print(
            f"-- in-process burst: {burst['queries']} queries "
            f"({burst['profiled']} profiled) --", file=sys.stderr,
        )
        print(_render_top_rows(rows, evicted_calls=table.evicted_calls))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time as _time

    if args.url:
        base = args.url.rstrip("/")
        _http_get_json(f"{base}/profilez?action=start&hz={args.hz}")
        try:
            _time.sleep(args.seconds)
        finally:
            status = _http_get_json(f"{base}/profilez?action=stop")
        from urllib.request import urlopen

        with urlopen(f"{base}/profilez?format=collapsed", timeout=10.0) as resp:
            folded = resp.read().decode("utf-8")
    else:
        from repro.obs.profiling import SamplingProfiler

        engine, store = _seeded_engine(args.corpus)
        profiler = SamplingProfiler(hz=args.hz)
        profiler.start()
        try:
            deadline = _time.perf_counter() + args.seconds
            while _time.perf_counter() < deadline:
                _run_mixed_burst(engine, store)
        finally:
            status = profiler.stop()
        folded = profiler.render_collapsed()
    if args.out:
        Path(args.out).write_text(folded, encoding="utf-8")
        print(f"wrote {len(folded.splitlines())} stacks to {args.out}", file=sys.stderr)
    else:
        print(folded, end="")
    print(
        f"profiler: {status['samples']} samples over "
        f"{status['active_seconds']}s at {status['hz']} Hz "
        f"({status['distinct_stacks']} distinct stacks)",
        file=sys.stderr,
    )
    return 0


def _key_distribution(store: RecordStore, field: str, *, top: int = 20) -> dict:
    """Exact per-key row counts for ``field`` from one offline scan.

    The online :class:`~repro.obs.workload.KeyUsageTable` sees only the
    keys the workload probed; this sees the whole table — together they
    answer "is the hot key hot because of data skew or access skew?".
    """
    counts: dict = {}
    for record in store.scan():
        value = record.get(field)
        if value is None:
            continue
        for v in value if isinstance(value, list) else [value]:
            counts[v] = counts.get(v, 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
    return {
        "field": field,
        "distinct_keys": len(counts),
        "rows": total,
        "top_key_share": round(ranked[0][1] / total, 4) if total else 0.0,
        "top_keys": [{"key": str(k), "rows": n} for k, n in ranked[:top]],
    }


def _cmd_workload_report(args: argparse.Namespace) -> int:
    from repro.obs import workload as obs_workload

    obs_workload.reset()
    if args.corpus:
        engine, store = _seeded_engine(args.corpus)
        source = args.corpus
    else:
        from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig

        records = list(
            SyntheticCorpus(
                SyntheticCorpusConfig(size=args.synthetic, seed=args.seed)
            ).records()
        )
        store = RecordStore(PUBLICATION_SCHEMA)
        populate_store(store, records)
        store.create_index("surnames", IndexKind.HASH)
        store.create_index("year", IndexKind.BTREE)
        store.create_index("volume", IndexKind.BTREE)
        engine = QueryEngine(store)
        source = f"synthetic(size={args.synthetic}, seed={args.seed})"
    burst = _run_mixed_burst(engine, store)
    report = {
        "corpus": {"source": source, "records": len(store)},
        "burst": burst,
        "workload": obs_workload.get_default_table().snapshot(),
        "key_usage": obs_workload.get_default_key_usage().snapshot(),
        "key_distribution": {
            field: _key_distribution(store, field)
            for field in ("surnames", "year", "volume")
        },
    }
    output = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote workload report to {args.out}", file=sys.stderr)
    else:
        print(output)
    print(
        f"{report['workload']['tracked']} fingerprints over "
        f"{burst['queries']} queries ({len(store)} records)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-index",
        description="Build, query, and render author indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and render an author index")
    p_build.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_build.add_argument("--format", default="text", choices=available_formats())
    p_build.add_argument("--output", help="write to file instead of stdout")
    p_build.add_argument("--no-pages", action="store_true", help="continuous text output")
    p_build.add_argument("--resolve", action="store_true", help="entity-resolve name variants")
    p_build.add_argument("--mc-as-mac", action="store_true", help="file Mc as Mac")
    p_build.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="round-trip the corpus through an N-shard store and a "
             "sorted query before building (result is identical; "
             "exercises partitioning and the shard reads)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_ingest = sub.add_parser("ingest", help="parse raw OCR'd index text to JSON")
    p_ingest.add_argument("input", help="raw text file")
    p_ingest.add_argument("--output", help="JSON output path (default: stdout)")
    p_ingest.add_argument("--show-warnings", action="store_true")
    p_ingest.add_argument(
        "--store",
        metavar="DIR",
        help="additionally commit the parsed records to a durable store "
             "at DIR (WAL + checkpoint)",
    )
    p_ingest.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="with --store: partition the store into N shards and commit "
             "them in parallel (default 1)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_query = sub.add_parser("query", help="query a corpus")
    p_query.add_argument("query", help='e.g. \'surnames:"McAteer" AND year >= 1980\'')
    p_query.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_query.add_argument("--explain", action="store_true", help="print the plan only")
    p_query.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="load the corpus into an N-shard store and query every "
             "shard",
    )
    p_query.add_argument(
        "--partial-ok",
        action="store_true",
        help="with --shards: tolerate failing/quarantined shards — return "
             "rows from the healthy ones and note the skipped shards on "
             "stderr instead of failing the whole query",
    )
    p_query.add_argument(
        "--profile",
        action="store_true",
        help="EXPLAIN ANALYZE: run the query and print the per-operator "
             "tree with timings and rows examined/returned",
    )
    p_query.add_argument(
        "--json",
        action="store_true",
        help="with --profile: emit rows and profile as one JSON document",
    )
    p_query.add_argument(
        "--slow-log",
        metavar="FILE",
        help="record queries over the slow threshold to this JSONL file",
    )
    p_query.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="slow-query threshold in milliseconds (default 100; implies "
             "slow-query capture even without --slow-log)",
    )
    p_query.add_argument(
        "--timeout-ms",
        type=float,
        metavar="MS",
        help=f"wall-clock deadline for the query; exceeding it exits "
             f"{EXIT_QUERY_INTERRUPTED} with a one-line JSON error",
    )
    p_query.add_argument(
        "--max-rows",
        type=int,
        metavar="N",
        help=f"row-examination budget for the query; exceeding it exits "
             f"{EXIT_BUDGET_EXCEEDED} with a one-line JSON error",
    )
    p_query.set_defaults(func=_cmd_query)

    p_stats = sub.add_parser("stats", help="print index statistics")
    p_stats.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_stats.add_argument(
        "--metrics",
        action="store_true",
        help="run the storage/build/query/search pipelines over the corpus "
             "and dump the observability metrics snapshot instead",
    )
    p_stats.add_argument(
        "--metrics-format",
        "--format",
        dest="metrics_format",
        choices=("json", "jsonl", "text", "prom"),
        default="json",
        help="snapshot format for --metrics (default: json); prom = "
             "Prometheus text exposition, identical to the /metrics endpoint",
    )
    p_stats.add_argument(
        "--since",
        type=float,
        metavar="SECONDS",
        help="with --metrics: print windowed counter rates instead of "
             "lifetime totals (see --timeseries)",
    )
    p_stats.add_argument(
        "--timeseries",
        metavar="FILE",
        help="with --since: read samples from this JSONL ring (as written "
             "by serve-telemetry --timeseries) instead of sampling around "
             "a fresh workload run",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_formats = sub.add_parser("formats", help="list render formats")
    p_formats.set_defaults(func=_cmd_formats)

    p_bundle = sub.add_parser(
        "bundle", help="write the full front-matter bundle (4 indexes)"
    )
    p_bundle.add_argument("output_dir", help="directory for the index files")
    p_bundle.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_bundle.set_defaults(func=_cmd_bundle)

    p_report = sub.add_parser("report", help="render the Markdown corpus report")
    p_report.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_report.add_argument("--title", default="Corpus report")
    p_report.add_argument("--suppress", help="comma-separated keyword stopwords")
    p_report.add_argument("--output", help="write to file instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_search = sub.add_parser("search", help="full-text title search (TF-IDF)")
    p_search.add_argument("query", help='words AND-ed; "quoted" = phrase')
    p_search.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_search.add_argument("--top", type=int, default=10, help="max hits (default 10)")
    p_search.set_defaults(func=_cmd_search)

    p_lint = sub.add_parser("lint", help="editorial checks on the built index")
    p_lint.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_lint.add_argument("--strict", action="store_true", help="exit 1 on any issue")
    p_lint.set_defaults(func=_cmd_lint)

    p_export = sub.add_parser("export", help="export records as BibTeX or CSV")
    p_export.add_argument("--to", choices=("bibtex", "csv"), default="bibtex")
    p_export.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_export.add_argument("--journal", default="", help="journal field for BibTeX")
    p_export.add_argument("--output", help="write to file instead of stdout")
    p_export.set_defaults(func=_cmd_export)

    p_fsck = sub.add_parser(
        "fsck", help="check/repair the integrity of a store directory"
    )
    p_fsck.add_argument("directory", help="store directory (WAL + snapshot)")
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="repair what is safely repairable (truncate torn tails, "
             "remove crash artifacts)",
    )
    p_fsck.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_fsck.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="expected shard count for a sharded store root "
             "(cross-checked against shards.json; detection is automatic)",
    )
    p_fsck.set_defaults(func=_cmd_fsck)

    p_checkpoint = sub.add_parser(
        "checkpoint",
        help="checkpoint a store directory (paged v3; upgrades a v2 "
             "snapshot) and truncate its covered WAL segments",
    )
    p_checkpoint.add_argument("directory", help="store directory (WAL + snapshot)")
    p_checkpoint.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="expected shard count for a sharded store root "
             "(cross-checked against shards.json; detection is automatic)",
    )
    p_checkpoint.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress bar on stderr while the checkpoint "
             "streams (also visible on a daemon's /progressz)",
    )
    p_checkpoint.set_defaults(func=_cmd_checkpoint)

    p_scrub = sub.add_parser(
        "scrub",
        help="CRC-verify every page and WAL segment of a sharded store; "
             "quarantine damaged shards (and with --repair, heal them)",
    )
    p_scrub.add_argument("directory", help="sharded store root (shards.json)")
    p_scrub.add_argument(
        "--repair",
        action="store_true",
        help="self-heal quarantined shards: fsck --repair, re-verify, "
             "reopen (WAL replay), re-admit",
    )
    p_scrub.add_argument(
        "--rate-mb-s",
        type=float,
        metavar="MB",
        help="I/O rate limit in MiB/s (default: unmetered for a one-shot "
             "run; daemons should meter)",
    )
    p_scrub.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_scrub.set_defaults(func=_cmd_scrub)

    p_quarantine = sub.add_parser(
        "quarantine",
        help="pull one shard out of partial-mode query fan-out (persisted)",
    )
    p_quarantine.add_argument("directory", help="sharded store root (shards.json)")
    p_quarantine.add_argument("shard", type=int, help="shard index")
    p_quarantine.add_argument(
        "--reason", default="operator", help="recorded reason (default: operator)"
    )
    p_quarantine.set_defaults(func=_cmd_quarantine)

    p_readmit = sub.add_parser(
        "readmit",
        help="return a quarantined shard to service (reopens it from disk "
             "first so repaired files are picked up)",
    )
    p_readmit.add_argument("directory", help="sharded store root (shards.json)")
    p_readmit.add_argument("shard", type=int, help="shard index")
    p_readmit.add_argument(
        "--no-reopen",
        action="store_true",
        help="skip the close/reopen (keep serving the in-memory state)",
    )
    p_readmit.set_defaults(func=_cmd_readmit)

    p_serve = sub.add_parser(
        "serve-telemetry",
        help="HTTP telemetry daemon: /statusz /metrics /healthz /alertz "
             "/progressz /varz /tracez /logz /topz /profilez",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=9179, help="TCP port (default: 9179; 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--store",
        metavar="DIR",
        help="store directory /healthz walks with fsck (liveness-only otherwise)",
    )
    p_serve.add_argument(
        "--seed-corpus",
        action="store_true",
        help="with --store: seed an empty store from the corpus and "
             "checkpoint it before serving (for smoke tests and demos)",
    )
    p_serve.add_argument("--corpus", help="JSON corpus path (default: bundled reference)")
    p_serve.add_argument(
        "--timeseries",
        metavar="FILE",
        help="record periodic metric samples to this JSONL ring while serving",
    )
    p_serve.add_argument(
        "--interval",
        type=float,
        default=10.0,
        help="metric sampling interval in seconds (default: 10)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="with --store --seed-corpus: seed an N-shard store root "
             "instead of a single store",
    )
    p_serve.add_argument(
        "--slo-rules",
        metavar="FILE",
        help="JSON SLO rule file for /alertz (default: the built-in "
             "query-availability / latency / checkpoint-staleness / "
             "wal-backlog / shard-quarantined rules)",
    )
    p_serve.add_argument(
        "--health-ttl",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds an inline-fsck /healthz verdict is cached "
             "(default: 5; 0 disables the cache)",
    )
    p_serve.add_argument(
        "--scrub-interval",
        type=float,
        metavar="SECONDS",
        help="with a sharded --store: run a background scrubber sweep "
             "every SECONDS (its verdict then backs /healthz)",
    )
    p_serve.add_argument(
        "--scrub-repair",
        action="store_true",
        help="with --scrub-interval: auto-repair shards the scrubber "
             "quarantines (quarantine → fsck --repair → verify "
             "→ readmit)",
    )
    p_serve.set_defaults(func=_cmd_serve_telemetry)

    p_serve_query = sub.add_parser(
        "serve-query",
        help="HTTP query service with admission control and deadlines "
             "(telemetry endpoints included)",
    )
    p_serve_query.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve_query.add_argument(
        "--port", type=int, default=9179, help="TCP port (default: 9179; 0 = ephemeral)"
    )
    p_serve_query.add_argument(
        "--corpus", help="JSON corpus path (default: bundled reference)"
    )
    p_serve_query.add_argument(
        "--store",
        metavar="DIR",
        help="serve from a durable store directory (seeded from the corpus "
             "when empty); /healthz then fsck-walks it.  Default: in-memory",
    )
    p_serve_query.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="admission slots: queries executing at once (default: 8)",
    )
    p_serve_query.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="admission queue depth before shedding with 429 (default: 16)",
    )
    p_serve_query.add_argument(
        "--queue-timeout-ms",
        type=float,
        default=500.0,
        help="max milliseconds a query may wait for a slot (default: 500)",
    )
    p_serve_query.add_argument(
        "--default-timeout-ms",
        type=float,
        default=5000.0,
        help="per-query deadline when the request names none (default: 5000)",
    )
    p_serve_query.add_argument(
        "--default-max-rows",
        type=int,
        default=100_000,
        help="per-query row budget when the request names none "
             "(default: 100000)",
    )
    p_serve_query.add_argument(
        "--health-ttl",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds an inline-fsck /healthz verdict is cached "
             "(default: 5; 0 disables the cache)",
    )
    p_serve_query.set_defaults(func=_cmd_serve_query)

    p_progress = sub.add_parser(
        "progress",
        help="in-flight and recently finished long operations from a "
             "running daemon's /progressz",
    )
    p_progress.add_argument(
        "--url",
        default="http://127.0.0.1:9179",
        help="base URL of a serve-telemetry/serve-query daemon "
             "(default: http://127.0.0.1:9179)",
    )
    p_progress.add_argument(
        "--interval",
        type=float,
        metavar="S",
        help="refresh every S seconds instead of one shot",
    )
    p_progress.add_argument(
        "--iterations",
        type=int,
        metavar="N",
        help="with --interval: stop after N refreshes (default: forever)",
    )
    p_progress.add_argument(
        "--json", action="store_true", help="emit the raw /progressz payload"
    )
    p_progress.set_defaults(func=_cmd_progress)

    p_alerts = sub.add_parser(
        "alerts",
        help="evaluate SLO burn-rate rules over sampled metric history; "
             "exit 1 when any rule is firing",
    )
    p_alerts.add_argument(
        "--rules",
        metavar="FILE",
        help="JSON SLO rule file (default: the built-in rules); see "
             "docs/operations.md for the format",
    )
    p_alerts.add_argument(
        "--timeseries",
        metavar="FILE",
        help="sample ring to evaluate (as written by serve-telemetry "
             "--timeseries)",
    )
    p_alerts.add_argument(
        "--url",
        metavar="URL",
        help="poll a running daemon's /alertz instead of evaluating locally",
    )
    p_alerts.add_argument(
        "--json", action="store_true", help="emit the evaluation as JSON"
    )
    p_alerts.set_defaults(func=_cmd_alerts)

    p_logs = sub.add_parser(
        "logs", help="tail structured log events (file or in-process demo run)"
    )
    p_logs.add_argument(
        "--file", metavar="FILE", help="read events from this JSONL file"
    )
    p_logs.add_argument(
        "--corpus",
        help="without --file: corpus for the demo workload (default: bundled)",
    )
    p_logs.add_argument(
        "--tail", type=int, metavar="N", help="show only the last N events"
    )
    p_logs.add_argument(
        "--level",
        choices=("debug", "info", "warn", "error"),
        help="minimum severity to show",
    )
    p_logs.add_argument("--event", help="event name (exact or dotted prefix)")
    p_logs.add_argument("--trace", metavar="ID", help="only events with this trace ID")
    p_logs.add_argument(
        "--json", action="store_true", help="emit raw JSON lines instead of text"
    )
    p_logs.set_defaults(func=_cmd_logs)

    p_top = sub.add_parser(
        "top",
        help="hottest query shapes: the workload fingerprint table "
             "(live from a daemon's /topz, or an in-process demo burst)",
    )
    p_top.add_argument(
        "--url",
        metavar="URL",
        help="base URL of a running serve-telemetry/serve-query daemon; "
             "without it a demo burst runs in-process",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        metavar="S",
        help="with --url: refresh every S seconds (live top; default: one shot)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        metavar="N",
        help="with --interval: stop after N refreshes (default: forever)",
    )
    p_top.add_argument(
        "-n", type=int, default=20, help="rows to show (default: 20)"
    )
    p_top.add_argument(
        "--sort",
        default="calls",
        choices=("calls", "cpu_ns", "wall_ns", "rows_returned",
                 "rows_examined", "bytes_scanned"),
        help="sort column (default: calls)",
    )
    p_top.add_argument(
        "--corpus", help="without --url: corpus for the demo burst (default: bundled)"
    )
    p_top.add_argument(
        "--json", action="store_true", help="emit the table as JSON"
    )
    p_top.set_defaults(func=_cmd_top)

    p_profile = sub.add_parser(
        "profile",
        help="sample wall-clock stacks for N seconds; write "
             "flamegraph.pl-ready collapsed output",
    )
    p_profile.add_argument(
        "--seconds", type=float, default=5.0, metavar="N",
        help="sampling duration (default: 5)",
    )
    p_profile.add_argument(
        "--out", metavar="FILE",
        help="write collapsed stacks here (default: stdout); feed to "
             "flamegraph.pl to render an SVG",
    )
    p_profile.add_argument(
        "--hz", type=int, default=97, help="sampling rate (default: 97)"
    )
    p_profile.add_argument(
        "--url",
        metavar="URL",
        help="profile a running daemon via its /profilez endpoint instead "
             "of an in-process query burst",
    )
    p_profile.add_argument(
        "--corpus", help="without --url: corpus for the burst (default: bundled)"
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_workload = sub.add_parser(
        "workload-report",
        help="run a mixed query burst over a seeded store and write the "
             "full workload report (fingerprints, operators, key skew) as JSON",
    )
    p_workload.add_argument(
        "--corpus",
        help="JSON corpus to seed from (default: a synthetic corpus)",
    )
    p_workload.add_argument(
        "--synthetic", type=int, default=10_000, metavar="N",
        help="size of the synthetic corpus when no --corpus is given "
             "(default: 10000)",
    )
    p_workload.add_argument(
        "--seed", type=int, default=1234, help="synthetic corpus seed (default: 1234)"
    )
    p_workload.add_argument(
        "--out", metavar="FILE", help="write the JSON report here (default: stdout)"
    )
    p_workload.set_defaults(func=_cmd_workload_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        # One structured line on stderr; distinct exit code for scripts.
        print(
            json.dumps(
                {
                    "error": "budget-exceeded",
                    "budget": exc.budget,
                    "limit": exc.limit,
                    "used": exc.used,
                    "rows_examined": exc.rows_examined,
                }
            ),
            file=sys.stderr,
        )
        return EXIT_BUDGET_EXCEEDED
    except QueryInterrupted as exc:
        print(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "detail": str(exc),
                    "rows_examined": exc.rows_examined,
                    "elapsed_s": round(exc.elapsed_s, 6),
                }
            ),
            file=sys.stderr,
        )
        return EXIT_QUERY_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
