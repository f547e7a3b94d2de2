"""Background scrubber: rate-limited integrity sweeps with auto-repair.

Silent corruption is only "silent" until a query trips over it.  The
:class:`Scrubber` walks every shard of a
:class:`~repro.storage.sharded.ShardedStore` on a schedule and runs
:func:`~repro.storage.fsck.fsck`'s check pass (no repair) on each shard
directory, beside the live store: the manifest through recovery's own
reader, every reachable page of the pages file it references, and every
WAL segment.  A shard is damaged exactly when fsck says so, with one
exception: the files a checkpoint in flight leaves behind until it
finishes (a snapshot temp file, a stray or temporary pages file, a
stale WAL segment) are ignored, since the live store may be
checkpointing while the scrub runs.  Every other finding that is not
informational counts as damage — a torn tail on the live log included,
because the next append would land on the torn line.

Damage quarantines the shard in its health machine
(:class:`~repro.storage.health.ShardHealthMachine`), pulling it out of
partial-mode query fan-out *before* a user query ever touches it.  With
``repair=True`` the scrubber goes one step further and runs the full
self-healing loop per quarantined shard::

    quarantine → start_repair → fsck --repair → re-verify → reopen + readmit

``fsck --repair`` rolls a damaged snapshot back when the WAL chain is
complete from genesis (zero committed-record loss) and trims torn WAL
tails; the post-repair re-verify must come back clean before the shard
is reopened (full WAL replay) and re-admitted.  A repair that does not
verify clean returns the shard to quarantine with the reason recorded.

Scrubbing competes with foreground queries for disk bandwidth, so reads
are metered through a token bucket (``bytes_per_s``; burst capped at one
second of budget).  Page reads are charged per 4 KiB page as fsck walks
them; WAL files are charged at file granularity once fsck has read them
(segments are bounded by the rotation threshold, so the burst error is
bounded too).

The scrubber never changes shard files on its own: a clean pass records
successes, a dirty pass quarantines.  Only an explicit ``repair=True``
deletes or rewrites files, and only through fsck's repair path.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.storage.fsck import INFO, fsck
from repro.storage.health import QUARANTINED
from repro.storage.pages import PAGE_SIZE
from repro.storage.sharded import ShardedStore
from repro.storage.store import WAL_NAME, pages_files
from repro.storage.wal import sealed_segment_paths

__all__ = ["ScrubReport", "Scrubber", "ShardScrubResult"]

_RUNS = _metrics.counter("storage.scrub.runs")
_PAGES = _metrics.counter("storage.scrub.pages")
_BYTES = _metrics.counter("storage.scrub.bytes")
_CORRUPTIONS = _metrics.counter("storage.scrub.corruptions")
_REPAIRS = _metrics.counter("storage.scrub.repairs")

#: Default scrub bandwidth: gentle enough to hide under a foreground
#: workload, fast enough to cover a few-hundred-MB shard set per cycle.
DEFAULT_BYTES_PER_S = 32 * 1024 * 1024


class _TokenBucket:
    """Byte-metered rate limiter (burst capped at one second of budget)."""

    def __init__(
        self,
        bytes_per_s: float | None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.rate = bytes_per_s if bytes_per_s and bytes_per_s > 0 else None
        self._clock = clock
        self._sleep = sleep
        self._allowance = float(self.rate or 0)
        self._last = clock()

    def charge(self, n: int) -> None:
        if self.rate is None or n <= 0:
            return
        now = self._clock()
        self._allowance = min(
            self.rate, self._allowance + (now - self._last) * self.rate
        )
        self._last = now
        self._allowance -= n
        if self._allowance < 0:
            self._sleep(-self._allowance / self.rate)


@dataclass
class ShardScrubResult:
    """Outcome of scrubbing one shard's on-disk state."""

    shard: int
    pages: int = 0
    wal_files: int = 0
    bytes: int = 0
    errors: list[str] = field(default_factory=list)
    #: Set when fsck itself raised (an I/O error, not a finding): fed to
    #: the health machine, which windows it instead of quarantining.
    exception: BaseException | None = None
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "clean": self.clean,
            "pages": self.pages,
            "wal_files": self.wal_files,
            "bytes": self.bytes,
            "errors": list(self.errors),
            "repaired": self.repaired,
        }


@dataclass
class ScrubReport:
    """One full sweep over every shard."""

    shards: list[ShardScrubResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.shards)

    @property
    def corrupt_shards(self) -> tuple[int, ...]:
        return tuple(r.shard for r in self.shards if not r.clean)

    def to_dict(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "elapsed_s": round(self.elapsed_s, 6),
            "shards": [r.to_dict() for r in self.shards],
        }

    def render(self) -> str:
        lines = []
        for r in self.shards:
            status = "clean" if r.clean else "CORRUPT"
            if r.repaired:
                status = "repaired"
            lines.append(
                f"shard {r.shard:2d}: {status}  "
                f"({r.pages} pages, {r.wal_files} WAL files, {r.bytes} bytes)"
            )
            for err in r.errors:
                lines.append(f"  ! {err}")
        verdict = "scrub clean" if self.clean else (
            f"scrub found damage on shard(s) "
            f"{', '.join(str(s) for s in self.corrupt_shards)}"
        )
        lines.append(f"{verdict} in {self.elapsed_s:.2f}s")
        return "\n".join(lines)


class Scrubber:
    """Periodic integrity sweeper for a :class:`ShardedStore`.

    Parameters
    ----------
    store:
        The sharded store to watch.  Must be disk-backed; an in-memory
        store has no on-disk state to scrub (``run_once`` returns an
        empty report).
    bytes_per_s:
        Token-bucket read budget; ``None`` disables metering (tests,
        one-shot CLI runs).
    """

    def __init__(
        self,
        store: ShardedStore,
        *,
        bytes_per_s: float | None = DEFAULT_BYTES_PER_S,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.store = store
        self.bytes_per_s = bytes_per_s
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._last_report: ScrubReport | None = None
        self._last_finished: float | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- one sweep ---------------------------------------------------------

    def run_once(self, *, repair: bool = False) -> ScrubReport:
        """Scrub every shard; optionally run the self-healing loop.

        Feeds every finding into the store's health machine.  With
        ``repair=True``, any shard that is quarantined afterwards (from
        this sweep's findings *or* from an earlier query-time error)
        gets the quarantine → fsck → re-verify → readmit treatment.
        """
        _RUNS.inc()
        started = self._clock()
        report = ScrubReport()
        health = self.store.health
        bucket = _TokenBucket(
            self.bytes_per_s, clock=self._clock, sleep=self._sleep
        )
        indexes = range(self.store.shard_count)
        tracker = _progress.start(
            "storage.scrub",
            total=self._estimate_pages() if self.store.root is not None else None,
            shards=self.store.shard_count,
            repair=repair,
        )
        try:
            if self.store.root is None:
                return report
            for index in indexes:
                result = self._scrub_shard(index, bucket, tracker)
                report.shards.append(result)
                if result.clean:
                    if health.is_serving(index):
                        health.record_success(index)
                else:
                    _CORRUPTIONS.inc(len(result.errors))
                    _logging.warn(
                        "storage.scrub.corruption",
                        shard=index,
                        errors=result.errors,
                    )
                    if result.exception is not None:
                        health.record_error(index, result.exception, source="scrub")
                    else:
                        health.quarantine(index, f"[scrub] {result.errors[0]}")
                if repair and health.state(index) == QUARANTINED:
                    result.repaired = self._repair_shard(
                        index, bucket, tracker
                    )
            report.elapsed_s = self._clock() - started
            _logging.info(
                "storage.scrub.done",
                clean=report.clean,
                corrupt_shards=list(report.corrupt_shards),
                elapsed_s=round(report.elapsed_s, 3),
            )
            with self._lock:
                self._last_report = report
                self._last_finished = self._clock()
            return report
        finally:
            tracker.finish(ok=report.clean)

    def last_verdict(self) -> dict[str, Any] | None:
        """The most recent report plus its age — ``/healthz``'s source."""
        with self._lock:
            if self._last_report is None or self._last_finished is None:
                return None
            doc = self._last_report.to_dict()
            doc["age_s"] = round(self._clock() - self._last_finished, 3)
            return doc

    # -- repair orchestration ----------------------------------------------

    def _repair_shard(
        self, index: int, bucket: _TokenBucket, tracker: Any
    ) -> bool:
        """quarantine → fsck --repair → re-verify → reopen + readmit."""
        health = self.store.health
        directory = self.store.shard_path(index)
        health.start_repair(index)
        _logging.info("storage.scrub.repair_start", shard=index)
        try:
            fsck_report = fsck(directory, repair=True)
        except Exception as exc:  # fsck itself blew up — stay quarantined
            health.repair_failed(index, f"fsck raised {type(exc).__name__}: {exc}")
            return False
        if not fsck_report.ok:
            health.repair_failed(
                index, f"fsck --repair exited {fsck_report.exit_code()}"
            )
            return False
        recheck = self._scrub_shard(index, bucket, tracker)
        if not recheck.clean:
            health.repair_failed(
                index, f"post-repair scrub still dirty: {recheck.errors[0]}"
            )
            return False
        # Reopen replays the repaired on-disk state (full WAL chain after
        # a snapshot rollback) and readmit returns the shard to service.
        try:
            self.store.readmit(index, reopen=True)
        except Exception as exc:  # the reopen or its checkpoint failed
            health.repair_failed(index, f"reopen raised {type(exc).__name__}: {exc}")
            return False
        _REPAIRS.inc()
        _logging.info("storage.scrub.repaired", shard=index)
        return True

    # -- shard walk --------------------------------------------------------

    def _scrub_shard(
        self, index: int, bucket: _TokenBucket, tracker: Any
    ) -> ShardScrubResult:
        """fsck's check pass over one shard directory, metered."""
        result = ShardScrubResult(shard=index)
        directory = self.store.shard_path(index)
        if not directory.is_dir():
            return result  # never checkpointed / fresh shard: nothing on disk

        def on_page(n: int) -> None:
            result.pages += n
            _PAGES.inc(n)
            tracker.tick(n)
            self._charge(bucket, result, n * PAGE_SIZE)

        try:
            report = fsck(directory, on_page=on_page)
        except Exception as exc:  # an I/O failure, not a finding
            result.errors.append(f"fsck raised {type(exc).__name__}: {exc}")
            result.exception = exc
            return result
        result.wal_files = report.segments_checked
        wal = directory / WAL_NAME
        for path in [wal, *(path for _seal, path in sealed_segment_paths(wal))]:
            with contextlib.suppress(OSError):  # reclaimed since fsck read it
                self._charge(bucket, result, path.stat().st_size)
        result.errors = [
            f"{Path(issue.path).name}: {issue.message}" if issue.path else issue.message
            for issue in report.issues
            if issue.severity != INFO and not issue.artifact
        ]
        return result

    def _charge(
        self, bucket: _TokenBucket, result: ShardScrubResult, n: int
    ) -> None:
        result.bytes += n
        _BYTES.inc(n)
        bucket.charge(n)

    def _estimate_pages(self) -> int | None:
        """Cheap page-count estimate for the progress tracker's total."""
        total = 0
        for index in range(self.store.shard_count):
            directory = self.store.shard_path(index)
            if not directory.is_dir():
                continue
            for path in pages_files(directory):
                try:
                    total += path.stat().st_size // PAGE_SIZE
                except OSError:
                    pass
        return total or None

    # -- background thread -------------------------------------------------

    def start(self, interval_s: float = 300.0, *, repair: bool = False) -> None:
        """Run :meth:`run_once` every ``interval_s`` until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("scrubber already started")
        self._stop.clear()

        def loop() -> None:
            # First sweep runs immediately: a freshly started scrubber
            # should not leave /healthz verdict-less for a whole interval.
            while True:
                try:
                    self.run_once(repair=repair)
                except Exception as exc:  # keep the cycle alive
                    _logging.error(
                        "storage.scrub.cycle_error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if self._stop.wait(interval_s):
                    return

        self._thread = threading.Thread(
            target=loop, name="repro-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop (waits for an in-flight sweep)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
