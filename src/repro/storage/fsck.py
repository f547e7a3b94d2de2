"""Offline integrity checking and repair for a store directory.

``fsck`` is the explicit, human-invoked counterpart to the strict
recovery that runs when a :class:`~repro.storage.store.RecordStore`
opens: recovery *refuses* to open damaged data; ``fsck`` walks the whole
directory — snapshot manifest, every WAL segment, every frame — and
reports exactly what it finds, optionally repairing what is safely
repairable.  CLI surface: ``repro fsck DIR [--repair] [--json]``.

What it checks
--------------

* **Snapshot** (``snapshot.json``): read through the same reader
  recovery uses (:func:`~repro.storage.store.read_manifest`), so fsck
  flags exactly the manifests that refuse to open: not a JSON object,
  an unsupported version, a bad ``wal_seal``, malformed index
  declarations, a bad pages reference, or a record count or CRC that
  disagrees with the pages file's meta page (or, for a legacy
  version-2 snapshot, with its inline records).  The referenced
  ``store.pages.NNNNNN`` file is then deep-verified page by page (every
  CRC, key order, leaf chain, no free list); page-level corruption is
  fatal and reported with the damaged page's id.
* **Segment chain**: sealed segment numbering has no gaps above the
  snapshot's ``wal_seal``; every frame in every live segment passes the
  ``W1`` grammar, length, and CRC checks; tail damage appears only where
  a crash can legally put it — the final file of the chain.
* **Checkpoint artifacts**: stale sealed segments (at or below
  ``wal_seal``), stray snapshot temp files, and stray pages files —
  ``store.pages.*`` not referenced by the manifest, including ``.tmp``
  builds.  A crash mid-checkpoint leaves them, and so, for a moment,
  does every checkpoint in flight; these findings carry
  ``artifact=True`` so the scrubber, which checks live shards, can
  ignore them.

Repair policy
-------------

Repair never invents data and never touches anything mid-chain:

* a **torn tail** (unterminated final line of the last file) is truncated
  — that write was never acknowledged, so nothing is lost;
* a **corrupt tail** (CRC/grammar failure inside the last file) is
  truncated to the longest valid prefix — this *does* drop acknowledged
  entries and is reported as data loss, but it is the only way to make
  the store openable again;
* **stale segments**, **stray temp files**, and **stray pages files**
  are deleted;
* a **damaged snapshot with a complete WAL** (sealed segments running
  contiguously from seal 1, everything clean — i.e. no checkpoint ever
  reclaimed anything, so the WAL still holds the full committed history)
  is **rolled back**: the snapshot and its pages files are deleted and
  the next open recovers by full WAL replay, with zero committed-record
  loss (secondary-index declarations, which live only in the snapshot,
  must be re-declared by the caller) — this also repairs a manifest
  whose index declarations are malformed;
* mid-chain damage (a bad sealed segment with later segments after it)
  is **fatal**: repairing it would silently drop an unbounded amount of
  acknowledged data, so fsck reports and refuses;
* beside a damaged snapshot it cannot roll back, no pages file is
  deleted: any of them may hold the only copy of the data.

Exit codes (see :meth:`FsckReport.exit_code`): 0 — clean (or everything
found was repaired); 1 — repairable issues found but ``repair`` was off;
2 — fatal damage.

Observability: each run bumps ``storage.fsck.runs`` and reports
``storage.fsck.issues`` / ``storage.fsck.repairs``; the scrubber's
per-shard checks are fsck runs too.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import CorruptLogError, StorageError
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.storage.paged_btree import PagedBTree
from repro.storage.pages import PageCorruptionError
from repro.storage.store import (
    SNAPSHOT_NAME,
    WAL_NAME,
    pages_files,
    pages_name,
    publish_manifest,
    read_manifest,
)
from repro.storage.wal import SegmentScan, WriteAheadLog, sealed_segment_paths

_FSCK_RUNS = _metrics.counter("storage.fsck.runs")
_FSCK_ISSUES = _metrics.counter("storage.fsck.issues")
_FSCK_REPAIRS = _metrics.counter("storage.fsck.repairs")

#: Issue severities, in escalating order.
INFO = "info"  #: observation only; never affects the exit code
REPAIRABLE = "repairable"  #: fsck can fix it; exit 1 until repaired
REPAIRED = "repaired"  #: was repairable, and ``repair=True`` fixed it
FATAL = "fatal"  #: unrepairable damage; exit 2


@dataclass(slots=True)
class FsckIssue:
    """One finding: a severity, a message, and the file it concerns.

    ``artifact`` marks a file a checkpoint leaves behind until it
    finishes (see the module docstring).
    """

    severity: str
    message: str
    path: str | None = None
    artifact: bool = False

    def render(self) -> str:
        where = f" [{self.path}]" if self.path else ""
        return f"{self.severity.upper():10s} {self.message}{where}"


@dataclass(slots=True)
class FsckReport:
    """Everything one ``fsck`` run found, plus summary counts."""

    directory: str
    repair: bool
    issues: list[FsckIssue] = field(default_factory=list)
    segments_checked: int = 0
    entries_checked: int = 0
    snapshot_records: int | None = None  #: ``None`` when no snapshot exists

    def add(
        self, severity: str, message: str, path: Path | str | None = None,
        *, artifact: bool = False,
    ) -> None:
        self.issues.append(
            FsckIssue(severity=severity, message=message,
                      path=str(path) if path is not None else None,
                      artifact=artifact)
        )

    @property
    def clean(self) -> bool:
        """No findings beyond informational ones (repaired counts as a finding)."""
        return all(issue.severity == INFO for issue in self.issues)

    @property
    def ok(self) -> bool:
        """Nothing left that would impair recovery (repaired issues are ok)."""
        return all(issue.severity in (INFO, REPAIRED) for issue in self.issues)

    def exit_code(self) -> int:
        if any(issue.severity == FATAL for issue in self.issues):
            return 2
        if any(issue.severity == REPAIRABLE for issue in self.issues):
            return 1
        return 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "repair": self.repair,
            "ok": self.ok,
            "exit_code": self.exit_code(),
            "segments_checked": self.segments_checked,
            "entries_checked": self.entries_checked,
            "snapshot_records": self.snapshot_records,
            "issues": [
                {"severity": i.severity, "message": i.message, "path": i.path}
                for i in self.issues
            ],
        }

    def render(self) -> str:
        lines = [f"fsck {self.directory}"]
        lines += [f"  {issue.render()}" for issue in self.issues]
        snapshot = (
            "no snapshot"
            if self.snapshot_records is None
            else f"{self.snapshot_records} snapshot records"
        )
        lines.append(
            f"  checked {self.segments_checked} segment(s), "
            f"{self.entries_checked} WAL entries, {snapshot}"
        )
        lines.append(f"  status: {'clean' if self.ok else 'DAMAGED'}")
        return "\n".join(lines)


def fsck(
    directory: Path | str,
    *,
    repair: bool = False,
    on_page: Callable[[int], None] | None = None,
) -> FsckReport:
    """Check (and with ``repair=True``, repair) the store at ``directory``.

    Schema-agnostic: works frame-by-frame against the on-disk format, so
    it runs on any store directory regardless of what the records mean.
    See the module docstring for the check list and the repair policy.
    ``on_page`` is called with ``1`` for every page the deep walk of the
    referenced pages file reads (the scrubber meters its reads with it).
    """
    directory = Path(directory)
    report = FsckReport(directory=str(directory), repair=repair)
    _FSCK_RUNS.inc()
    try:
        if not directory.is_dir():
            report.add(FATAL, "store directory does not exist", directory)
            return report
        snapshot_path = directory / SNAPSHOT_NAME
        wal_base = directory / WAL_NAME
        # Indeterminate total: the walk covers pages (deep verify) plus
        # WAL entries, and neither count is known until the files are
        # read.  The tracker still surfaces done/rate on /progressz.
        with _progress.start("storage.fsck", directory=str(directory)) as tracker:

            def walked(n: int) -> None:
                tracker.tick(n)
                if on_page is not None:
                    on_page(n)

            _check_stray_tmp(report, snapshot_path, repair)
            before = len(report.issues)
            wal_seal, referenced = _check_snapshot(report, directory, walked)
            snapshot_fatal = any(
                issue.severity == FATAL for issue in report.issues[before:]
            )
            target = (
                _rollback_target(directory, wal_base, wal_seal)
                if snapshot_fatal
                else None
            )
            if target is not None:
                # The snapshot is damaged, but an older state plus the
                # surviving WAL still holds the complete committed
                # history: either a previous checkpoint's pages file
                # deep-verifies clean and every later segment is present
                # and clean (target > 0), or the chain runs unbroken
                # from genesis (target == 0).  Rolling the snapshot back
                # to that point makes the next open recover by WAL
                # replay with zero committed-record loss.
                for issue in report.issues[before:]:
                    if issue.severity == FATAL:
                        issue.severity = REPAIRED if repair else REPAIRABLE
                if repair:
                    wal_seal, referenced = _rollback_snapshot(
                        report, directory, snapshot_path, target
                    )
                else:
                    point = (
                        f"checkpoint {target} (its pages file verifies clean)"
                        if target
                        else "genesis (the WAL chain is complete from seal 1)"
                    )
                    report.add(
                        REPAIRABLE,
                        f"snapshot is damaged but the history survives — "
                        f"repair will roll back to {point} and recover the "
                        "rest by WAL replay (zero committed-record loss)",
                        snapshot_path,
                    )
                    # The rollback point's files are the only good copy
                    # of the data: reference them below so nothing
                    # offers to delete them as stale/stray.
                    wal_seal = target
                    if target:
                        referenced = pages_name(target)
            # Beside a snapshot nothing can roll back, any pages file
            # may hold the only copy of the data: none is a stray.
            if not snapshot_fatal or target is not None:
                _check_stray_pages(report, directory, referenced, repair)
            _check_chain(report, wal_base, wal_seal, repair, tracker)
        return report
    finally:
        _FSCK_ISSUES.inc(sum(1 for i in report.issues if i.severity != INFO))
        _FSCK_REPAIRS.inc(sum(1 for i in report.issues if i.severity == REPAIRED))
        code = report.exit_code()
        _logging.log(
            "storage.fsck",
            level="info" if code == 0 else ("warn" if code == 1 else "error"),
            directory=report.directory,
            exit_code=code,
            repair=repair,
            segments_checked=report.segments_checked,
            entries_checked=report.entries_checked,
            issues=len(report.issues),
        )


def _pages_files(directory: Path) -> list[tuple[int, Path]]:
    """``(seal, path)`` of canonical ``store.pages.NNNNNN`` files, ascending."""
    out = []
    for path in pages_files(directory):
        seal_text = path.name.rsplit(".", 1)[-1]
        if seal_text.isdigit():
            out.append((int(seal_text), path))
    out.sort()
    return out


def _rollback_target(directory: Path, wal_base: Path, wal_seal: int) -> int | None:
    """Newest checkpoint a damaged snapshot can safely roll back to.

    A rollback point ``K`` is safe when the surviving files still hold
    every committed write: for ``K > 0`` the pages file
    ``store.pages.K`` must deep-verify clean (the complete state as of
    checkpoint ``K``), and in both cases every WAL segment *after*
    ``K`` — up to the newest checkpoint any evidence proves happened
    (the highest seal among surviving segments, surviving pages files,
    and the snapshot's own claim) — must be present and scan clean, as
    must the active log.  A hole in that range means a later
    checkpoint's reclaim already deleted history the rollback would
    need, so the candidate is rejected rather than risk silent loss.

    Candidates are tried newest-first (pages files by descending seal,
    then genesis ``K = 0``); returns the first safe one, or ``None``.
    """
    sealed = sealed_segment_paths(wal_base)
    seals = {seal for seal, _path in sealed}
    pages = _pages_files(directory)
    proven = max(
        [*seals, *(seal for seal, _path in pages), wal_seal], default=0
    )
    segment_clean: dict[int, bool] = {}

    def chain_ok(k: int) -> bool:
        by_seal = dict(sealed)
        for seal in range(k + 1, proven + 1):
            if seal not in by_seal:
                return False
            if seal not in segment_clean:
                segment_clean[seal] = WriteAheadLog.scan_file(
                    by_seal[seal], strict=False
                ).clean
            if not segment_clean[seal]:
                return False
        if wal_base.exists():
            if not WriteAheadLog.scan_file(wal_base, strict=False).clean:
                return False
        return True

    for seal, path in sorted(pages, reverse=True):
        if not chain_ok(seal):
            continue
        try:
            tree = PagedBTree(path)
            try:
                tree.verify()
            finally:
                tree.close()
        except Exception:
            continue
        return seal
    if sealed and min(seals) == 1 and chain_ok(0):
        return 0
    return None


def _rollback_snapshot(
    report: FsckReport, directory: Path, snapshot_path: Path, target: int
) -> tuple[int, str | None]:
    """Roll the store back to checkpoint ``target`` (repair action).

    Only called once :func:`_rollback_target` has proven the rollback
    point plus the surviving WAL hold the full history.  Deletes the
    damaged snapshot and every pages file newer than the target; for
    ``target > 0`` a fresh manifest referencing the verified pages file
    is published through the checkpoint's own writer
    (:func:`~repro.storage.store.publish_manifest`: fsync, read-back,
    rename); its record count and CRC come from the tree's own meta
    page, so the manifest/pages cross-check holds on the next open, and
    recovery replays the WAL from there.  Secondary-index declarations
    live only in the snapshot and are lost — callers re-declare them
    (a :class:`~repro.storage.sharded.ShardedStore` restores its
    siblings', durably, at open and in ``reopen_shard``).

    Returns the ``(wal_seal, pages_name)`` now in effect.
    """
    keep_name = pages_name(target) if target else None
    for _seal, path in _pages_files(directory):
        if path.name == keep_name:
            continue
        path.unlink()
        report.add(REPAIRED, "removed pages file of rolled-back snapshot", path)
    if keep_name is None:
        snapshot_path.unlink()
        report.add(
            REPAIRED,
            "rolled back damaged snapshot; next open recovers by full WAL replay",
            snapshot_path,
        )
        return 0, None
    tree = PagedBTree(directory / keep_name)
    try:
        record_count, data_crc = tree.entry_count, tree.data_crc
    finally:
        tree.close()
    publish_manifest(
        snapshot_path,
        pages=keep_name,
        wal_seal=target,
        record_count=record_count,
        checksum=f"{data_crc:08x}",
        indexes=[],
    )
    report.add(
        REPAIRED,
        f"rolled snapshot back to checkpoint {target}; next open recovers "
        "the rest by WAL replay",
        snapshot_path,
    )
    return target, keep_name


def _artifact(report: FsckReport, path: Path, what: str, repair: bool) -> None:
    """Report a checkpoint artifact; with ``repair``, delete it."""
    if repair:
        path.unlink()
        report.add(REPAIRED, f"removed {what}", path, artifact=True)
    else:
        report.add(REPAIRABLE, what, path, artifact=True)


def _check_stray_tmp(report: FsckReport, snapshot_path: Path, repair: bool) -> None:
    tmp = snapshot_path.with_suffix(".json.tmp")
    if tmp.exists():
        _artifact(report, tmp, "stray snapshot temp file (crash artifact)", repair)


def _check_snapshot(
    report: FsckReport, directory: Path, on_page: Callable[[int], None]
) -> tuple[int, str | None]:
    """Check the manifest with recovery's reader, then deep-verify the
    pages file a version-3 manifest references.

    Returns ``(wal_seal, pages_name)`` — the seal the snapshot covers
    (0 when there is none or the reader rejects it) and the pages file
    it names (``None`` for a legacy inline snapshot), so the caller can
    treat every *other* ``store.pages.*`` file as a stray.
    """
    try:
        manifest = read_manifest(directory)
    except StorageError as exc:
        report.add(FATAL, str(exc), directory / SNAPSHOT_NAME)
        return 0, None
    if manifest is None:
        report.add(INFO, "no snapshot (recovery is WAL-only)")
        return 0, None
    report.snapshot_records = manifest.record_count
    if manifest.pages is None:
        if manifest.version == 1:
            report.add(INFO, "version-1 snapshot (no manifest; count/checksum unchecked)")
        return manifest.wal_seal, None
    pages_path = directory / manifest.pages
    try:
        with manifest.open_pages() as tree:
            stats = tree.verify(on_page=on_page)
    except PageCorruptionError as exc:
        report.add(FATAL, f"page-level corruption in pages file: {exc}", pages_path)
    except StorageError as exc:
        report.add(FATAL, str(exc), pages_path)
    except OSError as exc:
        report.add(FATAL, f"unreadable pages file: {exc}", pages_path)
    else:
        report.add(
            INFO,
            f"pages file verified: {stats['pages']} pages, "
            f"{stats['entries']} entries, depth {stats['depth']}",
            pages_path,
        )
    return manifest.wal_seal, manifest.pages


def _check_stray_pages(
    report: FsckReport, directory: Path, referenced: str | None, repair: bool
) -> None:
    """Flag ``store.pages.*`` files the manifest does not reference.

    A crash between publishing a pages file and publishing the manifest
    (or during the tmp build, or before the post-checkpoint sweep of
    superseded files) leaves extras behind.  They are never read by
    recovery, so deleting them is always safe.
    """
    for path in pages_files(directory):
        if path.name == referenced:
            continue
        kind = "temp" if path.name.endswith(".tmp") else "unreferenced"
        _artifact(report, path, f"stray {kind} pages file (crash artifact)", repair)


def _check_chain(
    report: FsckReport,
    wal_base: Path,
    wal_seal: int,
    repair: bool,
    tracker: _progress.ProgressTracker,
) -> None:
    stale: list[tuple[int, Path]] = []
    live: list[tuple[int, Path]] = []
    for seal, path in sealed_segment_paths(wal_base):
        (stale if seal <= wal_seal else live).append((seal, path))
    for seal, path in stale:
        _artifact(
            report, path, f"stale segment {seal:06d} (covered by snapshot)", repair
        )
    expected = None
    for seal, path in live:
        if expected is not None and seal != expected:
            report.add(
                FATAL,
                f"segment chain gap: expected segment {expected:06d}, "
                f"found {seal:06d} — acknowledged data is missing",
                path,
            )
        expected = seal + 1
    chain_files = [path for _, path in live]
    if wal_base.exists():
        chain_files.append(wal_base)
    report.segments_checked = len(chain_files)
    for position, path in enumerate(chain_files):
        scan = WriteAheadLog.scan_file(path, strict=False)
        report.entries_checked += len(scan.entries)
        tracker.tick(len(scan.entries))
        is_last = position == len(chain_files) - 1
        if scan.clean:
            continue
        if not is_last:
            # Sealed segments are fsynced before sealing; damage here with
            # later segments after it means acknowledged data vanished
            # mid-chain — truncating would drop everything downstream too.
            report.add(
                FATAL,
                "damage in a sealed mid-chain segment "
                f"(valid prefix: {len(scan.entries)} entries, "
                f"{scan.valid_bytes} bytes) — not safely repairable",
                path,
            )
            continue
        _handle_tail_damage(report, path, scan, repair)


def _handle_tail_damage(
    report: FsckReport, path: Path, scan: SegmentScan, repair: bool
) -> None:
    size = path.stat().st_size
    if scan.error is not None:
        lost = size - scan.valid_bytes
        message = (
            f"corrupt tail ({scan.error}): {lost} bytes beyond the last valid "
            f"entry are unreadable — truncating LOSES acknowledged data"
        )
        cut_to = scan.valid_bytes
    else:
        message = (
            f"torn tail: {scan.torn_bytes} trailing bytes of an unacknowledged "
            "write (normal crash artifact)"
        )
        cut_to = size - scan.torn_bytes
    if repair:
        with open(path, "rb+") as fh:
            fh.truncate(cut_to)
            fh.flush()
            os.fsync(fh.fileno())
        report.add(REPAIRED, f"{message}; truncated to {cut_to} bytes", path)
    else:
        report.add(REPAIRABLE, message, path)


# -- sharded store roots ------------------------------------------------------


def is_sharded_root(directory: Path | str) -> bool:
    """True when ``directory`` is a sharded store root (has a manifest)."""
    from repro.storage.sharded import SHARD_MANIFEST

    return (Path(directory) / SHARD_MANIFEST).is_file()


@dataclass(slots=True)
class ShardedFsckReport:
    """``fsck`` results for every shard of a sharded store root.

    Shards are independent durability domains, so each gets a full
    :class:`FsckReport` of its own; the root-level verdict is the
    *worst-of* fold — the overall exit code is the maximum per-shard exit
    code, with manifest problems (missing shard directories, unreadable
    manifest) counting as fatal.
    """

    root: str
    repair: bool
    shard_reports: list[FsckReport] = field(default_factory=list)
    manifest_issues: list[FsckIssue] = field(default_factory=list)

    def add_manifest_issue(
        self, severity: str, message: str, path: Path | str | None = None
    ) -> None:
        self.manifest_issues.append(
            FsckIssue(severity=severity, message=message,
                      path=str(path) if path is not None else None)
        )

    @property
    def ok(self) -> bool:
        return self.exit_code() == 0

    def exit_code(self) -> int:
        code = 0
        if any(i.severity == FATAL for i in self.manifest_issues):
            code = 2
        elif any(i.severity == REPAIRABLE for i in self.manifest_issues):
            code = 1
        for report in self.shard_reports:
            code = max(code, report.exit_code())
        return code

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "repair": self.repair,
            "sharded": True,
            "shard_count": len(self.shard_reports),
            "ok": self.ok,
            "exit_code": self.exit_code(),
            "manifest_issues": [
                {"severity": i.severity, "message": i.message, "path": i.path}
                for i in self.manifest_issues
            ],
            "shards": [report.to_dict() for report in self.shard_reports],
        }

    def render(self) -> str:
        lines = [f"fsck (sharded) {self.root}: {len(self.shard_reports)} shard(s)"]
        lines += [f"  {issue.render()}" for issue in self.manifest_issues]
        for report in self.shard_reports:
            lines += ["  " + line for line in report.render().splitlines()]
        lines.append(f"  overall: {'clean' if self.ok else 'DAMAGED'}")
        return "\n".join(lines)


def fsck_sharded(root: Path | str, *, repair: bool = False) -> ShardedFsckReport:
    """Run :func:`fsck` over every shard of the sharded store at ``root``.

    Each shard directory is checked (and with ``repair=True``, repaired)
    exactly as a standalone store; the combined report folds the verdicts
    worst-of.  A fatal shard never stops the walk — the other shards are
    still checked so the report shows the full blast radius.
    """
    from repro.storage.sharded import SHARD_MANIFEST

    root = Path(root)
    report = ShardedFsckReport(root=str(root), repair=repair)
    manifest = root / SHARD_MANIFEST
    try:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        shard_count = doc["shard_count"]
        if not isinstance(shard_count, int) or shard_count < 1:
            raise ValueError(f"bad shard_count {shard_count!r}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        report.add_manifest_issue(
            FATAL, f"unreadable shard manifest: {exc}", manifest
        )
        return report
    for index in range(shard_count):
        shard_dir = root / f"shard-{index:02d}"
        if not shard_dir.is_dir():
            # A shard that never saw a write has no directory yet — an
            # empty store is clean, not damaged.  Note it and move on.
            report.add_manifest_issue(
                INFO, f"shard {index:02d} has no directory (no writes yet)",
                shard_dir,
            )
            continue
        report.shard_reports.append(fsck(shard_dir, repair=repair))
    return report


__all__ = [
    "FsckIssue",
    "FsckReport",
    "ShardedFsckReport",
    "fsck",
    "fsck_sharded",
    "is_sharded_root",
    "INFO",
    "REPAIRABLE",
    "REPAIRED",
    "FATAL",
    "CorruptLogError",
]
