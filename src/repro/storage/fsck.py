"""Offline integrity checking and repair for a store directory.

``fsck`` is the explicit, human-invoked counterpart to the strict
recovery that runs when a :class:`~repro.storage.store.RecordStore`
opens: recovery *refuses* to open damaged data; ``fsck`` walks the whole
directory — snapshot manifest, every WAL segment, every frame — and
reports exactly what it finds, optionally repairing what is safely
repairable.  CLI surface: ``repro fsck DIR [--repair] [--json]``.

What it checks
--------------

* **Snapshot** (``snapshot.json``): parses, has a supported version,
  and declares its secondary indexes well-formed.  The version-3
  manifest every checkpoint writes has no inline records; instead the
  referenced ``store.pages.NNNNNN`` file is opened and deep-verified
  page by page (every CRC, key order, leaf chain, no free list), and its
  meta entry count / data CRC are compared against the manifest.
  Page-level corruption is fatal and reported with the damaged page's
  id.  A legacy version-2 snapshot (records inline, awaiting its
  upgrade at the next checkpoint) must agree with its content —
  ``record_count`` matches the records array and ``checksum`` matches
  the CRC-32 of the canonical records JSON.
* **Segment chain**: sealed segment numbering has no gaps above the
  snapshot's ``wal_seal``; every frame in every live segment passes the
  ``W1`` grammar, length, and CRC checks; tail damage appears only where
  a crash can legally put it — the final file of the chain.
* **Crash artifacts**: stale sealed segments (at or below ``wal_seal``,
  left by a crash mid-checkpoint), stray snapshot temp files, and stray
  pages files — ``store.pages.*`` not referenced by the manifest,
  including ``.tmp`` builds a crash abandoned mid-checkpoint.

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
  acknowledged data, so fsck reports and refuses.

Exit codes (see :meth:`FsckReport.exit_code`): 0 — clean (or everything
found was repaired); 1 — repairable issues found but ``repair`` was off;
2 — fatal damage.

Observability: each run bumps ``storage.fsck.runs`` and reports
``storage.fsck.issues`` / ``storage.fsck.repairs``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CorruptLogError, StorageError
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.storage.paged_btree import PagedBTree
from repro.storage.pages import PageCorruptionError
from repro.storage.store import (
    _SNAPSHOT_VERSION,
    _SUPPORTED_SNAPSHOT_VERSIONS,
    index_declarations,
    publish_manifest,
    records_checksum,
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
    """One finding: a severity, a message, and the file it concerns."""

    severity: str
    message: str
    path: str | None = None

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

    def add(self, severity: str, message: str, path: Path | str | None = None) -> None:
        self.issues.append(
            FsckIssue(severity=severity, message=message,
                      path=str(path) if path is not None else None)
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
    wal_name: str = "store.wal",
    snapshot_name: str = "snapshot.json",
) -> FsckReport:
    """Check (and with ``repair=True``, repair) the store at ``directory``.

    Schema-agnostic: works frame-by-frame against the on-disk format, so
    it runs on any store directory regardless of what the records mean.
    See the module docstring for the check list and the repair policy.
    """
    directory = Path(directory)
    report = FsckReport(directory=str(directory), repair=repair)
    _FSCK_RUNS.inc()
    try:
        if not directory.is_dir():
            report.add(FATAL, "store directory does not exist", directory)
            return report
        snapshot_path = directory / snapshot_name
        wal_base = directory / wal_name
        # Indeterminate total: the walk covers pages (deep verify) plus
        # WAL entries, and neither count is known until the files are
        # read.  The tracker still surfaces done/rate on /progressz.
        with _progress.start("storage.fsck", directory=str(directory)) as tracker:
            _check_stray_tmp(report, snapshot_path, repair)
            before = len(report.issues)
            wal_seal, pages_name = _check_snapshot(report, snapshot_path, tracker)
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
                    wal_seal, pages_name = _rollback_snapshot(
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
                        pages_name = f"store.pages.{target:06d}"
            _check_stray_pages(report, directory, pages_name, repair)
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
    for path in directory.glob("store.pages.*"):
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
    (``ShardedStore.reopen_shard`` mirrors a sibling shard).

    Returns the ``(wal_seal, pages_name)`` now in effect.
    """
    keep_name = f"store.pages.{target:06d}" if target else None
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


def _check_stray_tmp(report: FsckReport, snapshot_path: Path, repair: bool) -> None:
    tmp = snapshot_path.with_suffix(".json.tmp")
    if not tmp.exists():
        return
    if repair:
        tmp.unlink()
        report.add(REPAIRED, "removed stray snapshot temp file (crash artifact)", tmp)
    else:
        report.add(REPAIRABLE, "stray snapshot temp file (crash artifact)", tmp)


def _check_snapshot(
    report: FsckReport, snapshot_path: Path, tracker: _progress.ProgressTracker
) -> tuple[int, str | None]:
    """Validate the snapshot manifest.

    Returns ``(wal_seal, pages_name)`` — the seal the snapshot covers
    (0 when there is none) and, for a v3 manifest, the name of the pages
    file it references (``None`` for a legacy inline snapshot), so the
    caller can treat every *other* ``store.pages.*`` file as a stray.
    """
    if not snapshot_path.exists():
        report.add(INFO, "no snapshot (recovery is WAL-only)")
        return 0, None
    try:
        state = json.loads(snapshot_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        report.add(FATAL, f"snapshot is not valid JSON: {exc}", snapshot_path)
        return 0, None
    version = state.get("version")
    if version not in _SUPPORTED_SNAPSHOT_VERSIONS:
        report.add(FATAL, f"unsupported snapshot version {version!r}", snapshot_path)
        return 0, None
    try:
        index_declarations(state)
    except StorageError as exc:
        report.add(FATAL, str(exc), snapshot_path)
    if version == _SNAPSHOT_VERSION:
        pages_name = _check_paged_snapshot(report, snapshot_path, state, tracker)
        return int(state.get("wal_seal", 0)), pages_name
    records = state.get("records")
    if not isinstance(records, list):
        report.add(FATAL, "snapshot has no records array", snapshot_path)
        return 0, None
    report.snapshot_records = len(records)
    if version >= 2:
        if state.get("record_count") != len(records):
            report.add(
                FATAL,
                f"snapshot manifest says {state.get('record_count')} records, "
                f"found {len(records)}",
                snapshot_path,
            )
        expected = state.get("checksum")
        actual = records_checksum(records)
        if expected != actual:
            report.add(
                FATAL,
                f"snapshot checksum mismatch: manifest {expected}, content {actual}",
                snapshot_path,
            )
    else:
        report.add(INFO, "version-1 snapshot (no manifest; count/checksum unchecked)")
    return int(state.get("wal_seal", 0)), None


def _check_paged_snapshot(
    report: FsckReport,
    snapshot_path: Path,
    state: dict[str, Any],
    tracker: _progress.ProgressTracker,
) -> str | None:
    """Deep-verify the pages file a v3 manifest references.

    Walks every reachable page through the pager (CRC-checked reads, key
    order, uniform depth, leaf chain, overflow chains, no free list) and
    compares the meta page's entry count / data CRC against the
    manifest.  Returns the referenced pages-file name when the manifest
    at least names one, so stray detection knows what to keep.
    """
    pages_name = state.get("pages")
    if not isinstance(pages_name, str) or not pages_name or "/" in pages_name:
        report.add(
            FATAL,
            f"paged snapshot has a bad pages reference: {pages_name!r}",
            snapshot_path,
        )
        return None
    record_count = state.get("record_count")
    if isinstance(record_count, int):
        report.snapshot_records = record_count
    pages_path = snapshot_path.parent / pages_name
    if not pages_path.exists():
        report.add(
            FATAL,
            f"paged snapshot references missing pages file {pages_name}",
            pages_path,
        )
        return pages_name
    tree: PagedBTree | None = None
    try:
        tree = PagedBTree(pages_path, pool_pages=64)
        stats = tree.verify(on_page=tracker.tick)
    except PageCorruptionError as exc:
        report.add(FATAL, f"page-level corruption in pages file: {exc}", pages_path)
        return pages_name
    except (StorageError, OSError) as exc:
        report.add(FATAL, f"unreadable pages file: {exc}", pages_path)
        return pages_name
    finally:
        if tree is not None:
            tree.abandon()
    damaged = False
    if stats["entries"] != record_count:
        damaged = True
        report.add(
            FATAL,
            f"paged snapshot manifest says {record_count} records, "
            f"pages file holds {stats['entries']}",
            pages_path,
        )
    try:
        expected_crc = int(str(state.get("checksum", "")), 16)
    except ValueError:
        expected_crc = -1
    if stats["data_crc"] != expected_crc:
        damaged = True
        report.add(
            FATAL,
            f"pages checksum mismatch: manifest {state.get('checksum')!r}, "
            f"pages file {stats['data_crc']:08x}",
            pages_path,
        )
    if not damaged:
        report.add(
            INFO,
            f"pages file verified: {stats['pages']} pages, "
            f"{stats['entries']} entries, depth {stats['depth']}",
            pages_path,
        )
    return pages_name


def _check_stray_pages(
    report: FsckReport, directory: Path, pages_name: str | None, repair: bool
) -> None:
    """Flag ``store.pages.*`` files the manifest does not reference.

    A crash between publishing a pages file and publishing the manifest
    (or during the tmp build, or before the post-checkpoint sweep of
    superseded files) leaves extras behind.  They are never read by
    recovery, so deleting them is always safe.
    """
    for path in sorted(directory.glob("store.pages.*")):
        if pages_name is not None and path.name == pages_name:
            continue
        kind = (
            "temp pages file"
            if path.name.endswith(".tmp")
            else "unreferenced pages file"
        )
        if repair:
            path.unlink()
            report.add(REPAIRED, f"removed stray {kind} (crash artifact)", path)
        else:
            report.add(REPAIRABLE, f"stray {kind} (crash artifact)", path)


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
        if repair:
            path.unlink()
            report.add(
                REPAIRED,
                f"removed stale segment {seal:06d} (covered by snapshot, "
                "left by a crash mid-checkpoint)",
                path,
            )
        else:
            report.add(
                REPAIRABLE, f"stale segment {seal:06d} (covered by snapshot)", path
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
