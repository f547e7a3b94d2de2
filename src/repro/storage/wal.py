"""Append-only, CRC-framed, segmented write-ahead log.

On-disk format (version 1), one entry per line::

    W1 <crc32-hex-8> <length> <payload-json>\\n

``crc32`` covers the UTF-8 payload bytes; ``length`` is the payload byte
count.  Both are checked on replay.  A damaged or truncated *final* entry in
the *last* segment is treated as a torn write and dropped (normal crash
behaviour); damage anywhere else raises
:class:`~repro.errors.CorruptLogError` because it means silent data loss.

Segmentation: the log is a **chain** of files sharing a base path.  Writes
always go to the *active* file (the base path itself, e.g. ``store.wal``);
:meth:`WriteAheadLog.rotate` seals the active file under the next segment
number (``store.wal.000001``, ``store.wal.000002``, …) and starts a fresh
active file.  Sealed segments are immutable and fully fsynced; replay walks
sealed segments in number order, then the active file.  Segment numbers are
never reused — :class:`~repro.storage.store.RecordStore.checkpoint` records
the highest sealed number its snapshot covers (``wal_seal``) and deletes the
covered segments, bounding WAL disk usage; recovery skips any *stale*
segment at or below that number (a crash artifact of checkpointing, cleaned
by ``repro fsck``).  A log that is never rotated is a single plain file —
the pre-segmentation layout — so old directories replay unchanged.

The log stores opaque JSON payloads — the store layer defines the operation
vocabulary (``put``/``delete``/``batch``).  ``fsync`` policy is the caller's
choice per append; benchmarks (E7) measure the difference.  All
durability-relevant I/O (open/fsync/rename/unlink) routes through a
:class:`~repro.storage.faultfs.FileSystem` facade so crash tests can inject
faults at named points (see :mod:`repro.storage.faultfs`).

Observability: appends report ``storage.wal.append.count`` /
``storage.wal.append.bytes`` (batched locally and flushed to the registry
every ``_METRIC_BATCH`` appends and on sync/rotate/truncate/close, so a
live log lags by at most that many buffered appends); synced appends
additionally bump ``storage.wal.fsync.count`` and land their flush+fsync
latency in the ``storage.wal.flush.seconds`` histogram (buffered flushes
are not timed — they cost nanoseconds and timing them would dominate the
hot path); group commits via :meth:`WriteAheadLog.append_many` additionally
report ``storage.wal.batch.count`` / ``storage.wal.batch.entries``;
rotations bump ``storage.wal.rotate.count``; replay reports
``storage.wal.replay.entries``.  Full catalogue in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from repro.errors import CorruptLogError
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.resilience.retry import RetryPolicy
from repro.storage import faultfs as _faultfs

_MAGIC = "W1"

#: Sealed segments append ``.NNNNNN`` (6 digits, 1-based) to the base name.
_SEAL_SUFFIX_RE = re.compile(r"\A\.(\d{6})\Z")

_APPEND_COUNT = _metrics.counter("storage.wal.append.count")
_APPEND_BYTES = _metrics.counter("storage.wal.append.bytes")
_FLUSH_SECONDS = _metrics.histogram("storage.wal.flush.seconds")
_FSYNC_COUNT = _metrics.counter("storage.wal.fsync.count")
_BATCH_COUNT = _metrics.counter("storage.wal.batch.count")
_BATCH_ENTRIES = _metrics.counter("storage.wal.batch.entries")
_ROTATE_COUNT = _metrics.counter("storage.wal.rotate.count")
_REPLAY_ENTRIES = _metrics.counter("storage.wal.replay.entries")


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One replayed log entry with its byte offset (for diagnostics)."""

    offset: int
    payload: dict[str, Any]


@dataclass(slots=True)
class SegmentScan:
    """Integrity scan of one log file (used by replay and ``fsck``).

    ``entries`` is the longest valid prefix; ``valid_bytes`` is the file
    offset just past it (a repair truncates here).  ``torn_bytes`` counts
    trailing bytes of a torn final line (no newline — the normal crash
    artifact); ``error`` is set instead when damage is *not* a torn tail
    (a corrupt newline-terminated entry: acknowledged data was lost).
    """

    path: Path
    seal: int | None  #: segment number, or ``None`` for the active file
    entries: list[LogEntry] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0
    error: CorruptLogError | None = None

    @property
    def clean(self) -> bool:
        return self.torn_bytes == 0 and self.error is None


@dataclass(slots=True)
class ChainScan:
    """Scan of a whole segment chain in replay order.

    ``segments`` are the replayable files (sealed above ``min_seal``, in
    number order, then the active file); ``stale`` are sealed segments at
    or below ``min_seal`` — already covered by a snapshot, skipped.
    """

    segments: list[SegmentScan]
    stale: list[Path]

    def entries(self) -> list[LogEntry]:
        return [entry for scan in self.segments for entry in scan.entries]


def sealed_segment_paths(base: Path | str) -> list[tuple[int, Path]]:
    """``(number, path)`` of every sealed segment of ``base``, ascending."""
    base = Path(base)
    out = []
    if base.parent.is_dir():
        for path in base.parent.iterdir():
            name = path.name
            if not name.startswith(base.name):
                continue
            match = _SEAL_SUFFIX_RE.match(name[len(base.name):])
            if match:
                out.append((int(match.group(1)), path))
    out.sort()
    return out


#: Group-commit write coalescing: buffered frames are flushed to one
#: ``write`` call at this size, bounding both syscall count and the
#: transient buffer a huge batch would otherwise accumulate.
_WRITE_CHUNK_BYTES = 1 << 20


def _frame(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = f"{_MAGIC} {crc:08x} {len(body)} ".encode("ascii")
    return header + body + b"\n"


class WriteAheadLog:
    """Append-only segmented log based at ``path``.

    ``path`` is the **active** file; sealed segments live beside it (see
    the module docstring).  The active file handle stays open for the
    life of the object; call :meth:`close` (or use as a context manager)
    to release it.  ``seal_floor`` is the lowest segment number already
    covered by a snapshot — rotation numbering continues above it even
    when the covered segments have been deleted, so numbers never repeat.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     wal = WriteAheadLog(pathlib.Path(d) / "t.wal")
    ...     _ = wal.append({"op": "put", "key": 1})
    ...     _ = wal.rotate()                      # seals t.wal.000001
    ...     _ = wal.append({"op": "del", "key": 1})
    ...     wal.close()
    ...     [e.payload["op"] for e in WriteAheadLog.replay_path(pathlib.Path(d) / "t.wal")]
    ['put', 'del']
    """

    #: Flush locally-batched append count/bytes to the registry at this
    #: many appends; also flushed on sync, rotate, truncate, and close, so
    #: the registry lags a live log by at most this many buffered appends.
    _METRIC_BATCH = 64

    def __init__(
        self,
        path: Path | str,
        *,
        sync: bool = False,
        fs: _faultfs.FileSystem | None = None,
        seal_floor: int = 0,
        retry: "RetryPolicy | None" = None,
    ):
        self.path = Path(path)
        self.sync = sync
        self._fs = fs if fs is not None else _faultfs.REAL_FS
        # Durability syscalls (write/fsync/rename) ride through a retry
        # policy that re-issues transient failures (EINTR/EAGAIN or an
        # injected TransientInjectedFault) and passes everything else —
        # including the crash-test InjectedFault — straight through.
        self._retry = retry if retry is not None else RetryPolicy()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = sealed_segment_paths(self.path)
        self._next_seal = max([seal_floor] + [n for n, _ in existing]) + 1
        # Physically drop a torn final line before appending: a new frame
        # written after torn bytes would share their line and turn a benign
        # crash artifact into mid-log corruption on the next replay.
        _drop_torn_tail(self.path)
        self._fh: BinaryIO | None = self._fs.open(self.path, "ab")
        self.entries_written = 0
        self._unreported_count = 0
        self._unreported_bytes = 0

    # -- writing ----------------------------------------------------------

    def append(self, payload: dict[str, Any], *, sync: bool | None = None) -> int:
        """Append one entry; returns the byte offset it was written at.

        ``sync`` overrides the instance-wide fsync policy for this append.
        """
        fh = self._require_open()
        offset = fh.tell()
        frame = _frame(payload)
        self._retry.call(lambda: fh.write(frame), describe="wal.append.write")
        self.entries_written += 1
        self._unreported_count += 1
        self._unreported_bytes += len(frame)
        if self.sync if sync is None else sync:
            start = time.perf_counter()
            self._retry.call(lambda: self._fs.fsync(fh), describe="wal.append.fsync")
            _FLUSH_SECONDS.observe(time.perf_counter() - start)
            _FSYNC_COUNT.inc()
            self._report_appends()
        else:
            fh.flush()
            if self._unreported_count >= self._METRIC_BATCH:
                self._report_appends()
        return offset

    def append_many(
        self, payloads: Iterable[dict[str, Any]], *, sync: bool | None = None
    ) -> int:
        """Group-commit several entries; returns how many were written.

        All frames share one buffered write path and — when syncing — one
        fsync for the whole batch, instead of one flush(+fsync) per entry.
        ``sync`` overrides the instance-wide fsync policy for this batch.
        """
        fh = self._require_open()
        do_sync = self.sync if sync is None else sync
        start = time.perf_counter() if do_sync else 0.0
        total_bytes = 0
        written = 0
        # Frames are coalesced into chunked writes: one write syscall (and
        # one retry-policy trip) per ~1 MiB instead of per entry.  Frame
        # boundaries are preserved — a torn tail still tears on a frame or
        # mid-frame line exactly as before, which recovery already handles.
        buffered: list[bytes] = []
        buffered_bytes = 0

        def flush_buffered() -> None:
            nonlocal buffered_bytes
            if not buffered:
                return
            chunk = b"".join(buffered)
            buffered.clear()
            buffered_bytes = 0
            self._retry.call(lambda: fh.write(chunk), describe="wal.batch.write")

        for payload in payloads:
            frame = _frame(payload)
            total_bytes += len(frame)
            buffered.append(frame)
            buffered_bytes += len(frame)
            written += 1
            if buffered_bytes >= _WRITE_CHUNK_BYTES:
                flush_buffered()
        flush_buffered()
        if written == 0:
            return 0
        if do_sync:
            self._retry.call(lambda: self._fs.fsync(fh), describe="wal.batch.fsync")
            _FLUSH_SECONDS.observe(time.perf_counter() - start)
            _FSYNC_COUNT.inc()
        else:
            fh.flush()
        _BATCH_COUNT.inc()
        _BATCH_ENTRIES.inc(written)
        self.entries_written += written
        self._unreported_count += written
        self._unreported_bytes += total_bytes
        self._report_appends()
        return written

    def _report_appends(self) -> None:
        if self._unreported_count:
            _APPEND_COUNT.inc(self._unreported_count)
            _APPEND_BYTES.inc(self._unreported_bytes)
            self._unreported_count = 0
            self._unreported_bytes = 0

    # -- segments ----------------------------------------------------------

    def rotate(self) -> int | None:
        """Seal the active file as the next numbered segment; start fresh.

        The active file is fsynced, renamed to ``<base>.<NNNNNN>``, the
        directory entry is fsynced, and a new empty active file opens.
        Returns the sealed segment's number, or ``None`` when the active
        file was empty (an empty rotation creates no segment).
        """
        fh = self._require_open()
        self._report_appends()
        fh.flush()
        sealed_bytes = os.fstat(fh.fileno()).st_size
        if sealed_bytes == 0:
            return None
        self._retry.call(lambda: self._fs.fsync(fh), describe="wal.rotate.fsync")
        fh.close()
        self._fh = None
        seal = self._next_seal
        sealed_path = self.sealed_path(seal)
        self._retry.call(
            lambda: self._fs.replace(self.path, sealed_path),
            describe="wal.rotate.replace",
        )
        self._fs.fsync_dir(self.path.parent)
        self._next_seal += 1
        self._fh = self._fs.open(self.path, "ab")
        _ROTATE_COUNT.inc()
        _logging.debug(
            "storage.wal.rotate",
            seal=seal,
            segment=sealed_path.name,
            bytes=sealed_bytes,
        )
        return seal

    def sealed_path(self, seal: int) -> Path:
        """Path a segment sealed with number ``seal`` lives (or would live) at."""
        return self.path.with_name(f"{self.path.name}.{seal:06d}")

    def sealed_segments(self) -> list[tuple[int, Path]]:
        """``(number, path)`` of the sealed segments present on disk."""
        return sealed_segment_paths(self.path)

    @property
    def highest_seal(self) -> int:
        """The highest segment number sealed (or reserved) so far."""
        return self._next_seal - 1

    def truncate(self) -> None:
        """Erase the whole log: every sealed segment and the active file."""
        fh = self._require_open()
        fh.seek(0)
        fh.truncate()
        self._retry.call(lambda: self._fs.fsync(fh), describe="wal.truncate.fsync")
        removed = False
        for _, sealed in self.sealed_segments():
            self._fs.remove(sealed)
            removed = True
        if removed:
            self._fs.fsync_dir(self.path.parent)
        self._report_appends()

    def close(self) -> None:
        if self._fh is not None:
            self._report_appends()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> BinaryIO:
        if self._fh is None:
            raise CorruptLogError("log is closed")
        return self._fh

    @property
    def size_bytes(self) -> int:
        """Current size of the active file in bytes."""
        return self.path.stat().st_size if self.path.exists() else 0

    @property
    def total_size_bytes(self) -> int:
        """Size of the whole chain: sealed segments plus the active file."""
        return self.size_bytes + sum(
            p.stat().st_size for _, p in self.sealed_segments()
        )

    # -- replay -----------------------------------------------------------

    @classmethod
    def scan_file(cls, path: Path | str, *, strict: bool = True) -> SegmentScan:
        """Integrity-scan one log file.

        With ``strict`` (the default), damage that is not a torn tail
        raises :class:`CorruptLogError`; lenient mode records it on the
        returned :class:`SegmentScan` instead (``fsck`` uses this to keep
        walking and report everything it finds).
        """
        path = Path(path)
        scan = SegmentScan(path=path, seal=_seal_of(path))
        if not path.exists():
            return scan
        with open(path, "rb") as fh:
            raw = fh.read()
        for offset, line, is_torn_candidate in _lines_with_offsets(raw):
            if is_torn_candidate:
                # An entry is only valid once newline-terminated: the
                # frame (including its newline) is one write, so a missing
                # terminator means the write — hence the acknowledgement —
                # never completed.  Always torn, even if it parses.
                scan.torn_bytes = len(raw) - offset
                break
            try:
                scan.entries.append(
                    LogEntry(offset=offset, payload=_parse_line(line, offset))
                )
            except CorruptLogError as exc:
                if strict:
                    raise
                scan.error = exc
                break
            scan.valid_bytes = offset + len(line) + 1
        return scan

    @classmethod
    def scan_chain(
        cls, path: Path | str, *, min_seal: int = 0, strict: bool = True
    ) -> ChainScan:
        """Scan the whole chain based at ``path`` in replay order.

        Sealed segments numbered at or below ``min_seal`` are *stale*
        (covered by a snapshot) and skipped.  With ``strict``, a gap in
        segment numbering or tail damage anywhere but the final file of
        the chain raises :class:`CorruptLogError` — sealed segments are
        fsynced before sealing, so mid-chain damage means acknowledged
        data was lost.
        """
        path = Path(path)
        stale: list[Path] = []
        live: list[tuple[int, Path]] = []
        for seal, sealed in sealed_segment_paths(path):
            (stale.append(sealed) if seal <= min_seal else live.append((seal, sealed)))
        if strict:
            expected = None
            for seal, sealed in live:
                if expected is not None and seal != expected:
                    raise CorruptLogError(
                        f"missing WAL segment {expected:06d} before {sealed.name}"
                    )
                expected = seal + 1
        scans = [cls.scan_file(p, strict=False) for _, p in live]
        if path.exists():
            scans.append(cls.scan_file(path, strict=False))
        if strict and scans:
            for scan in scans[:-1]:
                if not scan.clean:
                    raise CorruptLogError(
                        f"damage in sealed WAL segment {scan.path.name}: "
                        "torn or corrupt data before the final segment",
                        offset=scan.valid_bytes,
                    )
            # In the final file only a torn tail is a legal crash artifact;
            # a corrupt newline-terminated entry means acknowledged loss.
            if scans[-1].error is not None:
                raise scans[-1].error
        return ChainScan(segments=scans, stale=stale)

    @classmethod
    def replay_path(cls, path: Path | str) -> list[LogEntry]:
        """Replay the whole chain based at ``path`` into a list of entries.

        A torn final entry in the last file is dropped silently; earlier
        damage raises :class:`CorruptLogError` with the offending byte
        offset.  A never-rotated log is a chain of one file.
        """
        entries = cls.scan_chain(path).entries()
        _REPLAY_ENTRIES.inc(len(entries))
        return entries

    def replay(self) -> list[LogEntry]:
        """Replay this log's chain (flushing buffered writes first)."""
        if self._fh is not None:
            self._fh.flush()
        return self.replay_path(self.path)


def _drop_torn_tail(path: Path) -> int:
    """Truncate an unterminated final line off ``path``; returns bytes cut.

    A no-op for missing, empty, or newline-terminated files.  Scans
    backwards in chunks so large logs do not have to be read whole.
    """
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return 0
    if size == 0:
        return 0
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return 0
        pos = size
        last_newline = -1
        while pos > 0 and last_newline < 0:
            step = min(4096, pos)
            pos -= step
            fh.seek(pos)
            last_newline_here = fh.read(step).rfind(b"\n")
            if last_newline_here >= 0:
                last_newline = pos + last_newline_here
        keep = last_newline + 1
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())
    return size - keep


def _seal_of(path: Path) -> int | None:
    match = _SEAL_SUFFIX_RE.match(path.suffix)
    return int(match.group(1)) if match else None


def _lines_with_offsets(raw: bytes) -> Iterator[tuple[int, bytes, bool]]:
    """Yield ``(offset, line, is_torn_candidate)`` for each log line.

    Only a final line with no trailing newline can be a torn write; every
    newline-terminated line was fully written and must validate.
    """
    offset = 0
    chunks = raw.split(b"\n")
    ends_with_newline = raw.endswith(b"\n")
    for i, chunk in enumerate(chunks):
        if chunk:
            is_torn_candidate = (i == len(chunks) - 1) and not ends_with_newline
            yield offset, chunk, is_torn_candidate
        offset += len(chunk) + 1


def _parse_line(line: bytes, offset: int) -> dict[str, Any]:
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != _MAGIC.encode("ascii"):
        raise CorruptLogError("bad frame header", offset=offset)
    crc_hex, length_txt, body = parts[1], parts[2], parts[3]
    try:
        expected_crc = int(crc_hex, 16)
        expected_len = int(length_txt)
    except ValueError:
        raise CorruptLogError("unparseable frame header", offset=offset) from None
    if len(body) != expected_len:
        raise CorruptLogError(
            f"length mismatch: header says {expected_len}, body is {len(body)}",
            offset=offset,
        )
    if zlib.crc32(body) & 0xFFFFFFFF != expected_crc:
        raise CorruptLogError("CRC mismatch", offset=offset)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptLogError(f"bad JSON payload: {exc}", offset=offset) from exc
    if not isinstance(payload, dict):
        raise CorruptLogError("payload is not an object", offset=offset)
    return payload
