"""Fault-injecting filesystem shim for crash-safety testing.

The storage layer never calls :func:`open`, :func:`os.fsync`, or
:func:`os.replace` directly; it routes every durability-relevant file
operation through a tiny filesystem facade (:class:`FileSystem`).  The
default :data:`REAL_FS` passes straight through to the OS.  Tests swap in
a :class:`FaultFS`, arm one of seven **named failpoints**, and drive the
store into precisely-placed crashes:

``fail_before_fsync``
    The next matching fsync discards everything written since the last
    successful fsync (the file is truncated back to its synced size) and
    raises :class:`InjectedFault`.  Models the worst-case page-cache loss
    of a power failure before the commit point.
``partial_write``
    The next matching write persists only its first ``keep_bytes`` bytes,
    then raises.  Models a torn write cut short at the head.
``torn_tail``
    The next matching write persists everything but its last
    ``drop_bytes`` bytes, then raises.  Models a torn write cut short at
    the tail.
``fail_after_rename``
    The next matching :meth:`FileSystem.replace` performs the rename and
    *then* raises.  Models a crash between an atomic publish and its
    follow-up cleanup (e.g. after a snapshot rename, before sealed WAL
    segments are deleted).
``bit_flip``
    The next matching write silently flips one bit of its payload and
    succeeds.  Models silent media corruption — nothing fails until a
    CRC check (recovery or ``repro fsck``) catches it.
``torn_page_write``
    The next matching write persists only its first ``keep_bytes`` bytes
    (default: half), then raises.  Mechanically ``partial_write``, but a
    separate name so the paged-storage crash matrix can tear a 4 KiB
    page write without also arming faults on WAL/snapshot paths — the
    per-page CRC must catch the torn half on next read.
``fail_after_page_flush``
    The next matching fsync *succeeds* and then raises.  Models a crash
    after page data reached stable storage but before the step that
    makes it reachable (e.g. between flushing a new pages file and
    publishing the snapshot manifest that references it).

Failpoints are armed per :class:`FaultFS` instance (nothing global), fire
a bounded number of times (default once), optionally skip their first
``skip`` matching events, and optionally filter on a path substring so a
fault can target the WAL but not the snapshot::

    fs = FaultFS()
    fs.arm("partial_write", path=".wal", keep_bytes=10)
    store = RecordStore(schema, directory, sync=True, fs=fs)
    with pytest.raises(InjectedFault):
        store.insert(record)          # the frame is torn mid-write
    assert fs.fired("partial_write") == 1

Every failpoint also has a **transient** mode (``arm(..., transient=True)``)
for exercising the retry path rather than the crash path: instead of its
destructive behaviour, the failpoint raises a clean
:class:`TransientInjectedFault` (``errno == EAGAIN``, ``transient = True``)
*before* any side effect — no bytes reach the file, nothing is truncated,
nothing is renamed — then fires again until its ``times`` are spent, after
which the operation succeeds.  Because the failure is side-effect free,
simply re-issuing the same call is always safe, which is exactly the
contract :class:`~repro.resilience.retry.RetryPolicy` relies on.  Models
an ``EINTR``/``EAGAIN``-style hiccup (briefly unreachable NFS server,
interrupted syscall) rather than a crash.

The shim is pure overhead-free plumbing in production: ``RecordStore``
and ``WriteAheadLog`` default to :data:`REAL_FS`, whose methods are thin
wrappers over the stdlib.
"""

from __future__ import annotations

import errno as _errno
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.obs import metrics as _metrics

#: Every failpoint name :meth:`FaultFS.arm` accepts.
FAILPOINTS = (
    "fail_before_fsync",
    "partial_write",
    "torn_tail",
    "fail_after_rename",
    "bit_flip",
    "torn_page_write",
    "fail_after_page_flush",
)

#: Failpoints that intercept :meth:`FaultFile.write`.
_WRITE_FAILPOINTS = ("partial_write", "torn_tail", "bit_flip", "torn_page_write")


class InjectedFault(OSError):
    """Raised when an armed failpoint fires.

    Subclasses :class:`OSError` so callers that survive real I/O errors
    survive injected ones the same way; carries the failpoint ``name``
    and the ``path`` it fired on for test assertions.
    """

    def __init__(self, name: str, path: Path | str):
        super().__init__(f"injected fault {name!r} at {path}")
        self.name = name
        self.path = Path(path)


class TransientInjectedFault(InjectedFault):
    """An injected fault that is safe — and expected — to retry.

    Raised by failpoints armed with ``transient=True``: the operation
    failed *before* any side effect, so re-issuing it is harmless.
    Carries ``errno == EAGAIN`` and ``transient = True`` so both halves
    of :func:`~repro.resilience.retry.is_transient` classify it as
    retryable.
    """

    transient = True

    def __init__(self, name: str, path: Path | str):
        super().__init__(name, path)
        self.errno = _errno.EAGAIN


class FileSystem:
    """Pass-through filesystem facade; the storage layer's only I/O door.

    Methods mirror the exact operations the WAL / snapshot paths need;
    anything not listed here (reads, stat, glob) is not durability
    relevant and uses the stdlib directly.
    """

    def open(self, path: Path | str, mode: str = "ab") -> BinaryIO:
        """Open ``path`` in a binary mode: ``"ab"``, ``"wb"``, ``"w+b"``
        for a page file's build, or ``"rb"`` for its readers."""
        if "b" not in mode:
            raise ValueError(f"FileSystem.open is binary-only, got mode {mode!r}")
        return open(path, mode)

    def fsync(self, fh: Any) -> None:
        """Flush ``fh`` and fsync it to stable storage."""
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: Path | str, dst: Path | str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def fsync_dir(self, path: Path | str) -> None:
        """fsync a directory so renames/unlinks in it survive a crash."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def remove(self, path: Path | str) -> None:
        """Delete a file."""
        os.remove(path)


#: Shared pass-through instance; the default ``fs`` everywhere.
REAL_FS = FileSystem()


@dataclass
class _ArmedFailpoint:
    name: str
    path_filter: str | None
    skip: int  # matching events to let pass before firing
    times: int  # remaining fires
    transient: bool = False  # clean, side-effect-free, retryable failure
    params: dict[str, Any] = field(default_factory=dict)

    def matches(self, *paths: Path | str) -> bool:
        if self.times <= 0:
            return False
        if self.path_filter is None:
            return True
        return any(self.path_filter in str(p) for p in paths)


class FaultFile:
    """A binary file handle whose writes route through the fault injector.

    Supports exactly the surface the storage layer uses: ``write``,
    ``read``, ``flush``, ``seek``, ``tell``, ``truncate``, ``close``,
    ``fileno``.  Reads pass straight through — they are not durability
    relevant, but the pager needs them on the same handle it writes.
    Tracks ``synced_size`` — the file size at the last successful fsync —
    so ``fail_before_fsync`` can roll the file back to it.
    """

    def __init__(self, fs: "FaultFS", path: Path, real: BinaryIO):
        self._fs = fs
        self.path = path
        self._real = real
        self.synced_size = os.fstat(real.fileno()).st_size

    def write(self, data: bytes) -> int:
        return self._fs._write(self, data)

    def read(self, size: int = -1) -> bytes:
        return self._real.read(size)

    def flush(self) -> None:
        self._real.flush()

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._real.seek(offset, whence)

    def tell(self) -> int:
        return self._real.tell()

    def truncate(self, size: int | None = None) -> int:
        return self._real.truncate(size)

    def close(self) -> None:
        self._real.close()

    def fileno(self) -> int:
        return self._real.fileno()

    @property
    def closed(self) -> bool:
        return self._real.closed

    # Raw-handle escape hatch used by the injector itself.
    @property
    def real(self) -> BinaryIO:
        return self._real


def flip_bit(data: bytes, byte_index: int, bit: int = 0) -> bytes:
    """``data`` with one bit flipped at ``byte_index`` (clamped in range)."""
    if not data:
        return data
    i = max(0, min(byte_index, len(data) - 1))
    mutated = bytearray(data)
    mutated[i] ^= 1 << (bit & 7)
    return bytes(mutated)


def flip_bit_on_disk(path: Path | str, byte_index: int, bit: int = 0) -> None:
    """Flip one bit of the file at ``path`` in place (fsck test helper)."""
    path = Path(path)
    raw = path.read_bytes()
    path.write_bytes(flip_bit(raw, byte_index, bit))


class FaultFS(FileSystem):
    """A :class:`FileSystem` with armable, single-shot named failpoints.

    With nothing armed it behaves byte-for-byte like :data:`REAL_FS`
    (writes take one extra Python call).  Arm failpoints with
    :meth:`arm`; each fires ``times`` times (default once) after letting
    ``skip`` matching events pass, then disarms itself.  :meth:`fired`
    reports how often a failpoint has fired since construction or the
    last :meth:`reset`.
    """

    def __init__(self) -> None:
        self._armed: list[_ArmedFailpoint] = []
        self._fired: dict[str, int] = {}

    # -- arming -----------------------------------------------------------

    def arm(
        self,
        name: str,
        *,
        path: str | None = None,
        skip: int = 0,
        times: int = 1,
        transient: bool = False,
        **params: Any,
    ) -> None:
        """Arm failpoint ``name``.

        ``path`` filters by substring of the affected path(s); ``skip``
        lets that many matching events through unharmed first (e.g. to
        hit the third frame of a batch); ``times`` bounds how often it
        fires.  With ``transient=True`` the failpoint degenerates to a
        clean :class:`TransientInjectedFault` raised *before* any side
        effect — retry-safe, healed once ``times`` fires are spent.
        Extra keyword parameters configure the specific fault:
        ``keep_bytes`` (partial_write, torn_page_write), ``drop_bytes``
        (torn_tail), ``byte`` / ``bit`` (bit_flip).
        """
        if name not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint {name!r}; expected one of {FAILPOINTS}"
            )
        if skip < 0 or times < 1:
            raise ValueError("skip must be >= 0 and times >= 1")
        self._armed.append(
            _ArmedFailpoint(
                name=name,
                path_filter=path,
                skip=skip,
                times=times,
                transient=transient,
                params=params,
            )
        )

    def disarm(self, name: str) -> None:
        """Remove every armed instance of ``name`` (missing is a no-op)."""
        self._armed = [a for a in self._armed if a.name != name]

    def disarm_all(self) -> None:
        self._armed.clear()

    def fired(self, name: str) -> int:
        """How many times ``name`` has fired."""
        return self._fired.get(name, 0)

    def armed(self, name: str) -> bool:
        """Whether ``name`` still has fires remaining."""
        return any(a.name == name and a.times > 0 for a in self._armed)

    def reset(self) -> None:
        """Disarm everything and zero the fired counters."""
        self._armed.clear()
        self._fired.clear()

    def _take(self, names: tuple[str, ...] | str, *paths: Path | str):
        """First armed failpoint among ``names`` matching ``paths``, consuming
        one skip or one fire; returns the failpoint when it fires."""
        if isinstance(names, str):
            names = (names,)
        for armed in self._armed:
            if armed.name in names and armed.matches(*paths):
                if armed.skip > 0:
                    armed.skip -= 1
                    return None
                armed.times -= 1
                self._fired[armed.name] = self._fired.get(armed.name, 0) + 1
                _metrics.counter(
                    "storage.faultfs.failpoint.fired", failpoint=armed.name
                ).inc()
                return armed
        return None

    # -- faulted operations ------------------------------------------------

    def open(self, path: Path | str, mode: str = "ab") -> FaultFile:  # type: ignore[override]
        return FaultFile(self, Path(path), super().open(path, mode))

    def _write(self, fh: FaultFile, data: bytes) -> int:
        armed = self._take(_WRITE_FAILPOINTS, fh.path)
        if armed is None:
            return fh.real.write(data)
        if armed.transient:
            # Clean transient failure: no byte reached the file, so the
            # retry path can simply re-issue the identical write.
            raise TransientInjectedFault(armed.name, fh.path)
        if armed.name == "bit_flip":
            # Silent corruption: the write "succeeds", CRCs catch it later.
            mutated = flip_bit(
                data, armed.params.get("byte", len(data) // 2), armed.params.get("bit", 0)
            )
            fh.real.write(mutated)
            return len(data)
        if armed.name in ("partial_write", "torn_page_write"):
            keep = armed.params.get("keep_bytes", len(data) // 2)
            kept = data[: max(0, keep)]
        else:  # torn_tail
            drop = armed.params.get("drop_bytes", 1)
            kept = data[: max(0, len(data) - drop)]
        fh.real.write(kept)
        # Flush so the torn bytes are really on disk when the "crash"
        # (the exception below) abandons the handle.
        fh.real.flush()
        raise InjectedFault(armed.name, fh.path)

    def fsync(self, fh: Any) -> None:
        path = getattr(fh, "path", "<unknown>")
        armed = self._take("fail_before_fsync", path)
        if armed is not None:
            if armed.transient:
                # The data stays in the page cache untouched; a retried
                # fsync pushes it out as if the hiccup never happened.
                raise TransientInjectedFault("fail_before_fsync", path)
            # Worst-case crash-before-commit: everything since the last
            # successful fsync is lost from the page cache.
            fh.flush()
            synced = getattr(fh, "synced_size", None)
            if synced is not None:
                os.ftruncate(fh.fileno(), synced)
                fh.seek(synced)
            raise InjectedFault("fail_before_fsync", path)
        after = self._take("fail_after_page_flush", path)
        if after is not None and after.transient:
            # Side-effect free: fail before the fsync so a retry is safe.
            raise TransientInjectedFault("fail_after_page_flush", path)
        super().fsync(fh)
        if isinstance(fh, FaultFile):
            fh.synced_size = os.fstat(fh.fileno()).st_size
        if after is not None:
            # The data is durable; the "crash" lands after the flush.
            raise InjectedFault("fail_after_page_flush", path)

    def replace(self, src: Path | str, dst: Path | str) -> None:
        armed = self._take("fail_after_rename", src, dst)
        if armed is not None and armed.transient:
            # Transient mode fails *before* the rename (side-effect free);
            # the non-transient mode keeps its after-the-rename semantics.
            raise TransientInjectedFault("fail_after_rename", dst)
        super().replace(src, dst)
        if armed is not None:
            raise InjectedFault("fail_after_rename", dst)
