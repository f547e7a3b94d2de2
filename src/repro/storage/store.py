"""The embedded record store.

A :class:`RecordStore` owns one table of schema-validated ``dict`` records,
durably backed (when given a directory) by a paged checkpoint plus a
write-ahead log:

* every mutation first lands in the WAL, then in memory — crash recovery is
  "open the checkpoint, replay surviving WAL segments in order";
* :meth:`RecordStore.checkpoint` writes the full state as a B+ tree pages
  file plus a small v3 manifest (``snapshot.json``), each verified by
  read-back before its atomic rename, records which WAL segments it
  covers, and deletes them — bounding WAL disk usage
  (:meth:`RecordStore.snapshot` is a compatibility alias);
* secondary indexes (ordered or hash, see :mod:`repro.storage.hashindex`)
  are maintained eagerly on every write once built, and can be declared
  over scalar fields or string-list fields (each list element is indexed).

The store is single-writer by design; concurrency control is out of scope
for the artifact being reproduced.

Durability contract: *records* are durable from the moment their WAL append
returns; *index declarations* become durable at the next
:meth:`RecordStore.checkpoint` (they are schema-level metadata, cheap to
re-declare, and keeping them out of the WAL keeps every log entry a pure
data operation).

Crash safety is testable, not asserted: all durability-relevant file I/O
routes through a :mod:`repro.storage.faultfs` facade, ``tests/crash/``
drives a failpoint × operation crash matrix through it, and
:mod:`repro.storage.fsck` (CLI: ``repro fsck``) verifies a store
directory offline — CRCs, segment chains, snapshot manifests — and can
repair recoverable tail damage.  The on-disk format and the recovery
procedure are specified in ``docs/storage_format.md``.

Every write takes one path, validate → prepare → log → apply (see
``RecordStore._write``): a single-record write, a ``put_many`` batch, a
mixed ``apply_batch``, a transaction's commit and recovery's replay of the
WAL alike.  Prepare takes the last change per key, probes each key once,
and checks every new ordered-index key before the WAL is touched; apply
writes the records and index entries with the probes carried in.
:meth:`RecordStore.put_many` group-commits its batch to the WAL (one
buffered write, one fsync when syncing).

Observability: reads and writes report to the default metrics registry
(``storage.store.get.count``, ``storage.store.put.count``,
``storage.store.delete.count``, ``storage.store.scan.count`` /
``storage.store.scan.records``, ``storage.store.find_by.count``,
``storage.store.range_by.count``); bulk writes additionally report
``storage.store.put_many.count`` / ``storage.store.put_many.records``.
Checkpoints report ``storage.checkpoint.count`` /
``storage.checkpoint.segments_removed`` /
``storage.checkpoint.bytes_reclaimed`` and land their latency in
``storage.checkpoint.seconds``; open-time recovery reports
``storage.recovery.count`` / ``storage.recovery.segments_replayed`` /
``storage.recovery.entries_replayed`` /
``storage.recovery.torn_bytes_dropped`` /
``storage.recovery.stale_segments_skipped`` and times itself in
``storage.recovery.seconds``.  WAL-level metrics (append count/bytes,
flush latency, group commits, rotations) are reported by
:mod:`repro.storage.wal` itself.  See ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import json
import re
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import (
    DuplicateKeyError,
    RecordNotFoundError,
    StorageError,
    ValidationError,
)
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.obs import workload as _workload
from repro.storage import faultfs as _faultfs
from repro.storage.bufferpool import DEFAULT_POOL_PAGES
from repro.storage.hashindex import HashIndex, OrderedIndex
from repro.storage.paged_btree import PagedBTree
from repro.storage.paged_store import (
    PagedRecordMap,
    StreamingChecksum,
    encode_record,
)
from repro.storage.schema import FieldType, Schema
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.storage.wal import WriteAheadLog

#: The manifest version every checkpoint writes: instead of an inline
#: ``records`` array it references a ``store.pages.NNNNNN`` B+ tree file
#: holding the records, so recovery opens read-through instead of
#: loading everything.  Legacy snapshots still open, once: version 2
#: (records inline, with the ``wal_seal`` / ``record_count`` /
#: ``checksum`` manifest fields) and version 1 (no manifest) load in
#: full, and the next checkpoint upgrades the directory to version 3.
_SNAPSHOT_VERSION = 3
_SUPPORTED_SNAPSHOT_VERSIONS = (1, 2, 3)

_GET_COUNT = _metrics.counter("storage.store.get.count")
_PUT_COUNT = _metrics.counter("storage.store.put.count")
_DELETE_COUNT = _metrics.counter("storage.store.delete.count")
_SCAN_COUNT = _metrics.counter("storage.store.scan.count")
_SCAN_RECORDS = _metrics.counter("storage.store.scan.records")
_FIND_BY_COUNT = _metrics.counter("storage.store.find_by.count")
_RANGE_BY_COUNT = _metrics.counter("storage.store.range_by.count")
_PUT_MANY_COUNT = _metrics.counter("storage.store.put_many.count")
_PUT_MANY_RECORDS = _metrics.counter("storage.store.put_many.records")
_CHECKPOINT_COUNT = _metrics.counter("storage.checkpoint.count")
_CHECKPOINT_SEGMENTS_REMOVED = _metrics.counter("storage.checkpoint.segments_removed")
_CHECKPOINT_BYTES_RECLAIMED = _metrics.counter("storage.checkpoint.bytes_reclaimed")
_RECOVERY_COUNT = _metrics.counter("storage.recovery.count")
_RECOVERY_SEGMENTS = _metrics.counter("storage.recovery.segments_replayed")
_RECOVERY_ENTRIES = _metrics.counter("storage.recovery.entries_replayed")
_RECOVERY_TORN_BYTES = _metrics.counter("storage.recovery.torn_bytes_dropped")
_RECOVERY_STALE_SEGMENTS = _metrics.counter("storage.recovery.stale_segments_skipped")

#: Key-usage histograms (repro top / workload-report skew data).  Handle
#: cached at import time like the metric series above; every recording
#: call starts with the table's own enabled-flag check.
_KEY_USAGE = _workload.get_default_key_usage()
# Pre-bound for the two hottest probe sites (find_by / range_by): one
# global load per probe instead of a global load plus a method bind.
_KU_RECORD = _KEY_USAGE.record


def _range_label(low: Any, high: Any) -> str:
    """One histogram key naming a range probe's bounds, not its keys.

    A range scan touching thousands of keys records a single
    ``[low..high]`` descriptor — per-key counting on ranges would turn a
    cheap index walk into a per-row accounting loop.  Exact per-key
    distributions come from equality probes and from the offline
    ``repro workload-report`` pass.
    """
    lo = "-inf" if low is None else low
    hi = "+inf" if high is None else high
    return f"[{lo}..{hi}]"


# Bulk operations pause the cyclic garbage collector: a 100k-record batch
# allocates that many long-lived dicts, and the generational collector
# otherwise rescans the growing survivor set several times mid-batch —
# measured at ~15-20% of put_many wall time at 100k records with zero
# garbage found (the store holds references to everything allocated).
# The pause nests (sharded stores commit several shard batches at once,
# possibly from worker threads) via a depth counter under a lock, and the
# collector is re-enabled only by the outermost exit — and only if it was
# enabled when the outermost pause began.
_GC_PAUSE_LOCK = threading.Lock()
_GC_PAUSE_DEPTH = 0
_GC_PAUSE_REENABLE = False


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    global _GC_PAUSE_DEPTH, _GC_PAUSE_REENABLE
    with _GC_PAUSE_LOCK:
        _GC_PAUSE_DEPTH += 1
        if _GC_PAUSE_DEPTH == 1:
            _GC_PAUSE_REENABLE = gc.isenabled()
            if _GC_PAUSE_REENABLE:
                gc.disable()
    try:
        yield
    finally:
        with _GC_PAUSE_LOCK:
            _GC_PAUSE_DEPTH -= 1
            if _GC_PAUSE_DEPTH == 0 and _GC_PAUSE_REENABLE:
                gc.enable()


def records_checksum(records: Sequence[Mapping[str, Any]]) -> str:
    """CRC-32 (hex) over the canonical JSON of ``records``.

    Canonical = sorted keys, compact separators, no ASCII escaping — the
    same bytes whoever computes it, so a legacy v2 snapshot's
    ``checksum``, the streaming CRC a paged checkpoint stamps
    (:class:`~repro.storage.paged_store.StreamingChecksum`), and
    ``repro fsck`` all agree.
    """
    canonical = json.dumps(
        list(records), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return f"{zlib.crc32(canonical) & 0xFFFFFFFF:08x}"


class IndexKind(enum.Enum):
    """Secondary index kinds available to :meth:`create_index`.

    ``BTREE`` (persisted as ``"btree"``) is an :class:`OrderedIndex`, which
    serves ranges; ``HASH`` is a :class:`HashIndex`, point lookups only.
    """

    BTREE = "btree"
    HASH = "hash"


#: Separator joining the field names of a composite index into its name.
COMPOSITE_SEPARATOR = "+"


class _TailType:
    """Sentinel comparing greater than every ordinary value.

    Used to build upper bounds over composite-key tuples without knowing
    the component types: ``(95, 600, _TAIL)`` sits just above every real
    ``(95, 600, …)`` key.
    """

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return self is other

    def __gt__(self, other: object) -> bool:
        return self is not other

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<tail>"


_TAIL = _TailType()


@dataclass
class _SecondaryIndex:
    field: str  #: single field name, or "a+b+…" for composites
    kind: IndexKind
    #: ``None`` means declared-but-not-built: recovery registers index
    #: declarations without scanning the data (that would defeat the
    #: O(1) paged open); the first read through any index builds every
    #: unbuilt one (see ``RecordStore._ensure_index_built``).
    structure: HashIndex | None
    fields: tuple[str, ...] = ()  #: non-empty only for composites

    @property
    def supports_range(self) -> bool:
        # Decided by kind, not by isinstance: a lazy index has no
        # structure yet but its range capability is already known.
        return self.kind is IndexKind.BTREE

    @property
    def is_composite(self) -> bool:
        return len(self.fields) > 1


def _index_keys(record: Mapping[str, Any], field: str) -> list[Any]:
    """Index keys contributed by ``record`` for ``field``.

    Scalars contribute themselves; string lists contribute each element;
    missing/None contributes nothing.
    """
    value = record.get(field)
    if value is None:
        return []
    if isinstance(value, list):
        return list(value)
    return [value]


def _composite_keys(record: Mapping[str, Any], fields: tuple[str, ...]) -> list[tuple]:
    """The (single) tuple key ``record`` contributes to a composite index.

    A record missing any component contributes nothing; list fields are
    rejected at index-creation time so each record yields at most one key.
    """
    values = []
    for field in fields:
        value = record.get(field)
        if value is None:
            return []
        values.append(value)
    return [tuple(values)]


def _keys_for(record: Mapping[str, Any], index: _SecondaryIndex) -> list[Any]:
    if index.is_composite:
        return _composite_keys(record, index.fields)
    return _index_keys(record, index.field)


def _incomparable(exc: TypeError) -> StorageError:
    return StorageError(f"ordered index keys must be mutually comparable: {exc}")


class _MemoryRecords(dict):
    """The records of a store with no paged checkpoint: a dict in
    insertion order, with the write-path methods of
    :class:`~repro.storage.paged_store.PagedRecordMap`."""

    probe = dict.get

    @staticmethod
    def record(found: dict[str, Any]) -> dict[str, Any]:
        return found

    def write(
        self, changes: Mapping[Any, dict[str, Any] | None], found: Mapping[Any, Any]
    ) -> None:
        # A replaced record moves to the end, as a delete and a put would.
        for key, record in changes.items():
            if found[key] is not None:
                del self[key]
            if record is not None:
                self[key] = record


def _check_data_format(data_format: str) -> None:
    """Accept the retired ``data_format`` keyword only as ``"paged"``."""
    if data_format != "paged":
        raise StorageError(
            f"data_format={data_format!r} is not supported: checkpoints always "
            "write the paged v3 format; a directory holding a v2 snapshot "
            "opens as-is and is upgraded by its next checkpoint "
            "(`repro checkpoint DIR`)"
        )


def index_declarations(state: Mapping[str, Any]) -> list[dict[str, Any]]:
    """A snapshot's ``indexes`` list, checked entry by entry.

    Each entry is ``{"field": name, "kind": "btree" | "hash"}`` or, for a
    composite, ``{"fields": [name, name, ...], "kind": "btree"}``.
    Anything else raises :class:`~repro.errors.StorageError`, so a
    malformed declaration is a damaged snapshot — to recovery (either
    version branch) and to ``repro fsck`` alike.
    """
    indexes = state.get("indexes", [])
    if not isinstance(indexes, list):
        raise StorageError(
            f"snapshot indexes must be a list, not {type(indexes).__name__}"
        )
    kinds = {kind.value for kind in IndexKind}
    for entry in indexes:
        if not isinstance(entry, dict):
            valid = False
        elif set(entry) == {"field", "kind"}:
            valid = isinstance(entry["field"], str) and entry["kind"] in kinds
        elif set(entry) == {"fields", "kind"}:
            fields = entry["fields"]
            valid = (
                isinstance(fields, list)
                and len(fields) >= 2
                and all(isinstance(field, str) for field in fields)
                and entry["kind"] == IndexKind.BTREE.value
            )
        else:
            valid = False
        if not valid:
            raise StorageError(f"malformed index declaration {entry!r} in snapshot")
    return indexes


def publish_manifest(
    path: Path,
    *,
    pages: str,
    wal_seal: int,
    record_count: int,
    checksum: str,
    indexes: list[dict[str, Any]],
    fs: _faultfs.FileSystem = _faultfs.REAL_FS,
    retry: RetryPolicy | None = None,
) -> None:
    """Build, write, verify and atomically publish a v3 manifest at ``path``.

    The one writer of ``snapshot.json``, shared by
    :meth:`RecordStore.checkpoint` and fsck's rollback repair.  The
    document goes to a temp file, is fsynced, and is **read back**: the
    parse must equal the whole document, because a flip in any field
    can lose data — a ``wal_seal`` one too high makes recovery skip a
    committed segment.  Only then does an atomic rename publish it,
    followed by a directory fsync so the rename itself survives a crash.
    """
    state = {
        "version": _SNAPSHOT_VERSION,
        "format": "paged",
        "pages": pages,
        "wal_seal": wal_seal,
        "record_count": record_count,
        "checksum": checksum,
        "indexes": indexes,
    }
    if retry is None:
        retry = RetryPolicy(budget=RetryBudget())
    payload = json.dumps(state, ensure_ascii=False).encode("utf-8")
    tmp = path.with_suffix(".json.tmp")
    try:
        fh = fs.open(tmp, "wb")
        try:
            retry.call(lambda: fh.write(payload), describe="checkpoint.write")
            retry.call(lambda: fs.fsync(fh), describe="checkpoint.fsync")
        finally:
            fh.close()
        try:
            written = json.loads(tmp.read_bytes().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"checkpoint verification failed: {exc}") from exc
        if written != state:
            raise StorageError(
                "checkpoint verification failed: the manifest read back "
                "differs from the one written"
            )
        retry.call(lambda: fs.replace(tmp, path), describe="checkpoint.replace")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fs.fsync_dir(path.parent)


#: A store directory holds the active write-ahead log (sealed segments
#: append ``.NNNNNN``), the snapshot manifest, and the pages files that
#: checkpoints publish (``store.pages.NNNNNN``, built as ``….tmp``).
WAL_NAME = "store.wal"
SNAPSHOT_NAME = "snapshot.json"
_PAGES_PREFIX = "store.pages."


def pages_name(seal: int) -> str:
    """Pages file published by the checkpoint covering WAL seal ``seal``.

    Versioned by seal (like WAL segments) so a crash mid-checkpoint can
    never leave the manifest pointing at a half-rewritten file: a new
    checkpoint always publishes a *new* name, the manifest flips
    atomically, and superseded files are removed last (a crash before
    that leaves fsck-repairable strays).
    """
    return f"{_PAGES_PREFIX}{seal:06d}"


def pages_files(directory: Path) -> list[Path]:
    """Every ``store.pages.*`` file in ``directory``, ``.tmp`` builds
    included, sorted by name."""
    return sorted(directory.glob(_PAGES_PREFIX + "*"))


_CRC_RE = re.compile("[0-9a-f]{8}")


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


@dataclass(frozen=True)
class Manifest:
    """A snapshot manifest whose fields passed :func:`read_manifest`."""

    path: Path
    version: int
    wal_seal: int
    indexes: list[dict[str, Any]]
    record_count: int
    #: Version 3: the referenced pages file and the CRC of its records.
    pages: str | None = None
    checksum: int = 0
    #: Versions 1 and 2: the records, inline.
    records: list[dict[str, Any]] | None = None

    def open_pages(
        self,
        *,
        fs: _faultfs.FileSystem | None = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        shard: int | None = None,
    ) -> PagedBTree:
        """Open the referenced pages file and check its meta page against
        the manifest's record count and CRC.

        Only the meta page is read, so a paged open stays O(1); the deep
        page walk is fsck's (:meth:`PagedBTree.verify`).
        """
        assert self.pages is not None
        path = self.path.parent / self.pages
        if not path.exists():
            raise StorageError(
                f"paged snapshot references missing pages file {self.pages}"
            )
        tree = PagedBTree(path, fs=fs, pool_pages=pool_pages, shard=shard)
        if tree.entry_count == self.record_count and tree.data_crc == self.checksum:
            return tree
        tree.close()
        raise StorageError(
            "paged snapshot manifest disagrees with its pages file: manifest "
            f"{self.record_count} records (crc {self.checksum:08x}), pages file "
            f"{tree.entry_count} (crc {tree.data_crc:08x})"
        )


def read_manifest(directory: Path) -> Manifest | None:
    """Read and check ``directory``'s snapshot manifest (``None`` if absent).

    The one reader of ``snapshot.json``: recovery and ``repro fsck``
    both go through it, so they agree on what a damaged manifest is.
    The rules are listed in ``docs/storage_format.md`` (Manifest rules);
    :meth:`Manifest.open_pages` checks a version-3 manifest against its
    pages file.  Any failure raises :class:`~repro.errors.StorageError`.
    """
    path = directory / SNAPSHOT_NAME
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        state = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise StorageError(
            f"snapshot is a JSON {type(state).__name__}, not an object"
        )
    version = state.get("version")
    if type(version) is not int or version not in _SUPPORTED_SNAPSHOT_VERSIONS:
        raise StorageError(f"unsupported snapshot version {version!r}")
    wal_seal = state.get("wal_seal", 0)
    if not _is_count(wal_seal):
        raise StorageError(f"snapshot wal_seal {wal_seal!r} is not a segment number")
    indexes = index_declarations(state)
    record_count = state.get("record_count")
    checksum = state.get("checksum")
    if version == _SNAPSHOT_VERSION:
        pages = state.get("pages")
        if not isinstance(pages, str) or not pages or "/" in pages:
            raise StorageError(f"paged snapshot has a bad pages reference: {pages!r}")
        if not _is_count(record_count):
            raise StorageError(f"snapshot record_count {record_count!r} is not a count")
        if not isinstance(checksum, str) or not _CRC_RE.fullmatch(checksum):
            raise StorageError(f"snapshot checksum {checksum!r} is not a hex CRC-32")
        return Manifest(
            path, version, wal_seal, indexes, record_count,
            pages=pages, checksum=int(checksum, 16),
        )
    records = state.get("records")
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise StorageError("snapshot has no records array")
    if version == 2:
        if record_count != len(records):
            raise StorageError(
                f"snapshot manifest says {record_count} records, found {len(records)}"
            )
        actual = records_checksum(records)
        if checksum != actual:
            raise StorageError(
                f"snapshot checksum mismatch: manifest {checksum}, content {actual}"
            )
    return Manifest(path, version, wal_seal, indexes, len(records), records=records)


class RecordStore:
    """One table of validated records with optional durability.

    Parameters
    ----------
    schema:
        Table schema; the primary-key field identifies records.
    directory:
        Where the checkpoint and WAL live.  ``None`` means in-memory only.
        Checkpoints write a v3 manifest referencing a
        ``store.pages.NNNNNN`` B+ tree file, opened read-through in O(1)
        with only the working set resident.  A directory holding a
        legacy v1/v2 snapshot (records inline) still opens, loading
        everything, and its next checkpoint upgrades it to v3.
    sync:
        fsync the WAL on every append (durable but slow); benchmarks
        measure both settings.
    data_format:
        Retired: only ``"paged"`` is accepted (checkpoints always write
        it); any other value raises :class:`~repro.errors.StorageError`.
    pool_pages:
        Buffer-pool capacity (in 4 KiB pages) for paged reads; bounds
        resident memory for the record data.
    shard:
        Shard ordinal when this store is one member of a
        :class:`~repro.storage.sharded.ShardedStore`; labels the paged
        B+ tree and buffer-pool metric series with ``shard=N`` so
        per-shard behaviour is separable in ``/metrics``.  ``None`` (the
        default) keeps the unlabeled process-wide series.

    >>> from repro.storage.schema import Field, FieldType, Schema
    >>> schema = Schema([Field("id", FieldType.INT), Field("t", FieldType.STRING)],
    ...                 primary_key="id")
    >>> store = RecordStore(schema)
    >>> store.insert({"id": 1, "t": "a"})
    >>> store.get(1)["t"]
    'a'
    >>> store.create_index("t", IndexKind.HASH)
    >>> [r["id"] for r in store.find_by("t", "a")]
    [1]
    """

    def __init__(
        self,
        schema: Schema,
        directory: Path | str | None = None,
        *,
        sync: bool = False,
        fs: _faultfs.FileSystem | None = None,
        retry: RetryPolicy | None = None,
        data_format: str = "paged",
        pool_pages: int = DEFAULT_POOL_PAGES,
        shard: int | None = None,
    ):
        _check_data_format(data_format)
        self.schema = schema
        self._pool_pages = pool_pages
        self._shard = shard
        #: Filesystem facade for all durability-relevant I/O; tests pass a
        #: :class:`repro.storage.faultfs.FaultFS` to inject crashes.
        self._fs = fs if fs is not None else _faultfs.REAL_FS
        #: Retry policy shared by the WAL and the snapshot writer: heals
        #: transient I/O faults, passes permanent ones through untouched.
        self._retry = retry if retry is not None else RetryPolicy(budget=RetryBudget())
        #: Primary store of records: a plain dict until the directory has
        #: a paged checkpoint (and always for in-memory stores), then a
        #: :class:`PagedRecordMap` (on-disk tree + in-memory overlay).
        #: Both expose the same reading surface and the write path's
        #: probe/record/write; the paged map iterates in primary-key order.
        self._records: _MemoryRecords | PagedRecordMap = _MemoryRecords()
        self._indexes: dict[str, _SecondaryIndex] = {}
        #: Monotone counter bumped by each key every write changes; lets
        #: derived structures (caches, search engines) detect staleness.
        self.mutation_count = 0
        #: Monotone counter bumped on index create/drop and on bulk
        #: writes (``put_many`` / ``apply_batch``).  Plan caches key on it
        #: so a schema or bulk-statistics change simply misses instead of
        #: needing explicit invalidation.  Per-record writes do not bump
        #: it: they only drift selectivity estimates, never correctness.
        self.index_epoch = 0
        self._wal: WriteAheadLog | None = None
        self._directory: Path | None = None
        #: Highest WAL segment number covered by the on-disk snapshot (0
        #: when no snapshot or a pre-segmentation one); recovery replays
        #: only segments above it.
        self._snapshot_seal = 0
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            self._recover()
            self._wal = WriteAheadLog(
                self._wal_path,
                sync=sync,
                fs=self._fs,
                seal_floor=self._snapshot_seal,
                retry=self._retry,
            )

    # -- paths -------------------------------------------------------------

    @property
    def _wal_path(self) -> Path:
        assert self._directory is not None
        return self._directory / WAL_NAME

    @property
    def is_paged(self) -> bool:
        """Whether records are currently served read-through from pages."""
        return isinstance(self._records, PagedRecordMap)

    @property
    def overlay_size(self) -> int:
        """Records buffered in memory since the last paged checkpoint
        (0 when not paged — everything is in memory anyway)."""
        if isinstance(self._records, PagedRecordMap):
            return self._records.overlay_size
        return 0

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Any) -> bool:
        return key in self._records

    def get(self, key: Any) -> dict[str, Any]:
        """Record with primary key ``key`` (a copy); raises when absent."""
        _GET_COUNT.inc()
        try:
            return dict(self._records[key])
        except KeyError:
            raise RecordNotFoundError(key) from None

    def scan(
        self, predicate: Callable[[Mapping[str, Any]], bool] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Iterate over (copies of) all records, optionally filtered.

        On a paged store the records come in primary-key order, and the
        paged base is decoded one leaf at a time, at most one leaf ahead
        of the consumer.
        """
        _SCAN_COUNT.inc()
        examined = 0
        try:
            for record in self._records.values():
                examined += 1
                if predicate is None or predicate(record):
                    yield dict(record)
        finally:
            # One bulk increment per scan (not per record) keeps the hot
            # loop free of metric calls even on abandoned iterations.
            _SCAN_RECORDS.inc(examined)

    def keys(self) -> Iterator[Any]:
        """All primary keys in insertion order."""
        return iter(self._records)

    # -- mutations -------------------------------------------------------------

    def insert(self, record: Mapping[str, Any]) -> None:
        """Insert a new record; raises :class:`DuplicateKeyError` if present."""
        record = dict(record)
        self.schema.validate(record)
        key = self.schema.primary_key_of(record)
        found = {key: self._records.probe(key)}
        if found[key] is not None:
            raise DuplicateKeyError(key)
        self._write({key: record}, found, {"op": "put", "record": record})
        _PUT_COUNT.inc()

    def upsert(self, record: Mapping[str, Any]) -> bool:
        """Insert or replace; returns True when a record was replaced."""
        record = dict(record)
        self.schema.validate(record)
        key = self.schema.primary_key_of(record)
        found = {key: self._records.probe(key)}
        self._write({key: record}, found, {"op": "put", "record": record})
        _PUT_COUNT.inc()
        return found[key] is not None

    def update(self, key: Any, changes: Mapping[str, Any]) -> dict[str, Any]:
        """Apply field changes to an existing record; returns the new record."""
        _GET_COUNT.inc()  # the record is read, as get() reads it
        found = {key: self._records.probe(key)}
        if found[key] is None:
            raise RecordNotFoundError(key)
        old = self._records.record(found[key])
        current = dict(old)
        current.update(changes)
        self.schema.validate(current)
        if self.schema.primary_key_of(current) != key:
            raise ValidationError("update must not change the primary key")
        self._write(
            {key: current}, found, {"op": "put", "record": current}, olds={key: old}
        )
        _PUT_COUNT.inc()
        return dict(current)

    def delete(self, key: Any) -> None:
        """Delete by primary key; raises when absent."""
        found = {key: self._records.probe(key)}
        if found[key] is None:
            raise RecordNotFoundError(key)
        self._write({key: None}, found, {"op": "del", "key": key})
        _DELETE_COUNT.inc()

    def put_many(
        self,
        records: Iterable[Mapping[str, Any]],
        *,
        on_conflict: str = "error",
        _prevalidated: bool = False,
    ) -> int:
        """Bulk-write ``records``; returns how many were written.

        Every record is validated *before* anything is logged, and the
        whole batch then lands in the WAL as one group commit (one
        buffered write and, when syncing, one fsync).  The cyclic
        garbage collector is paused for the duration (see
        ``_gc_paused``): the batch allocates only long-lived objects,
        and mid-batch collections were the dominant superlinear cost at
        100k records.

        ``on_conflict`` chooses what a primary key that already exists
        (in the store or earlier in the batch) means: ``"error"`` (the
        default) raises :class:`DuplicateKeyError` before any state is
        touched — the whole batch is atomic, matching ``insert()`` — and
        ``"replace"`` upserts, matching ``upsert()`` (the last record of
        a repeated key wins).

        ``_prevalidated`` is internal (used by
        :class:`~repro.storage.sharded.ShardedStore`): the caller attests
        ``records`` is a list of schema-valid dicts whose ownership
        transfers to the store, and, under ``"error"``, that their keys
        are new; validation, the defensive copy and the probes are then
        skipped.
        """
        if on_conflict not in ("error", "replace"):
            raise StorageError(f"unknown on_conflict mode {on_conflict!r}")
        if _prevalidated:
            materialized = records if isinstance(records, list) else list(records)
        else:
            materialized = [dict(record) for record in records]
        if not materialized:
            return 0
        with _gc_paused():
            if not _prevalidated:
                self.schema.validate_many(materialized)
            pk = self.schema.primary_key
            changes: dict[Any, dict[str, Any]] = {}
            for record in materialized:
                key = record[pk]
                changes.pop(key, None)  # see _fold
                changes[key] = record
            if on_conflict == "error" and _prevalidated:
                found = dict.fromkeys(changes)  # shown new by the caller
            else:
                found = self._probe(changes)
                if on_conflict == "error":
                    seen: set[Any] = set()
                    for key in (record[pk] for record in materialized):
                        if found[key] is not None or key in seen:
                            raise DuplicateKeyError(key)
                        seen.add(key)
            puts = ({"op": "put", "record": record} for record in materialized)
            self._write(changes, found, puts)
        _PUT_COUNT.inc(len(materialized))
        _PUT_MANY_COUNT.inc()
        _PUT_MANY_RECORDS.inc(len(materialized))
        self.index_epoch += 1
        return len(materialized)

    def apply_batch(self, operations: list[dict[str, Any]]) -> None:
        """Apply a batch of operations atomically (one WAL entry).

        Each operation is ``{"op": "put", "record": …}`` or
        ``{"op": "del", "key": …}``; the last operation on a key decides
        it, and deleting an absent key is a no-op.  Every operation is
        validated *before* the batch is logged: a bad batch aborts prior
        to its WAL append, so neither the log nor the in-memory state is
        touched (and none of the WAL metrics below move).  Once
        validation passes, the whole batch lands as a single WAL entry —
        one ``storage.wal.append.count`` increment whose framed size
        feeds ``storage.wal.append.bytes`` (and, when the log fsyncs, one
        ``storage.wal.flush.seconds`` observation).
        """
        for op in operations:
            if op.get("op") == "put":
                self.schema.validate(op["record"])
        changes: dict[Any, dict[str, Any] | None] = {}
        self._fold(operations, changes)
        found = self._probe(changes)
        self._write(changes, found, {"op": "batch", "ops": operations})
        # Bulk increments per batch (not per record) keep the apply loop
        # free of metric calls; recovery replay is likewise uncounted here
        # and shows up in storage.wal.replay.entries instead.
        _PUT_COUNT.inc(sum(1 for op in operations if op["op"] == "put"))
        _DELETE_COUNT.inc(
            sum(record is None and found[key] is not None for key, record in changes.items())
        )
        self.index_epoch += 1

    def update_where(
        self,
        predicate: Callable[[Mapping[str, Any]], bool],
        changes: Mapping[str, Any] | Callable[[Mapping[str, Any]], Mapping[str, Any]],
    ) -> int:
        """Atomically update every record matching ``predicate``.

        ``changes`` is either a field dict applied to each match or a
        callable mapping the old record to its field changes.  All updated
        records are validated *before* anything is logged, then the whole
        batch lands as one WAL entry.  The primary key cannot change.
        Returns the number of records updated.
        """
        updated: list[dict[str, Any]] = []
        for record in self._records.values():
            if not predicate(record):
                continue
            new_record = dict(record)
            delta = changes(record) if callable(changes) else changes
            new_record.update(delta)
            self.schema.validate(new_record)
            if self.schema.primary_key_of(new_record) != self.schema.primary_key_of(record):
                raise ValidationError("update_where must not change primary keys")
            updated.append(new_record)
        if updated:
            self.apply_batch([{"op": "put", "record": r} for r in updated])
        return len(updated)

    def delete_where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> int:
        """Atomically delete every record matching ``predicate``.

        Matching happens first over a stable scan, then all deletes land as
        one WAL batch; returns the number of records deleted.
        """
        keys = [
            self.schema.primary_key_of(record)
            for record in self._records.values()
            if predicate(record)
        ]
        if keys:
            self.apply_batch([{"op": "del", "key": key} for key in keys])
        return len(keys)

    def transaction(self) -> "Transaction":
        """Start a buffered transaction (see :class:`Transaction`)."""
        from repro.storage.transactions import Transaction

        return Transaction(self)

    # -- secondary indexes --------------------------------------------------------

    def create_index(self, field: str, kind: IndexKind = IndexKind.BTREE) -> None:
        """Declare a secondary index over ``field`` and build it.

        STRING_LIST fields index every element.  Re-declaring an existing
        index with the same kind is a no-op; a different kind is an error.
        """
        self.schema.field(field)  # raises on unknown field
        existing = self._indexes.get(field)
        if existing is not None:
            if existing.kind is kind:
                return
            raise StorageError(
                f"index on {field!r} already exists with kind {existing.kind.value}"
            )
        index = _SecondaryIndex(field=field, kind=kind, structure=None)
        self._build_indexes([index])
        self._indexes[field] = index
        self.index_epoch += 1

    def create_composite_index(self, fields: Sequence[str]) -> str:
        """Declare an ordered index over a tuple of scalar fields.

        Returns the index name (fields joined with ``+``), which
        :meth:`find_by_composite` / :meth:`range_by_composite` and the
        planner address it by.  List fields are rejected (a composite key
        must be single-valued per record).
        """
        if len(fields) < 2:
            raise StorageError("composite index needs at least two fields")
        for field in fields:
            declared = self.schema.field(field)  # raises on unknown
            if declared.type is FieldType.STRING_LIST:
                raise StorageError(
                    f"list field {field!r} cannot join a composite index"
                )
        name = COMPOSITE_SEPARATOR.join(fields)
        existing = self._indexes.get(name)
        if existing is not None:
            return name
        index = _SecondaryIndex(
            field=name, kind=IndexKind.BTREE, structure=None, fields=tuple(fields)
        )
        self._build_indexes([index])
        self._indexes[name] = index
        self.index_epoch += 1
        return name

    def _ensure_index_built(self, index: _SecondaryIndex) -> HashIndex:
        """Materialize lazily-declared indexes on first use.

        Recovery declares indexes without building them (building would
        scan the whole store and defeat the O(1) paged open); the first
        read through any index pays the build cost instead, for every
        unbuilt index at once, in one scan.  Writes that arrive before
        then simply skip the unbuilt indexes — the build scans the
        *current* records, so nothing is missed.
        """
        if index.structure is None:
            self._build_indexes(
                [each for each in self._indexes.values() if each.structure is None]
            )
        assert index.structure is not None
        return index.structure

    def declare_indexes(self, index_defs: Iterable[Mapping[str, Any]]) -> bool:
        """Declare, without building, each checked manifest entry (see
        :func:`index_declarations`) not declared yet; returns whether
        any was.  Recovery declares its manifest's indexes this way."""
        added = False
        for index_def in index_defs:
            fields = tuple(index_def.get("fields", ()))
            name = COMPOSITE_SEPARATOR.join(fields) if fields else index_def["field"]
            if name not in self._indexes:
                self._indexes[name] = _SecondaryIndex(
                    field=name,
                    kind=IndexKind(index_def["kind"]),
                    structure=None,
                    fields=fields,
                )
                added = True
        if added:
            self.index_epoch += 1
        return added

    def _build_indexes(self, indexes: Sequence[_SecondaryIndex]) -> None:
        """Fill every index in ``indexes`` in one pass over the records.

        Each record is read (on a paged store, decoded) once however many
        indexes are built.  Each key collects its primary keys in one
        bucket, and :meth:`HashIndex.from_buckets` takes the buckets over;
        an ordered index sorts its keys and each key's primary keys.  The
        keys of an ordered index must be mutually comparable: mixed-type
        keys raise :class:`~repro.errors.StorageError` and leave every
        index in ``indexes`` unbuilt.
        """
        targets: list[tuple[_SecondaryIndex, dict[Any, list[Any]]]] = [
            (index, {}) for index in indexes
        ]
        for primary_key, record in self._records.items():
            for index, found in targets:
                for index_key in _keys_for(record, index):
                    bucket = found.get(index_key)
                    if bucket is None:
                        found[index_key] = [primary_key]
                    else:
                        bucket.append(primary_key)
        try:
            structures = [
                (OrderedIndex if index.supports_range else HashIndex)
                .from_buckets(found)
                for index, found in targets
            ]
        except TypeError as exc:
            raise _incomparable(exc) from exc
        for index, structure in zip(indexes, structures):
            index.structure = structure

    def composite_indexes(self) -> tuple[tuple[str, ...], ...]:
        """Field tuples of all declared composite indexes."""
        return tuple(
            index.fields for index in self._indexes.values() if index.is_composite
        )

    def find_by_composite(
        self, fields: Sequence[str], values: Sequence[Any]
    ) -> list[dict[str, Any]]:
        """Records whose ``fields`` equal ``values`` (via the composite index)."""
        index = self._require_composite(fields)
        if len(values) != len(fields):
            raise StorageError("values must match the composite's fields")
        structure = self._ensure_index_built(index)
        out = [dict(self._records[pk]) for pk in structure.search(tuple(values))]
        _KEY_USAGE.record(
            COMPOSITE_SEPARATOR.join(fields), tuple(values), len(out)
        )
        return out

    def range_by_composite(
        self,
        fields: Sequence[str],
        prefix: Sequence[Any],
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[dict[str, Any]]:
        """Prefix-equality + range scan over a composite index.

        ``prefix`` fixes the leading fields; ``low``/``high`` bound the
        next field.  ``range_by_composite(("volume","page"), (95,), 600)``
        returns volume-95 records from page 600 up, in (volume, page)
        order.
        """
        index = self._require_composite(fields)
        if len(prefix) >= len(fields):
            raise StorageError("prefix must leave at least one free field")
        prefix_tuple = tuple(prefix)
        # Bound the tuple space: fixed prefix, then the range component,
        # then open tails.  _Tail sorts above every value, closing the
        # upper bound without knowing the component type.
        low_key: Any = (
            prefix_tuple + (low,) if low is not None else prefix_tuple
        )
        if high is not None:
            high_key: Any = prefix_tuple + (high, _TAIL)
            include_high_effective = True  # _TAIL absorbs inclusivity below
        else:
            high_key = prefix_tuple + (_TAIL,)
            include_high_effective = True
        structure = self._ensure_index_built(index)
        assert isinstance(structure, OrderedIndex)
        out = []
        for key_tuple, pk in structure.range(
            low_key, high_key, include_low=True, include_high=include_high_effective
        ):
            if key_tuple[: len(prefix_tuple)] != prefix_tuple:
                continue
            component = key_tuple[len(prefix_tuple)]
            if low is not None and (
                component < low or (component == low and not include_low)
            ):
                continue
            if high is not None and (
                component > high or (component == high and not include_high)
            ):
                continue
            out.append(dict(self._records[pk]))
        _KEY_USAGE.record(
            COMPOSITE_SEPARATOR.join(fields),
            f"{prefix_tuple}{_range_label(low, high)}",
            rows=len(out),
        )
        return out

    def _require_composite(self, fields: Sequence[str]) -> _SecondaryIndex:
        name = COMPOSITE_SEPARATOR.join(fields)
        index = self._indexes.get(name)
        if index is None or not index.is_composite:
            raise StorageError(f"no composite index on {tuple(fields)!r}")
        return index

    def drop_index(self, field: str) -> None:
        """Remove the index on ``field`` (error when absent)."""
        if field not in self._indexes:
            raise StorageError(f"no index on field {field!r}")
        del self._indexes[field]
        self.index_epoch += 1

    def has_index(self, field: str) -> bool:
        return field in self._indexes

    def index_kind(self, field: str) -> IndexKind | None:
        index = self._indexes.get(field)
        return index.kind if index else None

    @property
    def indexed_fields(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    def index_statistics(self, field: str) -> dict[str, int] | None:
        """Cardinality statistics of the index on ``field`` (or ``None``).

        ``distinct_keys`` / ``entries`` drive the planner's selectivity
        estimate: more distinct keys ⇒ a typical equality probe returns
        fewer records.
        """
        index = self._indexes.get(field)
        if index is None:
            return None
        structure = self._ensure_index_built(index)
        return {
            "distinct_keys": structure.distinct_keys,
            "entries": len(structure),
        }

    # -- index-backed reads -----------------------------------------------------

    def find_by(self, field: str, value: Any) -> list[dict[str, Any]]:
        """All records whose ``field`` equals (or contains) ``value``.

        Uses the secondary index when one exists, otherwise scans.
        """
        _FIND_BY_COUNT.inc()
        index = self._indexes.get(field)
        if index is not None:
            structure = self._ensure_index_built(index)
            # A list field may contain the value twice; keep first hits only.
            seen: set[Any] = set()
            out = []
            for pk in structure.search(value):
                if pk not in seen:
                    seen.add(pk)
                    out.append(dict(self._records[pk]))
            _KU_RECORD(field, value, len(out))
            return out
        return [r for r in self.scan(lambda rec: value in _index_keys(rec, field))]

    def range_by(
        self,
        field: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[dict[str, Any]]:
        """Records with ``field`` in the given range, in field order
        (all of :meth:`iter_range`, without its keys)."""
        return [
            record
            for _, record in self.iter_range(
                field, low, high, include_low=include_low, include_high=include_high
            )
        ]

    def iter_range(
        self,
        field: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, dict[str, Any]]]:
        """``(key, record)`` for every index key of ``field`` in the range.

        Pairs come in ``(key, primary key)`` order.  A list field yields
        a record once per element in range.  With an ordered index the
        scan is lazy: each record is copied only when the consumer pulls
        it, so a consumer that stops early (``LIMIT``) reads no further,
        and the key-usage table records the rows actually pulled.
        Without one, the store is scanned and sorted up front.
        """
        _RANGE_BY_COUNT.inc()
        index = self._indexes.get(field)
        if index is not None and index.supports_range:
            structure = self._ensure_index_built(index)
            assert isinstance(structure, OrderedIndex)
            records = self._records
            pulled = 0
            try:
                for key, pk in structure.range(
                    low, high, include_low=include_low, include_high=include_high
                ):
                    pulled += 1
                    yield key, dict(records[pk])
            finally:
                _KU_RECORD(field, _range_label(low, high), pulled)
            return

        def in_range(value: Any) -> bool:
            if low is not None and (value < low or (value == low and not include_low)):
                return False
            if high is not None and (value > high or (value == high and not include_high)):
                return False
            return True

        hits = [
            (key_value, dict(record))
            for record in self._records.values()
            for key_value in _index_keys(record, field)
            if in_range(key_value)
        ]
        primary_key_of = self.schema.primary_key_of
        hits.sort(key=lambda pair: (pair[0], primary_key_of(pair[1])))
        yield from hits

    # -- the write path --------------------------------------------------------------

    def _fold(self, operations: Iterable[Mapping[str, Any]], changes: dict) -> None:
        """Fold ``put``/``del`` operations into ``changes``, the last
        change per key (a copy of its record, or ``None``), placed where
        applying them one by one would place it: replay keeps the order."""
        primary_key_of = self.schema.primary_key_of
        for op in operations:
            kind = op.get("op")
            if kind == "put":
                record = dict(op["record"])
                key = primary_key_of(record)
            elif kind == "del":
                key, record = op["key"], None
            else:
                raise StorageError(f"unknown batch op {kind!r}")
            changes.pop(key, None)
            changes[key] = record

    def _probe(self, keys: Iterable[Any]) -> dict[Any, Any]:
        """What the records hold under each key (``None`` when absent):
        one probe per key, at most one descent of the on-disk tree."""
        probe = self._records.probe
        return {key: probe(key) for key in keys}

    def _write(
        self,
        changes: Mapping[Any, dict[str, Any] | None],
        found: Mapping[Any, Any],
        log: dict[str, Any] | Iterable[dict[str, Any]] | None,
        *,
        olds: Mapping[Any, dict[str, Any]] | None = None,
    ) -> None:
        """Prepare, log and apply one write: ``changes`` maps each key to
        its new record (``None`` deletes), ``found`` is its
        :meth:`_probe` result, ``olds`` old records already decoded.

        Prepare decodes an old record only when a built index needs its
        keys, lists each index's entries out (the old record's) and in
        (the new one's), and places each ordered index's new keys, which
        raises :class:`~repro.errors.StorageError` for a key it cannot
        order.  Then ``log`` is written (one WAL entry, several
        group-committed, or ``None`` on replay), and apply writes the
        records with the probes carried in and the index entries.
        """
        plans = []
        for index in self._indexes.values():
            structure = index.structure
            if structure is None:
                continue  # lazy: the eventual build scans current state
            # Plain loops: a comprehension's own frame would cost a
            # one-record write more than the loop does.
            if olds is None:
                olds = {}
                for key, old in found.items():
                    if old is not None:
                        olds[key] = self._records.record(old)
            added = []
            for key, record in changes.items():
                if record is not None:
                    for index_key in _keys_for(record, index):
                        added.append((index_key, key))
            removed = []
            for key, old in olds.items():
                for index_key in _keys_for(old, index):
                    removed.append((index_key, key))
            try:
                placed = structure.place(added)
            except TypeError as exc:
                raise _incomparable(exc) from exc
            plans.append((structure, added, removed, placed))
        if self._wal is not None and log is not None:
            if isinstance(log, dict):
                self._wal.append(log)
            else:
                self._wal.append_many(log)
        self._records.write(changes, found)
        self.mutation_count += len(changes)
        # Inserts go first, into the key lists prepare placed them in.
        for structure, added, removed, placed in plans:
            if added:
                structure.insert_many(added, placed)
            if removed:
                structure.remove_many(removed)

    # -- durability ---------------------------------------------------------------

    def declared_indexes(self) -> list[dict[str, Any]]:
        """The index declarations, as a manifest records them."""
        index_defs: list[dict[str, Any]] = []
        for idx in self._indexes.values():
            if idx.is_composite:
                index_defs.append({"fields": list(idx.fields), "kind": idx.kind.value})
            else:
                index_defs.append({"field": idx.field, "kind": idx.kind.value})
        return index_defs

    @_metrics.get_default_registry().timed("storage.checkpoint.seconds")
    def checkpoint(
        self,
        *,
        progress: Callable[[_progress.ProgressTracker], None] | None = None,
    ) -> None:
        """Publish the full state as a paged checkpoint and reclaim the WAL
        segments it covers.

        Five crash-ordered steps:

        1. **Rotate** the WAL, so everything the checkpoint will cover is
           immutable; the covered seal names the pages file.
        2. **Build** ``store.pages.NNNNNN.tmp`` by streaming the records
           in pk order through :meth:`PagedBTree.bulk_build` (unmodified
           base records pass through as stored bytes), computing the
           records CRC on the way; each page is written once, the meta
           page last; fsync; then **verify by re-opening** read-only —
           every page CRC-checked, entry count and data CRC compared.
        3. **Publish the pages file** (atomic rename to its final name +
           directory fsync).  A crash here leaves an unreferenced pages
           file: a stray, repairable by ``repro fsck``.
        4. **Publish the manifest** — :func:`publish_manifest` writes the
           v3 ``snapshot.json`` (pages file name, covered ``wal_seal``,
           record count, records CRC, index declarations) to a temp
           file, verifies the whole document by read-back, renames it
           and fsyncs the directory.  This rename is the commit point.
        5. **Reclaim**: covered WAL segments, then superseded
           ``store.pages.*`` files.  A crash before this leaves *stale*
           files: recovery skips them (``repro fsck`` removes them).

        A crash at any point recovers to the full pre-checkpoint state —
        the crash matrix in ``tests/crash/`` drives every step.
        Afterwards the store serves read-through from the new pages file
        with an empty overlay; a store opened from a legacy v1/v2
        snapshot is upgraded to v3 this way.
        """
        if self._directory is None:
            raise StorageError("in-memory store cannot checkpoint")
        assert self._wal is not None
        attrs = {} if self._shard is None else {"shard": self._shard}
        # The build allocates on the order of the store size with nothing
        # to collect; mid-checkpoint collections would only rescan it.
        with _gc_paused(), _progress.start(
            "storage.checkpoint", total=len(self._records), **attrs
        ) as tracker:
            if progress is not None:
                tracker.subscribe(progress)
            self._checkpoint_locked(tracker, attrs)

    def _checkpoint_locked(
        self, tracker: _progress.ProgressTracker, attrs: dict[str, Any]
    ) -> None:
        """Checkpoint body (steps 1–5 above); runs with the GC paused.
        ``attrs`` label its log line (the shard, under a sharded store)."""
        assert self._wal is not None
        assert self._directory is not None
        self._wal.rotate()
        covered = self._wal.highest_seal
        published = pages_name(covered)
        pages_path = self._directory / published
        tmp_pages = self._directory / (published + ".tmp")
        tmp_pages.unlink(missing_ok=True)
        checksum = StreamingChecksum()
        if isinstance(self._records, PagedRecordMap):
            source: Iterator[tuple[Any, bytes]] = self._records.sorted_encoded_items()
        else:
            source = (
                (key, encode_record(record))
                for key, record in sorted(
                    self._records.items(), key=lambda item: item[0]
                )
            )

        def stream() -> Iterator[tuple[Any, bytes]]:
            # Tick the progress tracker in blocks: per-record lock
            # traffic on a 100k-record build would be pure overhead.
            pending = 0
            for key, raw in source:
                checksum.add(raw)
                pending += 1
                if pending >= 1024:
                    tracker.tick(pending)
                    pending = 0
                yield key, raw
            if pending:
                tracker.tick(pending)

        tree: PagedBTree | None = None
        try:
            tree = PagedBTree.bulk_build(
                tmp_pages, stream(), fs=self._fs, shard=self._shard
            )
            record_count = tree.entry_count
            tree.set_data_crc(checksum.value())
            self._retry.call(tree.flush, describe="checkpoint.pages.flush")
            tree.close()
            tree = None
            self._verify_pages_file(tmp_pages, record_count, checksum.value())
            self._retry.call(
                lambda: self._fs.replace(tmp_pages, pages_path),
                describe="checkpoint.pages.replace",
            )
        except BaseException:
            if tree is not None:
                tree.abandon()
            tmp_pages.unlink(missing_ok=True)
            raise
        self._fs.fsync_dir(self._directory)
        publish_manifest(
            self._directory / SNAPSHOT_NAME,
            pages=published,
            wal_seal=covered,
            record_count=record_count,
            checksum=checksum.hexdigest(),
            indexes=self.declared_indexes(),
            fs=self._fs,
            retry=self._retry,
        )
        removed = 0
        reclaimed = 0
        for seal, sealed in self._wal.sealed_segments():
            if seal <= covered:
                reclaimed += sealed.stat().st_size
                self._fs.remove(sealed)
                removed += 1
        if isinstance(self._records, PagedRecordMap):
            self._records.close()
        self._remove_pages_files(keep=published)
        if removed:
            self._fs.fsync_dir(self._directory)
        self._records = PagedRecordMap(
            PagedBTree(
                pages_path,
                fs=self._fs,
                pool_pages=self._pool_pages,
                shard=self._shard,
            )
        )
        self._snapshot_seal = covered
        _CHECKPOINT_COUNT.inc()
        _CHECKPOINT_SEGMENTS_REMOVED.inc(removed)
        _CHECKPOINT_BYTES_RECLAIMED.inc(reclaimed)
        _logging.info(
            "storage.checkpoint",
            wal_seal=covered,
            records=record_count,
            pages=published,
            segments_removed=removed,
            bytes_reclaimed=reclaimed,
            **attrs,
        )

    def _verify_pages_file(self, path: Path, count: int, data_crc: int) -> None:
        """Deep read-back verification of a just-built pages file.

        Every reachable page is re-read and CRC-checked and the tree
        structure validated, because the checkpoint is about to delete
        the WAL segments that could rebuild this data.  Any failure,
        the meta page's included, raises one plain
        :class:`StorageError`: the damage is in a file nothing reads
        yet, so it must not pass for corruption of the store.
        """
        try:
            with PagedBTree(path, fs=self._fs, pool_pages=64) as verify_tree:
                stats = verify_tree.verify()
        except StorageError as exc:
            raise StorageError(f"paged checkpoint verification failed: {exc}") from exc
        if stats["entries"] != count or stats["data_crc"] != data_crc:
            raise StorageError(
                "paged checkpoint verification failed: pages file holds "
                f"{stats['entries']} entries (crc {stats['data_crc']:08x}), "
                f"expected {count} (crc {data_crc:08x})"
            )

    def _remove_pages_files(self, keep: str) -> None:
        """Delete ``store.pages.*`` files except ``keep`` (and any tmps)."""
        assert self._directory is not None
        removed = False
        for path in pages_files(self._directory):
            if path.name == keep:
                continue
            self._fs.remove(path)
            removed = True
        if removed:
            self._fs.fsync_dir(self._directory)

    def snapshot(self) -> None:
        """Compatibility alias for :meth:`checkpoint`."""
        self.checkpoint()

    @property
    def wal_size_bytes(self) -> int:
        """Total on-disk WAL footprint (active file plus sealed segments);
        0 for an in-memory store."""
        if self._wal is None:
            return 0
        return self._wal.total_size_bytes

    def maybe_checkpoint(self, wal_bytes: int) -> bool:
        """Checkpoint iff the WAL footprint is at least ``wal_bytes``.

        The building block of a WAL-disk-bounding ingest loop: callers
        stream batches and call this after each one, paying the
        O(store size) snapshot cost only when the log has actually grown
        past the bound.  Returns True when a checkpoint ran.
        """
        if wal_bytes <= 0:
            raise StorageError(f"wal_bytes bound must be positive, got {wal_bytes}")
        if self._wal is None or self.wal_size_bytes < wal_bytes:
            return False
        self.checkpoint()
        return True

    @_metrics.get_default_registry().timed("storage.recovery.seconds")
    def _recover(self) -> None:
        """Rebuild in-memory state: snapshot, then surviving WAL segments.

        Strict by design — a damaged manifest raises
        :class:`~repro.errors.StorageError` (see :func:`read_manifest`)
        and mid-chain damage raises :class:`~repro.errors.CorruptLogError`
        rather than silently dropping acknowledged data; ``repro fsck``
        is the explicit tool for diagnosing and repairing a damaged
        directory.
        """
        _RECOVERY_COUNT.inc()
        assert self._directory is not None
        manifest = read_manifest(self._directory)
        if manifest is not None:
            if manifest.records is None:
                # Read-through: only the tree's meta page is read, and
                # records stay on disk until touched.
                self._records = PagedRecordMap(
                    manifest.open_pages(
                        fs=self._fs, pool_pages=self._pool_pages, shard=self._shard
                    )
                )
            else:
                # Legacy v1/v2 snapshot: records inline, loaded in full
                # this once — the next checkpoint upgrades it to v3.
                for record in manifest.records:
                    self.schema.validate(record)
                    self._records[self.schema.primary_key_of(record)] = dict(record)
            # Indexes, in either version, are declared but not built;
            # see _ensure_index_built.
            self.declare_indexes(manifest.indexes)
            self._snapshot_seal = manifest.wal_seal
        chain = WriteAheadLog.scan_chain(self._wal_path, min_seal=self._snapshot_seal)
        # The surviving chain folds into one change per key, applied once
        # through the write path, without logging.
        changes: dict[Any, dict[str, Any] | None] = {}
        entries = 0
        for scan in chain.segments:
            entries += len(scan.entries)
            _RECOVERY_TORN_BYTES.inc(scan.torn_bytes)
            for entry in scan.entries:
                payload = entry.payload
                batch = payload.get("op") == "batch"
                self._fold(payload["ops"] if batch else (payload,), changes)
        if changes:
            self._write(changes, self._probe(changes), None)
        _RECOVERY_SEGMENTS.inc(len(chain.segments))
        _RECOVERY_ENTRIES.inc(entries)
        _RECOVERY_STALE_SEGMENTS.inc(len(chain.stale))
        _logging.info(
            "storage.recovery",
            records=len(self._records),
            segments_replayed=len(chain.segments),
            entries_replayed=entries,
            stale_segments=len(chain.stale),
            snapshot_seal=self._snapshot_seal,
        )

    def close(self) -> None:
        """Release the WAL and pages file handles (safe to call twice).

        Overlay records NOT yet checkpointed are still durable — they
        live in the WAL and replay on the next open.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if isinstance(self._records, PagedRecordMap):
            self._records.close()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
