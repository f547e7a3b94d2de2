"""Hash-partitioned record store: N :class:`RecordStore` shards, one facade.

A :class:`ShardedStore` routes every record to one of ``N`` independent
shards by a salt-free CRC-32 over the canonical bytes of its primary key.
Each shard is a complete, self-contained :class:`~repro.storage.store.
RecordStore` — its own directory, WAL, snapshot/checkpoint cycle, and
fsck surface — so all of the single-store durability machinery composes
per shard unchanged.  On disk::

    root/
      shards.json     # manifest: shard count + router + persisted shard
                      # health states, written atomically
      shard-00/       # a full RecordStore directory (store.wal,
                      # snapshot.json, store.pages.NNNNNN)
      shard-01/
      ...

Why shard a single-writer embedded store?

* **Parallel durable ingest** — :meth:`ShardedStore.put_many` validates
  the batch once, partitions it by shard key, and commits the shard
  sub-batches on a thread pool (one worker per shard), overlapping WAL
  writes and fsyncs across shard directories.
* **Bounded WAL disk with small checkpoints** — a checkpoint serializes
  the *whole* store image, so its cost grows with store size; over a long
  ingest the total checkpoint bill is quadratic in the final size divided
  by the WAL bound.  Sharding divides every snapshot by N: the same
  ingest with the same per-shard WAL bound does ~N× less checkpoint work
  (see ``benchmarks/bench_shard.py``).  Pass ``checkpoint_wal_bytes`` to
  make the facade checkpoint any shard whose WAL crosses the bound after
  each bulk write, in parallel.
* **One query engine** — the facade exposes the same index metadata
  surface the query planner consumes, and
  :class:`~repro.query.executor.QueryEngine` reads the shards inline,
  chaining their streams or merging them with :func:`merge_key_ordered`.

Routing is deterministic across processes and runs (``zlib.crc32``, not
the salted builtin ``hash``), so a store written with N shards can be
reopened and every key found where it was left.  The shard count is fixed
at creation and recorded in the manifest; reopening with a different
count raises rather than silently misrouting.

Observability: bulk writes report ``storage.sharded.put_many.count`` /
``storage.sharded.put_many.seconds`` plus the per-shard
``storage.sharded.put_many.records{shard=…}`` counters and
``storage.sharded.records{shard=…}`` gauges (skew is visible on
``/metrics`` as divergence between shard labels); facade-driven
checkpoints report ``storage.sharded.checkpoint.count{shard=…}``.  Each
member store is opened with ``shard=i`` so its paged-tree and
buffer-pool series carry the same label.  Shard workers run each task
in a copy of the caller's context (spans nest, log lines share the
trace id, pool pages count in the caller's page scope), and bulk
writes / checkpoints register progress trackers
(``storage.sharded.put_many`` / ``storage.sharded.checkpoint``) visible
on ``/progressz``.
"""

from __future__ import annotations

import contextvars
import heapq
import json
import threading
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DuplicateKeyError, MultiShardError, StorageError
from repro.obs import logging as _logging
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.storage import faultfs as _faultfs
from repro.storage.health import ShardHealthMachine
from repro.storage.schema import Schema
from repro.storage.store import (
    IndexKind,
    RecordStore,
    _check_data_format,
    read_manifest,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.retry import RetryPolicy

__all__ = ["ShardedStore", "SHARD_MANIFEST", "merge_key_ordered", "shard_key_bytes"]

#: Manifest file marking a directory as a sharded store root.
SHARD_MANIFEST = "shards.json"

#: Manifest format version.
_MANIFEST_VERSION = 1

#: Hard cap on the shard count: beyond this the per-shard WAL/snapshot
#: overhead dwarfs any parallelism win for this store's scale.
MAX_SHARDS = 64

_PUT_MANY_COUNT = _metrics.counter("storage.sharded.put_many.count")
_PUT_MANY_SECONDS = _metrics.histogram("storage.sharded.put_many.seconds")


def shard_key_bytes(key: Any) -> bytes:
    """Canonical routing bytes of a primary key.

    Type-tagged so ``1``, ``1.0``, ``True``, and ``"1"`` never collide,
    and built from value semantics only — unlike ``hash(str)``, which is
    salted per process and would scatter a reopened store.
    """
    if isinstance(key, bool):
        return b"b:1" if key else b"b:0"
    if isinstance(key, int):
        return b"i:%d" % key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, float):
        return b"f:" + repr(key).encode("ascii")
    return b"j:" + json.dumps(key, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def shard_of(key: Any, shard_count: int) -> int:
    """The shard index ``key`` routes to (CRC-32 mod ``shard_count``)."""
    if shard_count == 1:
        return 0
    return zlib.crc32(shard_key_bytes(key)) % shard_count


def merge_key_ordered(
    streams: Sequence[Iterable[tuple[Any, dict[str, Any]]]], primary_key: str
) -> Iterator[tuple[Any, dict[str, Any]]]:
    """Lazily merge ``(key, record)`` streams that each come in
    ``(key, primary key)`` order (:meth:`RecordStore.iter_range`'s order)
    into one stream in that order."""
    return heapq.merge(*streams, key=lambda pair: (pair[0], pair[1][primary_key]))


class ShardedStore:
    """N hash-partitioned :class:`RecordStore` shards behind one facade.

    Parameters
    ----------
    schema:
        Table schema shared by every shard.
    root:
        Sharded store root directory; ``None`` keeps every shard
        in-memory (no manifest, no durability).
    shards:
        Shard count.  Required when creating a new store; optional when
        reopening (the manifest remembers it, and a mismatch raises).
    sync:
        Per-shard WAL fsync policy, as for :class:`RecordStore`.
    checkpoint_wal_bytes:
        When set, every bulk write ends by checkpointing — in parallel —
        each shard whose WAL footprint reached the bound, keeping total
        WAL disk near ``shards * checkpoint_wal_bytes`` through an
        arbitrarily long ingest.
    data_format:
        Retired, as for :class:`RecordStore`: only ``"paged"`` is
        accepted.  Every shard checkpoints in the paged v3 format.

    >>> from repro.storage.schema import Field, FieldType, Schema
    >>> schema = Schema([Field("id", FieldType.INT), Field("t", FieldType.STRING)],
    ...                 primary_key="id")
    >>> store = ShardedStore(schema, None, shards=4)
    >>> store.put_many([{"id": i, "t": f"r{i}"} for i in range(10)])
    10
    >>> len(store), store.get(3)["t"]
    (10, 'r3')
    """

    def __init__(
        self,
        schema: Schema,
        root: Path | str | None = None,
        *,
        shards: int | None = None,
        sync: bool = False,
        checkpoint_wal_bytes: int | None = None,
        fs: "_faultfs.FileSystem | None" = None,
        retry: "RetryPolicy | None" = None,
        data_format: str = "paged",
        pool_pages: int | None = None,
        health_config: Mapping[str, Any] | None = None,
    ):
        _check_data_format(data_format)
        self.schema = schema
        self.root: Path | None = Path(root) if root is not None else None
        if checkpoint_wal_bytes is not None and checkpoint_wal_bytes <= 0:
            raise StorageError(
                f"checkpoint_wal_bytes must be positive, got {checkpoint_wal_bytes}"
            )
        self.checkpoint_wal_bytes = checkpoint_wal_bytes
        self._fs = fs if fs is not None else _faultfs.REAL_FS

        health_doc: Mapping[str, Any] | None = None
        if self.root is None:
            if shards is None:
                raise StorageError("in-memory sharded store needs an explicit shards=")
            count = shards
        else:
            manifest = self.root / SHARD_MANIFEST
            if manifest.exists():
                count, health_doc = self._load_manifest(manifest, expected=shards)
            else:
                if shards is None:
                    raise StorageError(
                        f"{self.root} has no {SHARD_MANIFEST}; pass shards= to create"
                    )
                count = shards
        if not 1 <= count <= MAX_SHARDS:
            raise StorageError(
                f"shard count must be in [1, {MAX_SHARDS}], got {count}"
            )
        self.shard_count = count
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        # pool_pages passes straight through: each shard is a complete
        # RecordStore, so paged checkpoints and read-through recovery
        # compose per shard unchanged (pool memory is bounded per shard —
        # budget pool_pages accordingly at high shard counts).
        shard_kwargs: dict[str, Any] = {}
        if pool_pages is not None:
            shard_kwargs["pool_pages"] = pool_pages
        # Construction arguments are kept so a repaired shard can be
        # rebuilt in place by reopen_shard() with identical settings.
        self._shard_sync = sync
        self._shard_fs = fs
        self._shard_retry = retry
        self._shard_kwargs = shard_kwargs
        # shard=i labels each member's paged-tree/buffer-pool metric
        # series, so per-shard hit rates stay separable on /metrics.
        self.shards: tuple[RecordStore, ...] = tuple(
            RecordStore(
                schema,
                None if self.root is None else self.shard_path(i),
                sync=sync,
                fs=fs,
                retry=retry,
                shard=i,
                **shard_kwargs,
            )
            for i in range(count)
        )
        if self.root is not None:
            try:
                self._declare_sibling_indexes(range(count))
            except BaseException:
                for shard in self.shards:
                    shard.close()
                raise
        #: Per-shard health states; persisted into the manifest on every
        #: transition so quarantine survives a reopen.
        self.health = ShardHealthMachine(count, **dict(health_config or {}))
        self.health.load(health_doc)
        self.health.on_change = self._health_changed
        if self.root is not None:
            self._write_manifest()
        # One worker per shard: workloads here are dominated by per-shard
        # WAL/snapshot I/O and (on multi-core hosts) per-shard CPU, so the
        # pool is sized to the partition width, not the host.  Lazy — a
        # single-shard store never pays for a pool.
        self._pool: ThreadPoolExecutor | None = None
        self._records_gauges = tuple(
            _metrics.gauge("storage.sharded.records", shard=str(i))
            for i in range(count)
        )
        self._put_records_counters = tuple(
            _metrics.counter("storage.sharded.put_many.records", shard=str(i))
            for i in range(count)
        )
        self._checkpoint_counters = tuple(
            _metrics.counter("storage.sharded.checkpoint.count", shard=str(i))
            for i in range(count)
        )
        for i, shard in enumerate(self.shards):
            self._records_gauges[i].set(len(shard))

    # -- manifest ---------------------------------------------------------

    def _load_manifest(
        self, manifest: Path, *, expected: int | None
    ) -> tuple[int, Mapping[str, Any] | None]:
        """(shard_count, persisted health doc) from an existing manifest."""
        try:
            doc = json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable shard manifest {manifest}: {exc}") from exc
        count = doc.get("shard_count")
        if not isinstance(count, int) or count < 1:
            raise StorageError(f"shard manifest {manifest} has bad shard_count {count!r}")
        if doc.get("router") not in (None, "crc32"):
            raise StorageError(
                f"shard manifest {manifest} uses unknown router {doc.get('router')!r}"
            )
        if expected is not None and expected != count:
            raise StorageError(
                f"store at {manifest.parent} has {count} shards; "
                f"reopening with shards={expected} would misroute keys"
            )
        health = doc.get("health")
        return count, health if isinstance(health, dict) else None

    def _write_manifest(self) -> None:
        """(Re)write the manifest atomically.

        ``shard_count`` and ``router`` are immutable (validated on load);
        the only mutable section is ``health`` — non-healthy shard states
        that must survive a reopen (a shard pulled for corruption stays
        quarantined until it is repaired and readmitted).
        """
        assert self.root is not None
        manifest = self.root / SHARD_MANIFEST
        doc: dict[str, Any] = {
            "version": _MANIFEST_VERSION,
            "shard_count": self.shard_count,
            "router": "crc32",
        }
        health = getattr(self, "health", None)
        if health is not None:
            health_doc = health.to_dict()
            if health_doc:
                doc["health"] = health_doc
        tmp = manifest.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        tmp.replace(manifest)

    def _health_changed(self, shard: int, old: str, new: str, reason: str) -> None:
        if self.root is not None:
            self._write_manifest()

    def shard_path(self, index: int) -> Path:
        """Directory of shard ``index`` under the store root."""
        assert self.root is not None
        return self.root / f"shard-{index:02d}"

    # -- routing ----------------------------------------------------------

    def shard_for(self, key: Any) -> int:
        """The shard index ``key`` routes to."""
        return shard_of(key, self.shard_count)

    def shard(self, key: Any) -> RecordStore:
        """The shard that owns ``key``."""
        return self.shards[shard_of(key, self.shard_count)]

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: Any) -> bool:
        return key in self.shard(key)

    @property
    def index_epoch(self) -> int:
        """Monotone plan-cache epoch: the sum of the shard epochs."""
        return sum(shard.index_epoch for shard in self.shards)

    @property
    def mutation_count(self) -> int:
        return sum(shard.mutation_count for shard in self.shards)

    @property
    def wal_size_bytes(self) -> int:
        """Total WAL footprint across all shards."""
        return sum(shard.wal_size_bytes for shard in self.shards)

    def get(self, key: Any) -> dict[str, Any]:
        """Record with primary key ``key`` (a copy); raises when absent."""
        return self.shard(key).get(key)

    def keys(self) -> Iterator[Any]:
        """All primary keys, shard by shard (per-shard insertion order)."""
        for shard in self.shards:
            yield from shard.keys()

    def scan(
        self, predicate: Callable[[Mapping[str, Any]], bool] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Iterate all shards' records in shard order."""
        for shard in self.shards:
            yield from shard.scan(predicate)

    # -- single-record mutations ------------------------------------------

    def insert(self, record: Mapping[str, Any]) -> None:
        self.schema.validate(dict(record))
        key = self.schema.primary_key_of(record)
        self.shards[self.shard_for(key)].insert(record)

    def upsert(self, record: Mapping[str, Any]) -> bool:
        self.schema.validate(dict(record))
        key = self.schema.primary_key_of(record)
        return self.shards[self.shard_for(key)].upsert(record)

    def update(self, key: Any, changes: Mapping[str, Any]) -> dict[str, Any]:
        return self.shard(key).update(key, changes)

    def delete(self, key: Any) -> None:
        self.shard(key).delete(key)

    def delete_where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> int:
        return sum(shard.delete_where(predicate) for shard in self.shards)

    def update_where(
        self,
        predicate: Callable[[Mapping[str, Any]], bool],
        changes: Mapping[str, Any],
    ) -> int:
        return sum(shard.update_where(predicate, changes) for shard in self.shards)

    # -- bulk write --------------------------------------------------------

    def put_many(
        self,
        records: Iterable[Mapping[str, Any]],
        *,
        on_conflict: str = "error",
        progress: Callable[[_progress.ProgressTracker], None] | None = None,
    ) -> int:
        """Bulk-write ``records``: validate once, partition by shard key,
        commit the shard sub-batches in parallel.

        Validation and — for ``on_conflict="error"`` — conflict checks run
        at the facade *before* any shard logs anything, so the single
        store's all-or-nothing contract holds across shards: a bad record
        or duplicate key aborts the whole batch with no shard touched.
        The per-shard commits then take the pre-validated path: ownership
        of the partitioned dicts transfers to the shards, and under
        ``"error"`` a shard does not probe keys the facade has shown to
        be new.

        **Cross-shard partial-write contract**: once the per-shard
        commits begin, the batch is no longer atomic *across* shards —
        each shard's sub-batch commits (or fails) independently, and a
        failure never rolls back sibling shards' committed work.  One
        failing shard re-raises its error unchanged; several raise a
        single :class:`~repro.errors.MultiShardError` naming every
        failed shard, so the caller knows exactly which partitions to
        retry (re-submitting the same records with
        ``on_conflict="replace"`` is idempotent).

        When ``checkpoint_wal_bytes`` is configured, shards whose WAL
        crossed the bound are checkpointed (in parallel) before
        returning, bounding WAL disk through a streaming ingest.
        """
        start = time.perf_counter()
        materialized = [dict(record) for record in records]
        if not materialized:
            return 0
        self.schema.validate_many(materialized)
        pk = self.schema.primary_key
        count = self.shard_count
        if on_conflict == "error":
            batch_keys: set[Any] = set()
            for record in materialized:
                key = record[pk]
                if key in self.shards[shard_of(key, count)] or key in batch_keys:
                    raise DuplicateKeyError(key)
                batch_keys.add(key)
        elif on_conflict != "replace":
            raise StorageError(f"unknown on_conflict mode {on_conflict!r}")

        if count == 1:
            parts: list[list[dict[str, Any]]] = [materialized]
        else:
            parts = [[] for _ in range(count)]
            crc = zlib.crc32
            key_bytes = shard_key_bytes
            for record in materialized:
                parts[crc(key_bytes(record[pk])) % count].append(record)

        def commit(
            shard: RecordStore,
            part: list[dict[str, Any]],
            tracker: _progress.ProgressTracker,
        ) -> int:
            written = shard.put_many(part, on_conflict=on_conflict, _prevalidated=True)
            tracker.tick(written)
            return written

        with _progress.start(
            "storage.sharded.put_many",
            total=len(materialized),
            shards=sum(1 for p in parts if p),
        ) as op:
            if progress is not None:
                op.subscribe(progress)
            self._each_shard(
                [
                    (i, lambda s=self.shards[i], p=parts[i]: commit(s, p, op))
                    for i in range(count)
                    if parts[i]
                ]
            )
        for i in range(count):
            if parts[i]:
                self._put_records_counters[i].inc(len(parts[i]))
                self._records_gauges[i].set(len(self.shards[i]))
        _PUT_MANY_COUNT.inc()
        _PUT_MANY_SECONDS.observe(time.perf_counter() - start)
        if self.checkpoint_wal_bytes is not None:
            self.maybe_checkpoint()
        _logging.debug(
            "storage.sharded.put_many",
            records=len(materialized),
            shards=sum(1 for p in parts if p),
        )
        return len(materialized)

    def apply_batch(self, operations: list[dict[str, Any]]) -> None:
        """Apply a mixed put/delete batch, routed per shard.

        Each shard receives (and atomically applies) the sub-batch of
        operations whose keys route to it; sub-batches are applied in
        parallel.  As with :meth:`put_many`, validation runs up front.
        """
        pk = self.schema.primary_key
        count = self.shard_count
        parts: list[list[dict[str, Any]]] = [[] for _ in range(count)]
        for op in operations:
            if op["op"] == "put":
                self.schema.validate(op["record"])
                key = op["record"][pk]
            elif op["op"] == "del":
                key = op["key"]
            else:
                raise StorageError(f"unknown batch op {op.get('op')!r}")
            parts[shard_of(key, count)].append(op)
        self._each_shard(
            [
                (i, lambda s=self.shards[i], p=parts[i]: s.apply_batch(p))
                for i in range(count)
                if parts[i]
            ]
        )
        for i in range(count):
            if parts[i]:
                self._records_gauges[i].set(len(self.shards[i]))

    # -- secondary indexes -------------------------------------------------

    def create_index(self, field: str, kind: IndexKind = IndexKind.BTREE) -> None:
        """Declare a secondary index on every shard."""
        for shard in self.shards:
            shard.create_index(field, kind)

    def create_composite_index(self, fields: Sequence[str]) -> str:
        """Declare a composite index on every shard; returns its name."""
        name = ""
        for shard in self.shards:
            name = shard.create_composite_index(fields)
        return name

    def drop_index(self, field: str) -> None:
        for shard in self.shards:
            shard.drop_index(field)

    def has_index(self, field: str) -> bool:
        return self.shards[0].has_index(field)

    def index_kind(self, field: str) -> IndexKind | None:
        return self.shards[0].index_kind(field)

    @property
    def indexed_fields(self) -> tuple[str, ...]:
        return self.shards[0].indexed_fields

    def composite_indexes(self) -> tuple[tuple[str, ...], ...]:
        return self.shards[0].composite_indexes()

    def index_statistics(self, field: str) -> dict[str, int] | None:
        """Summed per-shard statistics.

        ``distinct_keys`` sums the per-shard distinct counts, so a key
        present in several shards is counted once per shard — an
        overestimate, but a monotone one, which is all the planner's
        relative-selectivity comparison needs.
        """
        totals: dict[str, int] | None = None
        for shard in self.shards:
            stats = shard.index_statistics(field)
            if stats is None:
                return None
            if totals is None:
                totals = dict(stats)
            else:
                for stat_key, value in stats.items():
                    totals[stat_key] = totals.get(stat_key, 0) + value
        return totals

    # -- index-backed reads ------------------------------------------------

    def find_by(self, field: str, value: Any) -> list[dict[str, Any]]:
        """Matching records from every shard, in shard order."""
        out: list[dict[str, Any]] = []
        for shard in self.shards:
            out.extend(shard.find_by(field, value))
        return out

    def range_by(
        self,
        field: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[dict[str, Any]]:
        """Range matches from every shard, in ``(field, primary key)``
        order: all of :meth:`iter_range`, without its keys."""
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
        """The shards' :meth:`RecordStore.iter_range` streams, lazily
        merged into ``(key, primary key)`` order."""
        return merge_key_ordered(
            [
                shard.iter_range(
                    field, low, high, include_low=include_low, include_high=include_high
                )
                for shard in self.shards
            ],
            self.schema.primary_key,
        )

    def find_by_composite(
        self, fields: Sequence[str], values: Sequence[Any]
    ) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for shard in self.shards:
            out.extend(shard.find_by_composite(fields, values))
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
        out: list[dict[str, Any]] = []
        for shard in self.shards:
            out.extend(
                shard.range_by_composite(
                    fields,
                    prefix,
                    low,
                    high,
                    include_low=include_low,
                    include_high=include_high,
                )
            )
        return out

    # -- durability --------------------------------------------------------

    def checkpoint(
        self,
        *,
        progress: Callable[[_progress.ProgressTracker], None] | None = None,
    ) -> None:
        """Checkpoint every shard, in parallel.

        Each shard runs its own four-step snapshot/rotate/publish/reclaim
        protocol; a failure in any shard propagates after all have
        settled (the others' checkpoints remain valid — shards are
        independent durability domains).  ``progress`` (when given)
        observes one facade-level tracker aggregating every shard's
        record count — a single bar for the whole fan-out.
        """
        self._checkpoint_shards(range(self.shard_count), progress=progress)

    def maybe_checkpoint(self) -> list[int]:
        """Checkpoint (in parallel) the shards whose WAL footprint is at
        or above ``checkpoint_wal_bytes``; returns their indexes."""
        bound = self.checkpoint_wal_bytes
        if bound is None:
            raise StorageError("maybe_checkpoint needs checkpoint_wal_bytes set")
        due = [
            i
            for i, shard in enumerate(self.shards)
            if shard.wal_size_bytes >= bound
        ]
        if due:
            self._checkpoint_shards(due)
        return due

    def _checkpoint_shards(
        self,
        indexes: Iterable[int],
        progress: Callable[[_progress.ProgressTracker], None] | None = None,
    ) -> None:
        indexes = list(indexes)
        total = sum(len(self.shards[i]) for i in indexes)
        with _progress.start(
            "storage.sharded.checkpoint", total=total, shards=len(indexes)
        ) as agg:
            if progress is not None:
                agg.subscribe(progress)
            # Relay each shard tracker's per-tick deltas into the facade
            # aggregate, so one bar covers the whole parallel fan-out.
            relay_lock = threading.Lock()
            relayed: dict[int, int] = {}

            def relay(tracker: _progress.ProgressTracker, key: int) -> None:
                with relay_lock:
                    delta = tracker.done - relayed.get(key, 0)
                    relayed[key] = tracker.done
                if delta > 0:
                    agg.tick(delta)

            self._each_shard(
                [
                    (
                        i,
                        lambda s=self.shards[i], k=i: s.checkpoint(
                            progress=lambda t, k=k: relay(t, k)
                        ),
                    )
                    for i in indexes
                ]
            )
        for i in indexes:
            self._checkpoint_counters[i].inc()
            self._records_gauges[i].set(len(self.shards[i]))

    # -- fault tolerance ---------------------------------------------------

    def quarantine(self, index: int, reason: str = "operator") -> None:
        """Pull shard ``index`` out of service (persisted; idempotent).

        Partial-mode queries skip it and strict queries raise
        :class:`~repro.errors.ShardUnavailableError`; direct writes still
        reach it — quarantine routes *queries*, it is not an
        access-control wall.
        """
        if not 0 <= index < self.shard_count:
            raise StorageError(f"no shard {index} (store has {self.shard_count})")
        self.health.quarantine(index, reason)

    def readmit(self, index: int, *, reopen: bool = False) -> None:
        """Return a quarantined/repairing shard to service (persisted).

        With ``reopen=True`` (disk stores only) the member store is
        closed and rebuilt from its directory first, so a repair that
        rewrote the shard's files (snapshot rollback + WAL replay) is
        actually picked up rather than served from stale in-memory state.
        """
        if not 0 <= index < self.shard_count:
            raise StorageError(f"no shard {index} (store has {self.shard_count})")
        if reopen and self.root is not None:
            self.reopen_shard(index)
        self.health.readmit(index)

    def reopen_shard(self, index: int) -> RecordStore:
        """Close shard ``index`` and reopen it from its directory.

        The re-admission step after a repair: recovery replays whatever
        the repair left on disk (e.g. a full WAL chain after a snapshot
        rollback), and the index declarations a rollback loses are
        restored from the siblings (:meth:`_declare_sibling_indexes`).
        """
        if self.root is None:
            raise StorageError("reopen_shard needs a disk-backed store")
        self.shards[index].close()
        store = RecordStore(
            self.schema,
            self.shard_path(index),
            sync=self._shard_sync,
            fs=self._shard_fs,
            retry=self._shard_retry,
            shard=index,
            **self._shard_kwargs,
        )
        # Installed before the checkpoint below, so a failed checkpoint
        # leaves the shard open for the next close or reopen.
        shards = list(self.shards)
        shards[index] = store
        self.shards = tuple(shards)
        self._records_gauges[index].set(len(store))
        self._declare_sibling_indexes([index])
        _logging.info("storage.sharded.reopen", shard=index, records=len(store))
        return store

    def _declare_sibling_indexes(self, targets: Iterable[int]) -> None:
        """Declare on each shard in ``targets`` every index a sibling
        declares.

        Declarations are uniform across shards, but each shard keeps its
        own in its manifest, and fsck's rollback publishes a manifest
        without them (or none).  The declarations in a sibling's
        manifest are made durable by a checkpoint of the target; those a
        sibling holds in memory only are declared in memory only, as
        they are on the sibling.  The indexes themselves rebuild lazily.
        """
        durable: list[list[dict[str, Any]]] = []
        for j in range(self.shard_count):
            try:
                manifest = read_manifest(self.shard_path(j))
            except StorageError:
                manifest = None  # a damaged shard vouches for nothing
            durable.append([] if manifest is None else manifest.indexes)
        for i in targets:
            store = self.shards[i]
            siblings = [j for j in range(self.shard_count) if j != i]
            if store.declare_indexes(d for j in siblings for d in durable[j]):
                store.checkpoint()
            store.declare_indexes(
                d for j in siblings for d in self.shards[j].declared_indexes()
            )

    # -- parallel helper ---------------------------------------------------

    def _each_shard(self, tasks: list[tuple[int, Callable[[], Any]]]) -> list[Any]:
        """Run one callable per shard, in parallel when there are several.

        The calling thread blocks until every task settles.  Shards are
        independent durability domains, so one shard's failure never
        rolls back another's committed work; a single failing shard
        re-raises its exception unchanged, and when *several* fail the
        caller gets one :class:`~repro.errors.MultiShardError` naming
        every failed shard (instead of the first error hiding the rest).
        Every failure also feeds the shard :attr:`health` machine.
        """
        if len(tasks) <= 1:
            results = []
            for i, fn in tasks:
                try:
                    results.append(fn())
                except BaseException as exc:
                    self.health.record_error(i, exc, source="write")
                    raise
                self.health.record_success(i)
            return results
        pool = self._pool
        if pool is None:
            pool = self._pool = ThreadPoolExecutor(
                max_workers=self.shard_count,
                thread_name_prefix="repro-shard",
            )
        # Each task runs in its own copy of the caller's context (one
        # Context cannot be entered by two threads at once): its spans
        # nest under the caller's span, its log lines carry the caller's
        # trace id and its pool pages count in the caller's page scope.
        futures: list[tuple[int, Future]] = [
            (i, pool.submit(contextvars.copy_context().run, fn)) for i, fn in tasks
        ]
        results: list[Any] = []
        failures: dict[int, BaseException] = {}
        for i, future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures[i] = exc
                self.health.record_error(i, exc, source="write")
                _logging.warn(
                    "storage.sharded.shard_failure",
                    shard=i,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                self.health.record_success(i)
        if len(failures) == 1:
            raise next(iter(failures.values()))
        if failures:
            raise MultiShardError(failures) from next(iter(failures.values()))
        return results

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and close every shard (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
