"""Embedded record store: WAL, indexes, snapshots, transactions.

The publisher-side substrate: publication records live in a single-writer
embedded store with

* an append-only, CRC-framed write-ahead log (:mod:`repro.storage.wal`),
* a paged on-disk B+ tree — 4 KiB struct-packed pages, written once by
  a bulk build and read through an LRU buffer pool — serving
  checkpointed records read-through so the working set, not the
  dataset, must fit in RAM
  (:mod:`repro.storage.pages`, :mod:`repro.storage.bufferpool`,
  :mod:`repro.storage.paged_btree`, :mod:`repro.storage.paged_store`),
* in-memory secondary indexes over one dict of buckets: a hash index for
  point lookups and an ordered one (a sorted key list) for range scans
  (:mod:`repro.storage.hashindex`),
* checkpoint/rotation durability with verified snapshots
  (:mod:`repro.storage.store`),
* buffered transactions with rollback (:mod:`repro.storage.transactions`),
* offline integrity checking and repair (:mod:`repro.storage.fsck`),
* per-shard health tracking and a self-healing background scrubber
  (:mod:`repro.storage.health`, :mod:`repro.storage.scrub`), and
* a fault-injecting filesystem shim for crash testing
  (:mod:`repro.storage.faultfs`).

Records are plain ``dict`` values validated against a light
:class:`~repro.storage.schema.Schema`.
"""

from repro.storage.schema import Field, FieldType, Schema
from repro.storage.wal import ChainScan, LogEntry, SegmentScan, WriteAheadLog
from repro.storage.bufferpool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.hashindex import HashIndex, OrderedIndex
from repro.storage.paged_btree import PagedBTree
from repro.storage.paged_store import PagedRecordMap
from repro.storage.pages import PAGE_SIZE, PageCorruptionError, PageFile
from repro.storage.store import IndexKind, RecordStore, records_checksum
from repro.storage.sharded import SHARD_MANIFEST, ShardedStore, shard_key_bytes, shard_of
from repro.storage.transactions import Transaction
from repro.storage.faultfs import (
    REAL_FS,
    FaultFS,
    FileSystem,
    InjectedFault,
    TransientInjectedFault,
)
from repro.storage.fsck import (
    FsckIssue,
    FsckReport,
    ShardedFsckReport,
    fsck,
    fsck_sharded,
    is_sharded_root,
)
from repro.storage.health import (
    DEGRADED,
    HEALTH_LEVELS,
    HEALTHY,
    QUARANTINED,
    REPAIRING,
    ShardHealthMachine,
    classify_error,
)
from repro.storage.scrub import ScrubReport, Scrubber, ShardScrubResult

__all__ = [
    "Field",
    "FieldType",
    "Schema",
    "LogEntry",
    "SegmentScan",
    "ChainScan",
    "WriteAheadLog",
    "BufferPool",
    "DEFAULT_POOL_PAGES",
    "HashIndex",
    "IndexKind",
    "OrderedIndex",
    "PAGE_SIZE",
    "PageCorruptionError",
    "PageFile",
    "PagedBTree",
    "PagedRecordMap",
    "RecordStore",
    "records_checksum",
    "ShardedStore",
    "SHARD_MANIFEST",
    "shard_key_bytes",
    "shard_of",
    "Transaction",
    "FileSystem",
    "FaultFS",
    "REAL_FS",
    "InjectedFault",
    "TransientInjectedFault",
    "fsck",
    "fsck_sharded",
    "is_sharded_root",
    "FsckIssue",
    "FsckReport",
    "ShardedFsckReport",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "REPAIRING",
    "HEALTH_LEVELS",
    "ShardHealthMachine",
    "classify_error",
    "Scrubber",
    "ScrubReport",
    "ShardScrubResult",
]
