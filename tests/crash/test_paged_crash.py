"""Crash tests for the paged data format.

Extends the crash matrix to the pages file: a checkpoint that tears a
page write, dies after the page-file fsync, or dies after publishing the
pages file but before publishing the manifest must always leave the
directory recoverable to the exact pre-checkpoint state — and ``fsck``
must classify every artifact correctly (stray pages files repairable,
page-level corruption fatal with the damaged page named).
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.query import QueryEngine
from repro.storage import HEALTHY, FaultFS, InjectedFault, RecordStore, ShardedStore, fsck
from repro.storage.faultfs import flip_bit_on_disk
from repro.storage.pages import PAGE_SIZE
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("name", FieldType.STRING)],
    primary_key="id",
)

BASE_KEYS = frozenset(range(10))


def _rec(i: int) -> dict:
    return {"id": i, "name": f"rec-{i}"}


def _paged_baseline(directory) -> None:
    """Ten records, checkpointed in paged format, cleanly closed."""
    with RecordStore(SCHEMA, directory, sync=True, data_format="paged") as store:
        store.put_many([_rec(i) for i in range(10)])
        store.checkpoint()


def _recovered_keys(directory) -> set:
    with RecordStore(SCHEMA, directory, sync=True, data_format="paged") as store:
        return set(store.keys())


@pytest.mark.parametrize("failpoint", ["torn_page_write", "fail_after_page_flush"])
def test_crash_during_pages_build_recovers_precheckpoint_state(
    failpoint, tmp_path
):
    """A checkpoint that dies writing/syncing the tmp pages file loses the
    checkpoint, never the data: every WAL-acknowledged write survives."""
    directory = tmp_path / "db"
    _paged_baseline(directory)

    fs = FaultFS()
    store = RecordStore(SCHEMA, directory, sync=True, fs=fs, data_format="paged")
    store.insert(_rec(100))  # committed to the WAL before the crash
    fs.arm(failpoint, path=".pages", keep_bytes=PAGE_SIZE // 2)
    with pytest.raises(InjectedFault):
        store.checkpoint()
    assert fs.fired(failpoint) == 1
    del store  # simulated crash: never closed

    report = fsck(directory, repair=True)
    assert report.exit_code() == 0, report.render()
    assert _recovered_keys(directory) == BASE_KEYS | {100}
    assert fsck(directory).exit_code() == 0


def test_transient_page_flush_fault_is_retried(tmp_path):
    """A transient fsync hiccup on the pages file heals inside the retry
    policy: the checkpoint completes and nothing needs repair."""
    directory = tmp_path / "db"
    _paged_baseline(directory)

    fs = FaultFS()
    with RecordStore(
        SCHEMA, directory, sync=True, fs=fs, data_format="paged"
    ) as store:
        store.insert(_rec(100))
        fs.arm("fail_after_page_flush", path=".pages", transient=True)
        store.checkpoint()  # retried, succeeds
        assert fs.fired("fail_after_page_flush") == 1
        assert store.overlay_size == 0
    assert fsck(directory).exit_code() == 0
    assert _recovered_keys(directory) == BASE_KEYS | {100}


def test_crash_between_pages_publish_and_manifest_leaves_repairable_stray(
    tmp_path,
):
    """Dying after the pages file is renamed into place but before the
    manifest references it strands a fully-built pages file.  Recovery
    ignores it (the manifest is the truth), fsck flags it repairable and
    removes it on --repair."""
    directory = tmp_path / "db"
    _paged_baseline(directory)

    fs = FaultFS()
    store = RecordStore(SCHEMA, directory, sync=True, fs=fs, data_format="paged")
    store.insert(_rec(100))
    fs.arm("fail_after_rename", path="store.pages.")
    with pytest.raises(InjectedFault):
        store.checkpoint()
    assert fs.fired("fail_after_rename") == 1
    del store

    # the published-but-unreferenced pages file is on disk next to the
    # one the (old) manifest still references
    assert len(list(directory.glob("store.pages.*"))) == 2
    report = fsck(directory)
    assert report.exit_code() == 1
    stray = [i for i in report.issues if i.severity == "repairable"]
    assert any("unreferenced pages file" in i.message for i in stray)

    report = fsck(directory, repair=True)
    assert report.exit_code() == 0, report.render()
    assert len(list(directory.glob("store.pages.*"))) == 1
    assert _recovered_keys(directory) == BASE_KEYS | {100}
    assert fsck(directory).exit_code() == 0


def test_torn_tmp_pages_file_is_swept(tmp_path):
    """A half-built ``.tmp`` pages file from a crashed build is a
    repairable stray, even though it never passed verification."""
    directory = tmp_path / "db"
    _paged_baseline(directory)
    (directory / "store.pages.000099.tmp").write_bytes(b"\x00" * 100)

    report = fsck(directory)
    assert report.exit_code() == 1
    assert any("temp pages file" in i.message for i in report.issues)
    assert fsck(directory, repair=True).exit_code() == 0
    assert not (directory / "store.pages.000099.tmp").exists()


def test_bit_flip_in_published_pages_file_is_fatal(tmp_path):
    """Disk corruption inside the published pages file is page-level
    fatal: fsck names the damaged page and refuses to repair.  Opening
    the store still succeeds (open reads only the meta page — that is
    the millisecond-open contract), but the first read that touches the
    damaged page raises instead of serving bad bytes."""
    directory = tmp_path / "db"
    _paged_baseline(directory)
    pages_path = next(directory.glob("store.pages.*"))

    # flip one bit in the middle of page 2 (a node page)
    flip_bit_on_disk(pages_path, 2 * PAGE_SIZE + 77, bit=3)

    report = fsck(directory)
    assert report.exit_code() == 2
    fatal = [i for i in report.issues if i.severity == "fatal"]
    assert any("page" in i.message and "corruption" in i.message for i in fatal)
    # repair must not touch it — the damage is not safely repairable
    assert fsck(directory, repair=True).exit_code() == 2
    assert pages_path.exists()

    with RecordStore(SCHEMA, directory, data_format="paged") as store:
        with pytest.raises(StorageError):
            list(store.scan())


def test_meta_page_corruption_is_fatal(tmp_path):
    """Damage to the meta page (root pointer, counts) is caught on open."""
    directory = tmp_path / "db"
    _paged_baseline(directory)
    pages_path = next(directory.glob("store.pages.*"))
    flip_bit_on_disk(pages_path, 20, bit=0)  # inside the meta payload

    assert fsck(directory).exit_code() == 2
    with pytest.raises(StorageError):
        RecordStore(SCHEMA, directory, data_format="paged")


def _indexed_baseline(directory) -> None:
    """Ten records and a declared index, checkpointed, cleanly closed."""
    with RecordStore(SCHEMA, directory, sync=True) as store:
        store.put_many([_rec(i) for i in range(10)])
        store.create_index("name")
        store.checkpoint()


@pytest.mark.parametrize(
    "needle, offset",
    [
        ('"wal_seal": 2', len('"wal_seal": ')),  # the seal digit: 2 -> 3
        ('"field": "name"', len('"field": "nam')),  # "name" -> "namd"
    ],
    ids=["wal_seal", "indexes"],
)
def test_manifest_read_back_checks_every_field(needle, offset, tmp_path):
    """A bit flipped in flight anywhere in the manifest fails the
    checkpoint — not only in the counted fields.  Published, a seal one
    too high would make recovery skip a committed segment, and a flipped
    index declaration would silently drop the index."""
    # A twin run without faults writes the byte-identical manifest the
    # faulty checkpoint will write; it locates the byte to flip.
    twin = tmp_path / "twin"
    _indexed_baseline(twin)
    with RecordStore(SCHEMA, twin, sync=True) as store:
        store.insert(_rec(100))
        store.checkpoint()
    manifest = (twin / "snapshot.json").read_text(encoding="utf-8")
    byte = manifest.index(needle) + offset

    directory = tmp_path / "db"
    _indexed_baseline(directory)
    fs = FaultFS()
    store = RecordStore(SCHEMA, directory, sync=True, fs=fs)
    store.insert(_rec(100))
    fs.arm("bit_flip", path="snapshot", byte=byte)
    with pytest.raises(StorageError, match="verification failed"):
        store.checkpoint()
    assert fs.fired("bit_flip") == 1
    del store  # simulated crash

    with RecordStore(SCHEMA, directory) as reopened:  # the prior state
        assert set(reopened.keys()) == BASE_KEYS | {100}
        assert reopened.has_index("name")
    assert fsck(directory, repair=True).exit_code() == 0  # stray pages file
    assert fsck(directory).exit_code() == 0


def test_damaged_checkpoint_write_quarantines_no_shard(tmp_path):
    """A bit flipped in any write of one shard's checkpoint, the meta
    page's included, fails that checkpoint with the same plain
    ``StorageError``: the damage is in a temporary file nothing reads,
    so no shard may be quarantined for it.  After a reopen every shard
    serves and every record is there."""
    writes = 0
    while True:
        directory = tmp_path / f"db{writes}"
        with ShardedStore(SCHEMA, directory, shards=3) as store:
            store.put_many([_rec(i) for i in range(30)])
            store.checkpoint()
        fs = FaultFS()
        with ShardedStore(SCHEMA, directory, fs=fs) as store:
            store.insert(_rec(100))
            fs.arm("bit_flip", path="shard-01/store.pages", skip=writes)
            try:
                store.checkpoint()
            except StorageError as exc:
                assert type(exc) is StorageError, repr(exc)
                assert "verification failed" in str(exc)
            fired = fs.fired("bit_flip")
        with ShardedStore(SCHEMA, directory) as store:
            assert [row["state"] for row in store.health.rows()] == [HEALTHY] * 3
            assert sorted(store.keys()) == [*range(30), 100]
            assert len(QueryEngine(store).execute("*")) == 31
        if not fired:
            break
        writes += 1
    assert writes >= 2  # at least one node page and the meta page
