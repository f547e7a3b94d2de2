"""E7 — durability cost: WAL append modes, snapshots, recovery replay.

Regenerates the durability table.  Expected shape: fsync-per-append is
orders of magnitude slower than buffered appends; batching amortizes the
fsync to near-buffered cost; recovery replay is linear in log length and a
snapshot collapses it to near-constant."""

import pytest

from repro.corpus.wvlr import PUBLICATION_SCHEMA
from repro.storage.store import RecordStore
from repro.storage.wal import WriteAheadLog

N_APPENDS = 200


def _payloads(n=N_APPENDS):
    return [{"op": "put", "record": {"id": i, "v": "x" * 40}} for i in range(n)]


def test_wal_append_buffered(benchmark, tmp_path_factory):
    payloads = _payloads()

    def run():
        path = tmp_path_factory.mktemp("wal") / "w.wal"
        with WriteAheadLog(path, sync=False) as wal:
            for p in payloads:
                wal.append(p)

    benchmark(run)


def test_wal_append_fsync_each(benchmark, tmp_path_factory):
    payloads = _payloads()

    def run():
        path = tmp_path_factory.mktemp("wal") / "w.wal"
        with WriteAheadLog(path, sync=True) as wal:
            for p in payloads:
                wal.append(p)

    benchmark(run)


def test_wal_append_fsync_batched(benchmark, tmp_path_factory):
    payloads = _payloads()

    def run():
        path = tmp_path_factory.mktemp("wal") / "w.wal"
        with WriteAheadLog(path) as wal:
            wal.append_many(payloads, sync=True)

    benchmark(run)


@pytest.fixture(scope="module")
def populated_dir(tmp_path_factory, corpus_1k):
    directory = tmp_path_factory.mktemp("store") / "db"
    with RecordStore(PUBLICATION_SCHEMA, directory) as store:
        with store.transaction() as txn:
            for record in corpus_1k:
                txn.insert(record.to_store_dict())
    return directory


def test_recovery_replay_from_wal(benchmark, populated_dir):
    def reopen():
        with RecordStore(PUBLICATION_SCHEMA, populated_dir) as store:
            return len(store)

    assert benchmark(reopen) == 1_000


def test_recovery_from_snapshot(benchmark, tmp_path_factory, corpus_1k):
    directory = tmp_path_factory.mktemp("store") / "db"
    with RecordStore(PUBLICATION_SCHEMA, directory) as store:
        with store.transaction() as txn:
            for record in corpus_1k:
                txn.insert(record.to_store_dict())
        store.snapshot()

    def reopen():
        with RecordStore(PUBLICATION_SCHEMA, directory) as store:
            return len(store)

    assert benchmark(reopen) == 1_000


def test_index_build_bulk_load(benchmark, corpus_1k):
    """Ordered-index creation over existing data: one scan, one sort (the default)."""
    store = RecordStore(PUBLICATION_SCHEMA)
    with store.transaction() as txn:
        for record in corpus_1k:
            txn.insert(record.to_store_dict())

    def build():
        store.create_index("page")
        stats = store.index_statistics("page")
        store.drop_index("page")
        return stats

    stats = benchmark(build)
    assert stats["entries"] == 1_000


def test_index_build_insert_loop(benchmark, corpus_1k):
    """The alternative the one-scan build replaces: n individual inserts."""
    from repro.storage.hashindex import OrderedIndex

    store = RecordStore(PUBLICATION_SCHEMA)
    with store.transaction() as txn:
        for record in corpus_1k:
            txn.insert(record.to_store_dict())
    rows = list(store.scan())

    def build():
        index = OrderedIndex()
        for row in rows:
            pairs = [(row["page"], row["id"])]
            index.insert_many(pairs, index.place(pairs))
        return index

    index = benchmark(build)
    assert len(index) == 1_000


def test_snapshot_write(benchmark, tmp_path_factory, corpus_1k):
    directory = tmp_path_factory.mktemp("store") / "db"
    with RecordStore(PUBLICATION_SCHEMA, directory) as store:
        with store.transaction() as txn:
            for record in corpus_1k:
                txn.insert(record.to_store_dict())
        benchmark(store.snapshot)
