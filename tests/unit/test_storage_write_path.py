"""The store's one write path: probe counts, the ordered-index key check,
a pinned op sequence, and a keys-only walk of a paged store.

Every public write of :class:`RecordStore` goes validate → prepare → log
→ apply.  Prepare probes each written key once (one descent of the
on-disk record tree, :meth:`PagedBTree._search`) and checks every new
ordered-index key before the WAL is touched; apply reuses the probe.
"""

import hashlib

import pytest

from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.corpus.wvlr import PUBLICATION_SCHEMA
from repro.errors import StorageError
from repro.obs import metrics
from repro.storage import paged_store
from repro.storage.paged_btree import PagedBTree
from repro.storage.pages import OVERFLOW_THRESHOLD
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.sharded import ShardedStore
from repro.storage.store import WAL_NAME, IndexKind, RecordStore

SIZE = 500


def _rows(n: int = SIZE + 100) -> list[dict]:
    config = SyntheticCorpusConfig(size=n, seed=2024, author_pool=200)
    return [record.to_store_dict() for record in SyntheticCorpus(config).records()]


ROWS = _rows()


def _declare(store) -> None:
    store.create_index("surnames", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("volume", IndexKind.BTREE)
    store.create_composite_index(("volume", "page"))


def _warm(store) -> None:
    """One read through an index builds every declared one."""
    store.find_by("year", ROWS[0]["year"])


def _reopened(directory, *, shards=None, warm=True):
    """A store over ``ROWS[:SIZE]``, checkpointed, closed and reopened
    with its four indexes declared (and built, when ``warm``)."""
    if shards is None:
        store = RecordStore(PUBLICATION_SCHEMA, directory)
    else:
        store = ShardedStore(PUBLICATION_SCHEMA, directory, shards=shards)
    _declare(store)
    store.put_many(ROWS[:SIZE])
    store.checkpoint()
    store.close()
    if shards is None:
        store = RecordStore(PUBLICATION_SCHEMA, directory)
    else:
        store = ShardedStore(PUBLICATION_SCHEMA, directory, shards=shards)
    if warm:
        _warm(store)
    return store


@pytest.fixture()
def counting(monkeypatch):
    """Counts of tree descents and of single-record decodes."""
    counts = {"searches": 0, "decodes": 0}
    search = PagedBTree._search
    decode = paged_store.decode_record

    def counting_search(self, key):
        counts["searches"] += 1
        return search(self, key)

    def counting_decode(raw):
        counts["decodes"] += 1
        return decode(raw)

    monkeypatch.setattr(PagedBTree, "_search", counting_search)
    monkeypatch.setattr(paged_store, "decode_record", counting_decode)
    return counts


def _changed(row: dict, **changes) -> dict:
    return {**row, **changes}


# Each public write, and the number of keys it writes, on a store over
# ROWS[:SIZE].  The writes touch disjoint keys, so they also run in
# sequence (see _op_sequence).
NEW = SIZE  # ROWS[NEW:] are not in the store
WRITES = {
    "insert": (lambda s: s.insert(ROWS[NEW]), 1),
    "upsert": (lambda s: s.upsert(_changed(ROWS[3], title="T")), 1),
    "update": (lambda s: s.update(ROWS[4]["id"], {"year": 1999}), 1),
    "delete": (lambda s: s.delete(ROWS[5]["id"]), 1),
    "put_many": (lambda s: s.put_many(ROWS[NEW + 1 : NEW + 51]), 50),
    "put_many_replace": (
        lambda s: s.put_many(
            [_changed(row, title="R") for row in ROWS[10:40]] + ROWS[NEW + 51 : NEW + 71],
            on_conflict="replace",
        ),
        50,
    ),
    "apply_batch": (
        lambda s: s.apply_batch(
            [{"op": "put", "record": row} for row in ROWS[NEW + 71 : NEW + 81]]
            + [{"op": "put", "record": _changed(row, page=1)} for row in ROWS[50:60]]
            + [{"op": "del", "key": row["id"]} for row in ROWS[60:70]]
        ),
        30,
    ),
    "update_where": (
        lambda s: s.update_where(lambda r: 100 <= r["id"] < 120, {"student": True}),
        20,
    ),
    "delete_where": (lambda s: s.delete_where(lambda r: 200 <= r["id"] < 215), 15),
}


def _transaction(store) -> None:
    with store.transaction() as txn:
        txn.insert(ROWS[NEW + 90])
        txn.upsert(_changed(ROWS[97], title="X"))
        txn.delete(ROWS[98]["id"])


class TestOneProbePerKey:
    @pytest.mark.parametrize("name", sorted(WRITES))
    def test_each_write_probes_each_key_once(self, name, tmp_path, counting):
        write, written = WRITES[name]
        with _reopened(tmp_path) as store:
            counting["searches"] = 0
            write(store)
            assert counting["searches"] <= written

    def test_transaction_commit_probes_each_key_once(self, tmp_path, counting):
        with _reopened(tmp_path) as store:
            counting["searches"] = 0
            _transaction(store)
            # txn.insert and txn.delete read their keys through get();
            # the commit then probes each of its 3 keys once.
            assert counting["searches"] <= 2 + 3

    @pytest.mark.parametrize("on_conflict", ["error", "replace"])
    def test_sharded_put_many(self, on_conflict, tmp_path, counting):
        rows = ROWS[NEW : NEW + 60]
        if on_conflict == "replace":
            rows = [_changed(row, title="S") for row in ROWS[100:130]] + rows[:30]
        with _reopened(tmp_path, shards=4) as store:
            counting["searches"] = 0
            store.put_many(rows, on_conflict=on_conflict)
            assert counting["searches"] <= len(rows)
            assert [store.get(row["id"]) for row in rows] == rows

    def test_update_decodes_the_old_record_once(self, tmp_path, counting):
        with _reopened(tmp_path) as store:
            counting["decodes"] = 0
            store.update(ROWS[4]["id"], {"year": 1999})
            assert counting["decodes"] == 1

    def test_delete_without_a_built_index_decodes_nothing(self, tmp_path, counting):
        with _reopened(tmp_path, warm=False) as store:
            counting["decodes"] = 0
            store.delete(ROWS[5]["id"])
            assert counting["decodes"] == 0
            _warm(store)
            assert ROWS[5]["id"] not in {
                r["id"] for r in store.find_by("year", ROWS[5]["year"])
            }


def test_keys_walk_reads_no_record(tmp_path, monkeypatch):
    # Keys come from the leaves' keys and the overlay's, without loading
    # a value (inline or overflow) or decoding a record.
    big = [_changed(row, title="x" * (OVERFLOW_THRESHOLD + 100)) for row in ROWS[:3]]
    with RecordStore(PUBLICATION_SCHEMA, tmp_path) as store:
        store.put_many(big + ROWS[3:SIZE])
        store.checkpoint()
    with RecordStore(PUBLICATION_SCHEMA, tmp_path) as store:
        store.insert(ROWS[NEW])
        store.delete(ROWS[1]["id"])
        store.upsert(_changed(ROWS[7], title="Y"))
        loaded = []
        load, leaf, record = (
            PagedBTree.load_value, paged_store.decode_leaf, paged_store.decode_record
        )
        monkeypatch.setattr(
            PagedBTree, "load_value", lambda self, v: loaded.append(v) or load(self, v)
        )
        monkeypatch.setattr(
            paged_store, "decode_leaf", lambda values: loaded.append(values) or leaf(values)
        )
        monkeypatch.setattr(
            paged_store, "decode_record", lambda raw: loaded.append(raw) or record(raw)
        )
        want = sorted({row["id"] for row in ROWS[: NEW + 1]} - {ROWS[1]["id"]})
        assert list(store.keys()) == want
        assert loaded == []


YEAR_SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("year", FieldType.INT)], primary_key="id"
)


class TestOrderedKeyCheck:
    def test_incomparable_key_is_refused_before_the_log(self, tmp_path):
        # Only the sharded facade passes _prevalidated=True, after it has
        # validated the records; a record that skipped validation with a
        # key the year index cannot order must still change nothing.
        with RecordStore(YEAR_SCHEMA, tmp_path) as store:
            store.create_index("year", IndexKind.BTREE)
            store.put_many({"id": i, "year": 1990 + i} for i in range(5))
            wal_bytes = store.wal_size_bytes
            with pytest.raises(StorageError, match="comparable"):
                store.put_many([{"id": 10, "year": "MCMXC"}], _prevalidated=True)
            assert store.wal_size_bytes == wal_bytes
            assert len(store) == 5
            assert store.index_statistics("year")["entries"] == 5
        with RecordStore(YEAR_SCHEMA, tmp_path) as store:
            assert len(store) == 5
            assert [r["id"] for r in store.find_by("year", 1990)] == [0]
            assert len(store.range_by("year", 1990, 1994)) == 5

    def test_a_replacing_write_is_refused_whole(self, tmp_path):
        # The replaced record's old index entries stay too.
        with RecordStore(YEAR_SCHEMA, tmp_path) as store:
            store.create_index("year", IndexKind.BTREE)
            store.put_many({"id": i, "year": 1990 + i} for i in range(5))
            with pytest.raises(StorageError, match="comparable"):
                store.put_many(
                    [{"id": 1, "year": "x"}], on_conflict="replace", _prevalidated=True
                )
            assert store.get(1) == {"id": 1, "year": 1991}
            assert [r["id"] for r in store.range_by("year")] == [0, 1, 2, 3, 4]


def test_replay_keeps_the_insertion_order(tmp_path):
    # Before its first checkpoint a store keeps records in insertion
    # order, and a batch orders its keys as applying its operations one
    # by one would; the reopen folds the log into the same order.
    model: dict = {}

    def apply(ops):
        for op in ops:
            key = op["record"]["id"] if op["op"] == "put" else op["key"]
            model.pop(key, None)
            if op["op"] == "put":
                model[key] = op["record"]

    def put(i):
        return {"op": "put", "record": {"id": i, "year": 1990 + i}}

    with RecordStore(YEAR_SCHEMA, tmp_path) as store:
        for i in (1, 2, 3, 1):
            store.upsert(put(i)["record"])
        store.delete(2)
        batch = [put(4), put(5), put(4), {"op": "del", "key": 3}, put(2)]
        store.apply_batch(batch)
        replacing = [put(6), put(5), put(6)]
        store.put_many([op["record"] for op in replacing], on_conflict="replace")
        apply([put(1), put(2), put(3), put(1), {"op": "del", "key": 2}, *batch])
        apply(replacing)
        assert list(store.keys()) == list(model) == [1, 4, 2, 5, 6]
    with RecordStore(YEAR_SCHEMA, tmp_path) as store:
        assert list(store.keys()) == list(model)
        assert list(store.scan()) == list(model.values())


#: The families whose totals the write path must keep: every counter
#: here, for the op sequence below, as the per-record and batched write
#: paths that preceded the one write path counted them.
PINNED_FAMILIES = ("storage.store.", "storage.hash.", "storage.btree.", "storage.wal.")


def _op_sequence(directory) -> dict[str, int]:
    """Run one fixed sequence of every public write on a reopened store
    with four built indexes; returns the counters of PINNED_FAMILIES."""
    store = _reopened(directory)
    metrics.reset()
    for name in sorted(WRITES):
        WRITES[name][0](store)
    _transaction(store)
    store.close()
    counters = metrics.snapshot()["counters"]
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(PINNED_FAMILIES) and value
    }


#: Recorded from the per-record and batched write paths this write path
#: replaced, for the sequence above.
PINNED_COUNTERS = {
    "storage.btree.searches": 270,
    "storage.hash.insert.count": 169,
    "storage.hash.remove.count": 106,
    "storage.store.delete.count": 27,
    "storage.store.get.count": 3,
    "storage.store.put.count": 145,
    "storage.store.put_many.count": 2,
    "storage.store.put_many.records": 100,
    "storage.wal.append.bytes": 30512,
    "storage.wal.append.count": 108,
    "storage.wal.batch.count": 2,
    "storage.wal.batch.entries": 100,
}
PINNED_WAL_SHA256 = "f2efd7b9716e9cc4192a17fb613bc77ce5ad4491bdaaddb0258988cc3ca212d4"


def test_op_sequence_keeps_counters_and_wal_bytes(tmp_path):
    assert _op_sequence(tmp_path) == PINNED_COUNTERS
    digest = hashlib.sha256((tmp_path / WAL_NAME).read_bytes()).hexdigest()
    assert digest == PINNED_WAL_SHA256
    assert sorted(p.name for p in tmp_path.glob(WAL_NAME + "*")) == [WAL_NAME]
