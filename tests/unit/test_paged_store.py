"""Unit tests for the paged data format at the store layer.

Covers :class:`~repro.storage.paged_store.PagedRecordMap` (overlay
semantics over a base tree), :class:`StreamingChecksum` (must hash
exactly what :func:`records_checksum` hashes), and
:class:`RecordStore`/:class:`ShardedStore` checkpoints: checkpoint →
reopen identity, WAL replay on top of a pages file, lazy secondary
indexes, and the one-way upgrade of a legacy v2 snapshot.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordNotFoundError, StorageError
from repro.storage import (
    IndexKind,
    PagedBTree,
    RecordStore,
    ShardedStore,
    records_checksum,
)
from repro.storage.paged_store import (
    PagedRecordMap,
    StreamingChecksum,
    decode_leaf,
    decode_record,
    encode_record,
)
from repro.storage.pages import OVERFLOW_THRESHOLD
from repro.storage.schema import Field, FieldType, Schema
from tests.legacy_v2 import write_v2_store

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
    ],
    primary_key="id",
)


def _rec(i: int, year: int | None = None) -> dict:
    return {"id": i, "name": f"rec-{i}", "year": 1990 + (i % 7 if year is None else year)}


def _base_map(tmp_path, n: int = 10) -> PagedRecordMap:
    tree = PagedBTree.bulk_build(
        tmp_path / "base.pages",
        iter((i, encode_record(_rec(i))) for i in range(n)),
    )
    return PagedRecordMap(tree)


class TestStreamingChecksum:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_records_checksum(self, ids):
        records = [_rec(i) for i in ids]
        stream = StreamingChecksum()
        for record in records:
            stream.add(encode_record(record))
        assert stream.hexdigest() == records_checksum(records)
        assert stream.count == len(records)

    def test_unicode_records(self):
        records = [{"id": 1, "name": "Éskàpe — ünïcode", "year": 2000}]
        stream = StreamingChecksum()
        stream.add(encode_record(records[0]))
        assert stream.hexdigest() == records_checksum(records)


class TestEncoding:
    def test_round_trip_and_canonical_form(self):
        record = {"year": 1999, "id": 3, "name": "zyx"}
        raw = encode_record(record)
        assert decode_record(raw) == record
        assert raw == b'{"id":3,"name":"zyx","year":1999}'  # sorted, compact


class TestPagedRecordMap:
    def test_read_through_base(self, tmp_path):
        m = _base_map(tmp_path)
        assert len(m) == 10
        assert m[3] == _rec(3)
        assert m.get(99) is None
        assert 3 in m and 99 not in m
        assert m.overlay_size == 0
        m.close()

    def test_overlay_insert_update_delete(self, tmp_path):
        m = _base_map(tmp_path)
        m[20] = _rec(20)            # insert past the base
        m[3] = _rec(3, year=5)      # shadow a base record
        popped = m.pop(7)           # tombstone a base record
        assert popped == _rec(7)
        assert len(m) == 10
        assert m.overlay_size == 3
        assert m[3]["year"] == 1995
        assert 7 not in m
        with pytest.raises(KeyError):
            m[7]
        with pytest.raises(KeyError):
            m.pop(7)
        # reinsert after delete clears the tombstone
        m[7] = _rec(7, year=6)
        assert m[7]["year"] == 1996
        m.close()

    def test_iteration_is_pk_ordered_merge(self, tmp_path):
        m = _base_map(tmp_path)
        m[15] = _rec(15)
        m[-1] = _rec(-1)
        m.pop(4)
        keys = list(m)
        assert keys == [-1, 0, 1, 2, 3, 5, 6, 7, 8, 9, 15]
        assert [r["id"] for r in m.values()] == keys
        assert list(m.keys()) == keys
        m.close()

    def test_sorted_encoded_items_reuses_base_bytes(self, tmp_path):
        m = _base_map(tmp_path, n=5)
        m[2] = _rec(2, year=9)
        m.pop(4)
        pairs = list(m.sorted_encoded_items())
        assert [k for k, _ in pairs] == [0, 1, 2, 3]
        assert decode_record(dict(pairs)[2])["year"] == 1999
        # unmodified records pass through as the tree's stored bytes
        assert dict(pairs)[1] == m.tree.get(1)
        m.close()

    def test_update_mapping(self, tmp_path):
        m = _base_map(tmp_path, n=3)
        m.update({5: _rec(5), 6: _rec(6)})
        assert len(m) == 5
        m.close()


class TestPagedRecordStore:
    def test_checkpoint_reopen_identity(self, tmp_path):
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            for i in range(300):
                store.insert(_rec(i))
            store.checkpoint()
            assert store.is_paged
            before = sorted(store.scan(), key=lambda r: r["id"])
        manifest = json.loads((tmp_path / "snapshot.json").read_bytes())
        assert manifest["version"] == 3
        assert manifest["format"] == "paged"
        assert (tmp_path / manifest["pages"]).exists()
        assert "records" not in manifest
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            assert len(store) == 300
            assert sorted(store.scan(), key=lambda r: r["id"]) == before

    def test_wal_replay_on_top_of_pages(self, tmp_path):
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            for i in range(50):
                store.insert(_rec(i))
            store.checkpoint()
            store.insert(_rec(100))
            store.delete(3)
            store.update(5, {"year": 1999})
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            assert len(store) == 50  # +1 insert, -1 delete
            assert store.get(100) == _rec(100)
            with pytest.raises(RecordNotFoundError):
                store.get(3)
            assert store.get(5)["year"] == 1999
            assert store.overlay_size == 3  # replayed writes stay in overlay

    def test_overlay_drains_on_checkpoint(self, tmp_path):
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            for i in range(20):
                store.insert(_rec(i))
            store.checkpoint()
            store.insert(_rec(40))
            assert store.overlay_size == 1
            store.checkpoint()
            assert store.overlay_size == 0
            assert len(store) == 21

    def test_secondary_indexes_lazy_but_correct(self, tmp_path):
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            store.create_index("year", kind=IndexKind.BTREE)
            store.create_index("name", kind=IndexKind.HASH)
            for i in range(200):
                store.insert(_rec(i))
            store.checkpoint()
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            # writes before the first index read must land in the index
            store.insert(_rec(500, year=3))
            got = {r["id"] for r in store.find_by("year", 1993)}
            assert got == {i for i in range(200) if i % 7 == 3} | {500}
            assert [r["id"] for r in store.find_by("name", "rec-7")] == [7]
            ranged = store.range_by("year", 1990, 1991)
            assert {r["year"] for r in ranged} == {1990, 1991}

    def test_warming_every_index_decodes_each_record_once(
        self, tmp_path, monkeypatch, synthetic_records
    ):
        # The first read through any lazily declared index builds every
        # unbuilt one in one scan, so warming the four default indexes
        # of a reopened store decodes each record once, not once per index.
        from repro.corpus.wvlr import PUBLICATION_SCHEMA, populate_store
        from repro.storage import paged_store

        with RecordStore(PUBLICATION_SCHEMA, directory=tmp_path) as store:
            populate_store(store, synthetic_records[:200])
            store.create_index("surnames", IndexKind.HASH)
            store.create_index("year", IndexKind.BTREE)
            store.create_index("volume", IndexKind.BTREE)
            store.create_composite_index(("volume", "page"))
            store.checkpoint()
        decoded = []

        def counting_decode(values):
            decoded.extend(values)
            return decode_leaf(values)

        monkeypatch.setattr(paged_store, "decode_leaf", counting_decode)
        with RecordStore(PUBLICATION_SCHEMA, directory=tmp_path) as store:
            assert store.is_paged and decoded == []
            for name in ("surnames", "year", "volume", "volume+page"):
                assert store.index_statistics(name)["entries"] >= len(store)
            assert len(decoded) == len(store) == 200

    def test_scan_decodes_leaves_under_the_overlay(self, tmp_path):
        # The paged base is decoded a leaf at a time, overflow values
        # included, and merged with the overlay's new and replaced keys
        # and its deletions; the next checkpoint streams the same state.
        big = "x" * (OVERFLOW_THRESHOLD + 100)
        model = {
            i: {"id": i, "name": big + str(i) if i % 5 == 0 else f"rec-{i}", "year": i}
            for i in range(0, 120, 2)
        }
        with RecordStore(SCHEMA, directory=tmp_path) as store:
            store.put_many(list(model.values()))
            store.checkpoint()
        with RecordStore(SCHEMA, directory=tmp_path) as store:
            assert store.is_paged and store.overlay_size == 0
            for i in (-3, 1, 59, 121, 500):  # new keys, around and between
                store.insert(_rec(i))
                model[i] = _rec(i)
            for i in (0, 10, 64, 118):  # replaced, overflowing or not
                model[i] = store.update(i, {"name": big if i == 64 else "new"})
            for i in (2, 20, 66, 116):  # deleted
                store.delete(i)
                del model[i]
            assert store.overlay_size == 13
            want = [model[key] for key in sorted(model)]
            assert list(store.scan()) == want
            store.checkpoint()
            manifest = json.loads((tmp_path / "snapshot.json").read_text())
            assert manifest["checksum"] == records_checksum(want)
            assert manifest["record_count"] == len(want)

    def test_upgrade_v2_snapshot_to_paged(self, tmp_path):
        write_v2_store(
            tmp_path,
            [_rec(i) for i in range(40)],
            indexes=[{"field": "year", "kind": "btree"}],
            tail=[_rec(40, year=9), _rec(3, year=9)],
        )
        with RecordStore(SCHEMA, directory=tmp_path) as store:
            assert not store.is_paged  # a v2 open loads everything
            assert len(store) == 41
            assert store.index_kind("year") is IndexKind.BTREE
            assert {r["id"] for r in store.find_by("year", 1999)} == {3, 40}
            store.checkpoint()  # upgrade
            assert store.is_paged
        manifest = json.loads((tmp_path / "snapshot.json").read_bytes())
        assert manifest["version"] == 3
        assert manifest["indexes"] == [{"field": "year", "kind": "btree"}]
        assert list(tmp_path.glob("store.pages.*"))
        with RecordStore(SCHEMA, directory=tmp_path) as store:
            assert sorted(r["id"] for r in store.scan()) == list(range(41))
            assert store.get(3)["year"] == 1999
            assert {r["id"] for r in store.find_by("year", 1999)} == {3, 40}

    def test_checksum_identical_across_formats(self, tmp_path):
        v2_dir, paged_dir = tmp_path / "v2", tmp_path / "paged"
        records = [_rec(i) for i in range(25)]
        write_v2_store(v2_dir, records)
        with RecordStore(SCHEMA, directory=paged_dir) as store:
            store.put_many(records)
            store.checkpoint()
        v2 = json.loads((v2_dir / "snapshot.json").read_bytes())
        paged = json.loads((paged_dir / "snapshot.json").read_bytes())
        assert v2["checksum"] == paged["checksum"]
        assert v2["record_count"] == paged["record_count"]

    def test_invalid_data_format_rejected(self, tmp_path):
        # "memory" is retired: the error names the v2 -> v3 upgrade path.
        for data_format in ("parquet", "memory"):
            with pytest.raises(StorageError, match="repro checkpoint DIR"):
                RecordStore(SCHEMA, directory=tmp_path, data_format=data_format)
            with pytest.raises(StorageError, match="repro checkpoint DIR"):
                ShardedStore(
                    SCHEMA, tmp_path / "sharded", shards=2, data_format=data_format
                )
        assert not (tmp_path / "sharded").exists()

    def test_transactions_on_paged_store(self, tmp_path):
        with RecordStore(SCHEMA, directory=tmp_path, data_format="paged") as store:
            for i in range(10):
                store.insert(_rec(i))
            store.checkpoint()
            with store.transaction() as txn:
                txn.insert(_rec(50))
                txn.delete(2)
            assert store.get(50) == _rec(50)
            with pytest.raises(RecordNotFoundError):
                store.get(2)
            with pytest.raises(RuntimeError):
                with store.transaction() as txn:
                    txn.insert(_rec(60))
                    raise RuntimeError("rollback")
            with pytest.raises(RecordNotFoundError):
                store.get(60)


class TestShardedPaged:
    def test_sharded_paged_round_trip(self, tmp_path):
        with ShardedStore(SCHEMA, tmp_path, shards=3, data_format="paged") as store:
            store.put_many(_rec(i) for i in range(120))
            store.checkpoint()
        for shard_dir in sorted(tmp_path.glob("shard-*")):
            manifest = json.loads((shard_dir / "snapshot.json").read_bytes())
            assert manifest["version"] == 3
            assert (shard_dir / manifest["pages"]).exists()
        with ShardedStore(SCHEMA, tmp_path, data_format="paged") as store:
            assert len(store) == 120
            assert sorted(r["id"] for r in store.scan()) == list(range(120))
