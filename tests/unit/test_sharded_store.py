"""ShardedStore facade: routing, durability, reopen, and sharded fsck."""

import pytest

from repro.corpus.wvlr import PUBLICATION_SCHEMA
from repro.errors import DuplicateKeyError, StorageError, ValidationError
from repro.storage import (
    SHARD_MANIFEST,
    IndexKind,
    ShardedStore,
    fsck,
    fsck_sharded,
    is_sharded_root,
    shard_key_bytes,
    shard_of,
)
from repro.storage.faultfs import flip_bit_on_disk
from repro.storage.pages import PAGE_SIZE
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.store import read_manifest

SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("name", FieldType.STRING)],
    primary_key="id",
)


def _rec(i: int) -> dict:
    return {"id": i, "name": f"rec-{i}"}


def _filled(shards: int, count: int = 100, **kwargs) -> ShardedStore:
    store = ShardedStore(SCHEMA, shards=shards, **kwargs)
    store.put_many([_rec(i) for i in range(count)])
    return store


class TestRouting:
    def test_deterministic_and_total(self):
        for key in [0, 1, 17, -3, "x", "", True, False, 2.5]:
            assert shard_of(key, 4) == shard_of(key, 4)
            assert 0 <= shard_of(key, 4) < 4

    def test_type_tagged_keys_do_not_collide(self):
        # 1, 1.0, True, and "1" are different primary keys and must not
        # share routing bytes (True == 1 in Python, hence the tags).
        tags = {shard_key_bytes(k) for k in (1, 1.0, True, "1")}
        assert len(tags) == 4

    def test_single_shard_skips_routing(self):
        assert shard_of("anything", 1) == 0

    def test_every_key_found_where_routed(self):
        store = _filled(4)
        for i in range(100):
            assert store.shards[store.shard_for(i)].get(i) == _rec(i)
        store.close()


class TestFacade:
    def test_put_many_round_trip(self):
        store = _filled(4)
        assert len(store) == 100
        assert store.get(37) == _rec(37)
        assert 37 in store and 999 not in store
        assert sorted(r["id"] for r in store.scan()) == list(range(100))
        assert sorted(store.keys()) == list(range(100))
        store.close()

    def test_all_shards_used(self):
        store = _filled(4)
        assert all(len(shard) > 0 for shard in store.shards)
        store.close()

    def test_duplicate_aborts_whole_batch(self):
        store = _filled(4)
        with pytest.raises(DuplicateKeyError):
            store.put_many([_rec(200), _rec(37), _rec(201)])
        # All-or-nothing across shards: the records routed to other
        # shards must not have been committed either.
        assert 200 not in store and 201 not in store
        store.close()

    def test_validation_aborts_whole_batch(self):
        store = _filled(2)
        with pytest.raises(ValidationError):
            store.put_many([_rec(200), {"id": 201, "name": 5}])
        assert 200 not in store
        store.close()

    def test_replace_mode(self):
        store = _filled(2)
        store.put_many([{"id": 37, "name": "new"}], on_conflict="replace")
        assert store.get(37)["name"] == "new"
        store.close()

    def test_single_record_ops_route(self):
        store = _filled(4)
        store.insert(_rec(500))
        assert store.get(500) == _rec(500)
        store.update(500, {"name": "upd"})
        assert store.get(500)["name"] == "upd"
        assert store.upsert(_rec(500)) is True
        store.delete(500)
        assert 500 not in store
        store.close()

    def test_bulk_predicates_fan_out(self):
        store = _filled(4)
        changed = store.update_where(lambda r: r["id"] < 10, {"name": "x"})
        assert changed == 10
        deleted = store.delete_where(lambda r: r["name"] == "x")
        assert deleted == 10 and len(store) == 90
        store.close()

    def test_indexes_fan_out(self):
        store = _filled(4)
        store.create_index("name")
        assert store.has_index("name")
        assert store.find_by("name", "rec-7") == [_rec(7)]
        stats = store.index_statistics("name")
        assert stats is not None and stats["entries"] == 100
        store.drop_index("name")
        assert not store.has_index("name")
        store.close()

    def test_shard_count_bounds(self):
        with pytest.raises(StorageError):
            ShardedStore(SCHEMA, shards=0)
        with pytest.raises(StorageError):
            ShardedStore(SCHEMA, shards=1000)
        with pytest.raises(StorageError):
            ShardedStore(SCHEMA)  # in-memory needs explicit shards=


class TestDurability:
    def test_reopen_from_manifest(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(SCHEMA, root, shards=4, sync=True) as store:
            store.put_many([_rec(i) for i in range(50)])
            store.create_index("name")
            store.checkpoint()
        assert is_sharded_root(root)
        with ShardedStore(SCHEMA, root) as reopened:  # count from manifest
            assert reopened.shard_count == 4
            assert len(reopened) == 50
            assert reopened.get(7) == _rec(7)
            assert reopened.has_index("name")

    def test_shard_count_mismatch_refuses(self, tmp_path):
        root = tmp_path / "db"
        ShardedStore(SCHEMA, root, shards=4).close()
        with pytest.raises(StorageError, match="misroute"):
            ShardedStore(SCHEMA, root, shards=8)

    def test_wal_bound_checkpoints(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(
            SCHEMA, root, shards=4, sync=True, checkpoint_wal_bytes=1
        ) as store:
            store.put_many([_rec(i) for i in range(100)])
            # Bound of 1 byte: every shard that logged anything was
            # checkpointed before put_many returned.
            assert store.wal_size_bytes == 0
        with ShardedStore(SCHEMA, root) as reopened:
            assert len(reopened) == 100

    def test_recover_without_checkpoint(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(SCHEMA, root, shards=4, sync=True) as store:
            store.put_many([_rec(i) for i in range(30)])
        with ShardedStore(SCHEMA, root) as reopened:  # WAL-only recovery
            assert sorted(reopened.keys()) == list(range(30))


class TestShardedFsck:
    def test_clean_root(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(SCHEMA, root, shards=4, sync=True) as store:
            store.put_many([_rec(i) for i in range(40)])
            store.checkpoint()
        report = fsck_sharded(root)
        assert report.ok and report.exit_code() == 0
        assert len(report.shard_reports) == 4
        doc = report.to_dict()
        assert doc["sharded"] is True and doc["shard_count"] == 4
        assert all(s["exit_code"] == 0 for s in doc["shards"])

    def test_worst_of_exit_code_and_repair(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(SCHEMA, root, shards=4, sync=True) as store:
            store.put_many([_rec(i) for i in range(40)])
        # Tear the tail of one shard's WAL: that shard is repairable
        # (exit 1); the root inherits the worst per-shard code.
        victim = root / "shard-02" / "store.wal"
        victim.write_bytes(victim.read_bytes() + b"TORN GARBAGE")
        report = fsck_sharded(root)
        assert report.exit_code() == 1
        per_shard = [r.exit_code() for r in report.shard_reports]
        assert per_shard.count(1) == 1 and per_shard.count(0) == 3
        # Repair fixes only what is broken; everything comes back clean.
        assert fsck_sharded(root, repair=True).exit_code() == 0
        assert fsck_sharded(root).exit_code() == 0
        with ShardedStore(SCHEMA, root) as reopened:
            assert sorted(reopened.keys()) == list(range(40))

    def test_fatal_shard_dominates(self, tmp_path):
        root = tmp_path / "db"
        with ShardedStore(SCHEMA, root, shards=2, sync=True) as store:
            store.put_many([_rec(i) for i in range(20)])
            store.checkpoint()
        shard = root / "shard-01"
        (shard / "snapshot.json").write_text("{not json", encoding="utf-8")
        # The pages file is the only other copy of the checkpointed data
        # (its WAL segment was reclaimed): rot it too, so no rollback can
        # repair the shard.
        flip_bit_on_disk(next(shard.glob("store.pages.*")), PAGE_SIZE + 100)
        report = fsck_sharded(root)
        assert report.exit_code() == 2

    def test_bad_manifest_is_fatal(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / SHARD_MANIFEST).write_text("{broken", encoding="utf-8")
        report = fsck_sharded(root)
        assert report.exit_code() == 2
        assert not report.shard_reports

    def test_repaired_shard_reopens_with_its_siblings_indexes(
        self, tmp_path, synthetic_records
    ):
        # fsck's rollback publishes shard 0's manifest with no index
        # declarations; the next open declares the siblings' on it and
        # makes them durable there.
        root = tmp_path / "db"
        rows = [r.to_store_dict() for r in synthetic_records[:300]]
        with ShardedStore(PUBLICATION_SCHEMA, root, shards=3, sync=True) as store:
            store.create_index("surnames", IndexKind.HASH)
            store.put_many(rows)
            store.checkpoint()
        manifest = root / "shard-00" / "snapshot.json"
        manifest.write_bytes(manifest.read_bytes()[: manifest.stat().st_size // 2])
        assert fsck_sharded(root, repair=True).exit_code() == 0
        assert read_manifest(root / "shard-00").indexes == []

        surname = rows[0]["surnames"][0]
        want = sorted(r["id"] for r in rows if surname in r["surnames"])
        with ShardedStore(PUBLICATION_SCHEMA, root) as reopened:
            assert [s.has_index("surnames") for s in reopened.shards] == [True] * 3
            assert reopened.index_kind("surnames") is IndexKind.HASH
            assert sorted(r["id"] for r in reopened.find_by("surnames", surname)) == want
            assert len(reopened) == len(rows)
        assert read_manifest(root / "shard-00").indexes == [
            {"field": "surnames", "kind": "hash"}
        ]

    def test_plain_store_is_not_sharded_root(self, tmp_path):
        from repro.storage import RecordStore

        directory = tmp_path / "plain"
        with RecordStore(SCHEMA, directory, sync=True) as store:
            store.put_many([_rec(i) for i in range(5)])
        assert not is_sharded_root(directory)
        assert fsck(directory).exit_code() == 0


class TestPutManyPartialFailure:
    """The cross-shard partial-write contract: every failed shard is
    named, and the survivors' committed work stands."""

    def test_single_shard_failure_reraises_unchanged(self, tmp_path):
        from repro.storage.faultfs import FaultFS, InjectedFault

        fs = FaultFS()
        store = ShardedStore(
            SCHEMA, tmp_path / "db", shards=3, fs=fs, sync=True
        )
        fs.arm("fail_before_fsync", path="shard-01/store.wal")
        with pytest.raises(InjectedFault):
            store.put_many([_rec(i) for i in range(60)])
        store.close()

    def test_multi_shard_failure_names_every_shard(self, tmp_path):
        from repro.errors import MultiShardError
        from repro.storage.faultfs import FaultFS

        fs = FaultFS()
        store = ShardedStore(
            SCHEMA, tmp_path / "db", shards=3, fs=fs, sync=True
        )
        records = [_rec(i) for i in range(60)]
        parts = {store.shard_for(r["id"]) for r in records}
        assert parts == {0, 1, 2}  # the batch really spans all shards
        fs.arm("fail_before_fsync", path="shard-00/store.wal")
        fs.arm("fail_before_fsync", path="shard-02/store.wal")
        with pytest.raises(MultiShardError) as err:
            store.put_many(records)
        assert set(err.value.failures) == {0, 2}
        assert "shard 0" in str(err.value) and "shard 2" in str(err.value)
        # The untouched shard's sub-batch committed and survives reopen.
        store.close()
        with ShardedStore(SCHEMA, tmp_path / "db", sync=True) as reopened:
            kept = sorted(reopened.keys())
            assert kept == sorted(
                r["id"] for r in records if reopened.shard_for(r["id"]) == 1
            )
