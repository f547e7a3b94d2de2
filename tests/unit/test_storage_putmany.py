"""Unit tests for the batched write path: RecordStore.put_many and friends."""

import json

import pytest

from repro.errors import DuplicateKeyError, StorageError, ValidationError
from repro.obs import metrics
from repro.storage.store import IndexKind, RecordStore


def _records(n, start=0):
    return [
        {"id": i, "name": f"n{i % 7}", "year": 1980 + i % 20, "tags": [f"t{i % 3}"]}
        for i in range(start, start + n)
    ]


@pytest.fixture()
def indexed_store(simple_schema):
    store = RecordStore(simple_schema)
    store.create_index("name", IndexKind.HASH)
    store.create_index("year", IndexKind.BTREE)
    store.create_index("tags", IndexKind.BTREE)
    return store


class TestPutMany:
    def test_returns_count_and_lands_everywhere(self, indexed_store):
        assert indexed_store.put_many(_records(100)) == 100
        assert len(indexed_store) == 100
        assert indexed_store.get(42)["name"] == "n0"
        assert len(indexed_store.find_by("name", "n3")) == len(
            [i for i in range(100) if i % 7 == 3]
        )
        assert len(indexed_store.range_by("year", 1990, 1995)) == len(
            [i for i in range(100) if 1990 <= 1980 + i % 20 <= 1995]
        )

    def test_equivalent_to_per_record_inserts(self, simple_schema):
        batched = RecordStore(simple_schema)
        batched.create_index("year")
        batched.put_many(_records(60))
        serial = RecordStore(simple_schema)
        serial.create_index("year")
        for record in _records(60):
            serial.insert(record)
        assert list(batched.scan()) == list(serial.scan())
        assert batched.range_by("year", 1985, 1999) == serial.range_by(
            "year", 1985, 1999
        )

    def test_empty_batch_is_a_noop(self, indexed_store):
        metrics.reset()
        assert indexed_store.put_many([]) == 0
        counters = metrics.snapshot()["counters"]
        assert counters.get("storage.store.put_many.count", 0) == 0

    def test_duplicate_in_store_raises_before_anything_lands(self, indexed_store):
        indexed_store.insert(_records(1)[0])
        with pytest.raises(DuplicateKeyError):
            indexed_store.put_many(_records(10))
        assert len(indexed_store) == 1

    def test_duplicate_within_batch_raises(self, indexed_store):
        records = _records(5) + _records(1, start=2)
        with pytest.raises(DuplicateKeyError):
            indexed_store.put_many(records)
        assert len(indexed_store) == 0

    def test_replace_mode_upserts(self, indexed_store):
        indexed_store.put_many(_records(10))
        replacement = {"id": 3, "name": "zz", "year": 2020, "tags": ["q"]}
        indexed_store.put_many([replacement], on_conflict="replace")
        assert indexed_store.get(3)["name"] == "zz"
        assert not any(r["id"] == 3 for r in indexed_store.find_by("name", "n3"))
        assert any(r["id"] == 3 for r in indexed_store.find_by("tags", "q"))

    def test_replace_mode_last_wins_within_batch(self, indexed_store):
        indexed_store.put_many(
            [
                {"id": 1, "name": "first", "year": 2000},
                {"id": 1, "name": "second", "year": 2001},
            ],
            on_conflict="replace",
        )
        assert indexed_store.get(1)["name"] == "second"
        assert len(indexed_store) == 1
        assert indexed_store.find_by("name", "first") == []

    def test_unknown_conflict_mode_rejected(self, indexed_store):
        with pytest.raises(StorageError):
            indexed_store.put_many(_records(1), on_conflict="ignore")

    def test_validation_failure_aborts_whole_batch(self, indexed_store):
        records = _records(5)
        records[3] = {"id": 100, "name": 42, "year": 2000}  # wrong type
        with pytest.raises(ValidationError):
            indexed_store.put_many(records)
        assert len(indexed_store) == 0

    def test_bumps_index_epoch(self, indexed_store):
        before = indexed_store.index_epoch
        indexed_store.put_many(_records(3))
        assert indexed_store.index_epoch == before + 1

    def test_accepts_generator_input(self, indexed_store):
        assert indexed_store.put_many(iter(_records(25))) == 25


class TestPutManyDurability:
    def test_survives_reopen(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db", sync=True) as store:
            store.create_index("year")
            store.put_many(_records(200))
        with RecordStore(simple_schema, tmp_path / "db") as store:
            assert len(store) == 200
            assert store.get(150)["year"] == 1980 + 150 % 20

    def test_one_fsync_per_batch(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db", sync=True) as store:
            metrics.reset()
            store.put_many(_records(500))
            counters = metrics.snapshot()["counters"]
            assert counters["storage.wal.fsync.count"] == 1
            assert counters["storage.wal.batch.count"] == 1
            assert counters["storage.wal.batch.entries"] == 500

    def test_recovery_matches_per_record_writes(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "batched") as store:
            store.create_index("year")
            store.put_many(_records(80))
        with RecordStore(simple_schema, tmp_path / "serial") as store:
            store.create_index("year")
            for record in _records(80):
                store.insert(record)
        with RecordStore(simple_schema, tmp_path / "batched") as a, RecordStore(
            simple_schema, tmp_path / "serial"
        ) as b:
            assert list(a.scan()) == list(b.scan())
            assert a.range_by("year", 1985, 1999) == b.range_by("year", 1985, 1999)

    def test_put_many_metrics(self, indexed_store):
        metrics.reset()
        indexed_store.put_many(_records(40))
        counters = metrics.snapshot()["counters"]
        assert counters["storage.store.put_many.count"] == 1
        assert counters["storage.store.put_many.records"] == 40
        assert counters["storage.store.put.count"] == 40


class TestApplyBatchFastPath:
    def test_pure_put_batch_routes_through_batched_applier(self, indexed_store):
        metrics.reset()
        indexed_store.apply_batch(
            [{"op": "put", "record": r} for r in _records(50)]
        )
        assert len(indexed_store) == 50
        counters = metrics.snapshot()["counters"]
        assert counters["storage.store.put.count"] == 50
        # Hash maintenance went through one insert_many, not 50 inserts.
        assert counters["storage.hash.insert.count"] == 50

    def test_mixed_batch_still_correct(self, indexed_store):
        indexed_store.put_many(_records(10))
        indexed_store.apply_batch(
            [
                {"op": "del", "key": 3},
                {"op": "put", "record": {"id": 100, "name": "new", "year": 2022}},
            ]
        )
        assert 3 not in indexed_store
        assert indexed_store.get(100)["name"] == "new"

    def test_apply_batch_bumps_epoch(self, indexed_store):
        before = indexed_store.index_epoch
        indexed_store.apply_batch([{"op": "put", "record": _records(1)[0]}])
        assert indexed_store.index_epoch == before + 1


class TestCreateIndexBulkLoad:
    def test_hash_index_on_populated_store_bulk_loads(self, simple_schema):
        store = RecordStore(simple_schema)
        store.put_many(_records(100))
        metrics.reset()
        store.create_index("name", IndexKind.HASH)
        counters = metrics.snapshot()["counters"]
        assert counters["storage.hash.bulk_loads"] == 1
        assert counters["storage.hash.insert.count"] == 100
        assert len(store.find_by("name", "n0")) == len(
            [i for i in range(100) if i % 7 == 0]
        )

    def test_btree_index_on_populated_store_bulk_loads(self, simple_schema):
        store = RecordStore(simple_schema)
        store.put_many(_records(100))
        metrics.reset()
        store.create_index("year", IndexKind.BTREE)
        counters = metrics.snapshot()["counters"]
        assert counters["storage.btree.bulk_loads"] == 1

    def test_put_many_after_the_build_matches_a_fresh_build(self, synthetic_records):
        # The four default indexes: a put_many into built indexes, with
        # keys they hold and new ones, leaves each equal to a build over
        # all the records.
        from repro.corpus.wvlr import PUBLICATION_SCHEMA

        rows = [record.to_store_dict() for record in synthetic_records]
        grown, fresh = RecordStore(PUBLICATION_SCHEMA), RecordStore(PUBLICATION_SCHEMA)
        grown.put_many(rows[:150])
        fresh.put_many(rows)
        for store in (grown, fresh):
            store.create_index("surnames", IndexKind.HASH)
            store.create_index("year", IndexKind.BTREE)
            store.create_index("volume", IndexKind.BTREE)
            store.create_composite_index(("volume", "page"))
        grown.put_many(rows[150:])
        for name in ("surnames", "year", "volume", "volume+page"):
            got = grown._indexes[name].structure
            want = fresh._indexes[name].structure
            assert list(got.items()) == list(want.items()), name
            assert (len(got), got.distinct_keys) == (len(want), want.distinct_keys)
            if got.supports_range:
                got.validate()

    def test_index_lifecycle_bumps_epoch(self, simple_schema):
        store = RecordStore(simple_schema)
        store.put_many(_records(10))
        epoch = store.index_epoch
        store.create_index("year")
        assert store.index_epoch == epoch + 1
        store.drop_index("year")
        assert store.index_epoch == epoch + 2
        store.create_composite_index(("year", "id"))
        assert store.index_epoch == epoch + 3
        # re-declaring an existing index is a no-op and must not churn
        store.create_index("name")
        epoch = store.index_epoch
        store.create_index("name")
        assert store.index_epoch == epoch


class TestSnapshotDurability:
    def test_failed_snapshot_leaves_no_tmp_file(self, simple_schema, tmp_path, monkeypatch):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.put_many(_records(5))

            def boom(*args, **kwargs):
                raise OSError("disk full")

            monkeypatch.setattr(json, "dumps", boom)
            with pytest.raises(OSError):
                store.snapshot()
            leftovers = list((tmp_path / "db").glob("*.json.tmp"))
            assert leftovers == []

    def test_snapshot_then_recover(self, simple_schema, tmp_path):
        with RecordStore(simple_schema, tmp_path / "db") as store:
            store.create_index("year")
            store.put_many(_records(30))
            store.snapshot()
        with RecordStore(simple_schema, tmp_path / "db") as store:
            assert len(store) == 30
            assert store.has_index("year")
