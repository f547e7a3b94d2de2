"""Background scrubber: CRC sweeps, rate limiting, and the repair loop."""

import json

import pytest

from repro.storage import (
    HEALTHY,
    QUARANTINED,
    ScrubReport,
    Scrubber,
    ShardedStore,
)
from repro.storage.faultfs import FaultFS, InjectedFault, flip_bit_on_disk
from repro.storage.pages import PAGE_SIZE
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.scrub import _TokenBucket

SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("name", FieldType.STRING)],
    primary_key="id",
)


def _rec(i: int) -> dict:
    return {"id": i, "name": f"rec-{i:05d}"}


def _store(tmp_path, *, shards: int = 3, n: int = 300, fmt: str = "paged"):
    store = ShardedStore(
        SCHEMA, tmp_path / "db", shards=shards, data_format=fmt, sync=True
    )
    store.put_many([_rec(i) for i in range(n)])
    store.checkpoint()
    store.put_many([_rec(i) for i in range(n, n + 30)])
    return store


def _json_edit(edit):
    """A manifest damage that rewrites one field of the parsed document."""
    return lambda raw: json.dumps(edit(json.loads(raw))).encode()


class TestTokenBucket:
    def test_unlimited_never_sleeps(self):
        slept = []
        bucket = _TokenBucket(None, sleep=slept.append)
        bucket.charge(10**9)
        assert slept == []

    def test_charges_beyond_allowance_sleep(self):
        now = [0.0]
        slept = []
        bucket = _TokenBucket(
            1000.0, clock=lambda: now[0], sleep=slept.append
        )
        bucket.charge(1000)  # consumes the initial one-second burst
        bucket.charge(500)  # 500 bytes over: owes 0.5s at 1000 B/s
        assert slept == [pytest.approx(0.5)]

    def test_allowance_refills_with_time(self):
        now = [0.0]
        slept = []
        bucket = _TokenBucket(
            1000.0, clock=lambda: now[0], sleep=slept.append
        )
        bucket.charge(1000)
        now[0] += 2.0  # refill (capped at 1s of budget)
        bucket.charge(1000)
        assert slept == []


class TestScrubClean:
    def test_clean_store_reports_clean(self, tmp_path):
        store = _store(tmp_path)
        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once()
        assert isinstance(report, ScrubReport)
        assert report.clean
        assert report.corrupt_shards == ()
        assert len(report.shards) == 3
        assert all(r.pages > 0 for r in report.shards)  # deep page walk ran
        assert all(r.wal_files > 0 for r in report.shards)
        assert all(store.health.state(i) == HEALTHY for i in range(3))
        store.close()

    def test_last_verdict_round_trip(self, tmp_path):
        store = _store(tmp_path)
        scrubber = Scrubber(store, bytes_per_s=None)
        assert scrubber.last_verdict() is None
        scrubber.run_once()
        verdict = scrubber.last_verdict()
        assert verdict["clean"] is True
        assert verdict["age_s"] >= 0
        assert len(verdict["shards"]) == 3
        store.close()


class TestScrubDetects:
    def _damage_shard_page(self, store, index: int) -> None:
        """Flip a bit in a data page of shard ``index``'s snapshot."""
        snap = store.shard_path(index) / "snapshot.json"
        import json

        pages = store.shard_path(index) / json.loads(snap.read_text())["pages"]
        flip_bit_on_disk(pages, byte_index=1 * PAGE_SIZE + 100, bit=3)

    def test_page_corruption_quarantines_shard(self, tmp_path):
        store = _store(tmp_path)
        self._damage_shard_page(store, 1)
        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once()
        assert not report.clean
        assert report.corrupt_shards == (1,)
        assert store.health.state(1) == QUARANTINED
        assert "[scrub]" in store.health.reason(1)
        # Healthy siblings untouched.
        assert store.health.state(0) == HEALTHY
        assert store.health.state(2) == HEALTHY
        store.close()

    def test_wal_damage_is_detected(self, tmp_path):
        store = _store(tmp_path)
        wal = store.shard_path(2) / "store.wal"
        wal.write_bytes(wal.read_bytes() + b'W1 deadbeef 42 {"op":')
        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once()
        assert 2 in report.corrupt_shards
        assert any("store.wal" in e for e in report.shards[2].errors)
        store.close()

    def test_detect_without_repair_leaves_quarantine(self, tmp_path):
        store = _store(tmp_path)
        self._damage_shard_page(store, 0)
        Scrubber(store, bytes_per_s=None).run_once(repair=False)
        assert store.health.state(0) == QUARANTINED
        store.close()

    @pytest.mark.parametrize(
        "damage",
        [
            _json_edit(lambda m: {**m, "record_count": m["record_count"] + 1}),
            _json_edit(lambda m: {**m, "checksum": f"{int(m['checksum'], 16) ^ 1:08x}"}),
            _json_edit(lambda m: {**m, "version": 9}),
            _json_edit(lambda m: {**m, "indexes": [{"field": 7, "kind": "btree"}]}),
            lambda raw: raw[: len(raw) // 2],
        ],
        ids=["record-count", "checksum", "version", "indexes", "truncated"],
    )
    def test_manifest_damage_quarantines_then_heals(self, tmp_path, damage):
        # Each damage stops the shard from reopening.  Its pages file
        # and WAL are intact, so the repair rolls the manifest back to
        # them and every record survives.
        store = _store(tmp_path)
        manifest = store.shard_path(1) / "snapshot.json"
        raw = manifest.read_bytes()
        manifest.write_bytes(damage(raw))
        assert manifest.read_bytes() != raw
        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once()
        assert report.corrupt_shards == (1,)
        assert store.health.quarantined_shards() == (1,)
        assert "[scrub]" in store.health.reason(1)

        healed = scrubber.run_once(repair=True)
        assert healed.shards[1].repaired
        assert store.health.state(1) == HEALTHY
        assert sorted(store.keys()) == list(range(330))
        assert scrubber.run_once().clean
        store.close()

    def test_checkpoint_artifacts_are_ignored(self, tmp_path):
        # What a checkpoint in flight leaves behind until it finishes: a
        # snapshot temp file, a pages file in the making, an unreferenced
        # pages file and a stale WAL segment.
        store = _store(tmp_path)
        shard = store.shard_path(0)
        (shard / "snapshot.json.tmp").write_bytes(b"{")
        (shard / "store.pages.000007.tmp").write_bytes(b"\0" * PAGE_SIZE)
        (shard / "store.pages.000000").write_bytes(b"\0" * PAGE_SIZE)
        (shard / "store.wal.000001").write_bytes(b"")
        report = Scrubber(store, bytes_per_s=None).run_once()
        assert report.clean
        assert store.health.state(0) == HEALTHY
        store.close()


class TestSelfHealing:
    def test_repair_restores_service_and_data(self, tmp_path):
        # Recoverable damage: the *second* checkpoint publishes its
        # snapshot and then dies before reclaiming the WAL, so when a
        # bit rots in the new pages file the full history (checkpoint 1
        # + sealed segment + active WAL) still exists on disk.
        fs = FaultFS()
        store = ShardedStore(
            SCHEMA, tmp_path / "db", shards=3, data_format="paged", fs=fs
        )
        store.put_many([_rec(i) for i in range(300)])
        store.checkpoint()
        store.put_many([_rec(i) for i in range(300, 330)])
        fs.arm("fail_after_rename", path="shard-01/snapshot.json")
        with pytest.raises(InjectedFault):
            store.checkpoint()
        expected = sorted(_rec(i)["id"] for i in range(330))
        pages = sorted((tmp_path / "db" / "shard-01").glob("store.pages.*"))[-1]
        flip_bit_on_disk(pages, byte_index=1 * PAGE_SIZE + 50, bit=2)
        # Reload the damaged shard state so the scrub sees the disk.
        store.readmit(1, reopen=True)

        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once(repair=True)
        assert report.shards[1].repaired
        assert store.health.state(1) == HEALTHY
        assert sorted(store.keys()) == expected  # zero committed-record loss
        # A second sweep over the repaired store is clean.
        assert scrubber.run_once().clean
        store.close()

    def test_healed_shard_keeps_its_index_declarations(self, tmp_path):
        # The rollback publishes a manifest without index declarations;
        # the readmit must make the sibling's durable again, or the next
        # plain reopen serves the shard without them.
        fs = FaultFS()
        store = ShardedStore(SCHEMA, tmp_path / "db", shards=3, fs=fs)
        store.create_index("name")
        store.put_many([_rec(i) for i in range(300)])
        store.checkpoint()
        store.put_many([_rec(i) for i in range(300, 330)])
        fs.arm("fail_after_rename", path="shard-00/snapshot.json")
        with pytest.raises(InjectedFault):
            store.checkpoint()
        pages = sorted((tmp_path / "db" / "shard-00").glob("store.pages.*"))[-1]
        flip_bit_on_disk(pages, byte_index=1 * PAGE_SIZE + 50, bit=2)
        assert Scrubber(store, bytes_per_s=None).run_once(repair=True).shards[0].repaired
        store.close()

        with ShardedStore(SCHEMA, tmp_path / "db") as reopened:
            assert [s.has_index("name") for s in reopened.shards] == [True] * 3
            assert [r["id"] for r in reopened.find_by("name", "rec-00007")] == [7]
            assert len(reopened) == 330

    def test_failed_reopen_returns_shard_to_quarantine(self, tmp_path):
        # The rollback drops the declarations, so the readmit checkpoints
        # the reopened shard; when that write fails the shard must go
        # back to quarantine, not leak the error out of the sweep.
        fs = FaultFS()
        store = ShardedStore(SCHEMA, tmp_path / "db", shards=3, fs=fs)
        store.create_index("name")
        store.put_many([_rec(i) for i in range(300)])
        store.checkpoint()
        manifest = store.shard_path(0) / "snapshot.json"
        manifest.write_bytes(manifest.read_bytes()[:-5])
        fs.arm("fail_before_fsync", path="shard-00/")
        scrubber = Scrubber(store, bytes_per_s=None)
        assert not scrubber.run_once(repair=True).shards[0].repaired
        assert store.health.state(0) == QUARANTINED
        assert "reopen raised InjectedFault" in store.health.reason(0)

        fs.disarm_all()
        assert scrubber.run_once(repair=True).shards[0].repaired
        assert store.health.state(0) == HEALTHY
        assert len(store) == 300
        store.close()

    def test_repair_refuses_when_history_is_gone(self, tmp_path):
        # After a *successful* checkpoint the WAL history is reclaimed;
        # if the only copy of the data then rots, a zero-loss repair is
        # impossible and the shard must stay quarantined.
        store = _store(tmp_path)
        import json

        snap = store.shard_path(1) / "snapshot.json"
        pages = store.shard_path(1) / json.loads(snap.read_text())["pages"]
        flip_bit_on_disk(pages, byte_index=1 * PAGE_SIZE + 50, bit=2)
        scrubber = Scrubber(store, bytes_per_s=None)
        report = scrubber.run_once(repair=True)
        assert not report.shards[1].repaired
        assert store.health.state(1) == QUARANTINED
        assert "fsck --repair exited" in store.health.reason(1)
        store.close()

    def test_repair_skips_clean_shards(self, tmp_path):
        store = _store(tmp_path)
        report = Scrubber(store, bytes_per_s=None).run_once(repair=True)
        assert report.clean
        assert not any(r.repaired for r in report.shards)
        store.close()


class TestBackgroundLoop:
    def test_start_stop(self, tmp_path):
        store = _store(tmp_path, n=60)
        scrubber = Scrubber(store, bytes_per_s=None)
        scrubber.start(interval_s=3600.0)
        try:
            # The loop scrubs once immediately on start.
            deadline = 50
            while scrubber.last_verdict() is None and deadline:
                import time

                time.sleep(0.05)
                deadline -= 1
            assert scrubber.last_verdict() is not None
        finally:
            scrubber.stop()
        store.close()
