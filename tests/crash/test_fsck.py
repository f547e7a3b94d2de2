"""Tests for ``repro fsck``: diagnosis, repair policy, exit codes, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import StorageError
from repro.storage import RecordStore, fsck
from repro.storage.faultfs import flip_bit_on_disk
from repro.storage.fsck import FATAL, INFO, REPAIRABLE, REPAIRED
from repro.storage.schema import Field, FieldType, Schema
from tests.legacy_v2 import write_v2_store

SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("name", FieldType.STRING)],
    primary_key="id",
)


def _rec(i: int) -> dict:
    return {"id": i, "name": f"rec-{i}"}


def _build_store(directory, n: int = 10, *, checkpointed: bool = True):
    with RecordStore(SCHEMA, directory, sync=True) as store:
        store.put_many([_rec(i) for i in range(n)])
        if checkpointed:
            store.checkpoint()
        store.insert(_rec(n))  # one live WAL entry beyond the snapshot


def _build_v2_store(directory):
    """A legacy v2 directory: records 0..9 inline plus one WAL entry."""
    return write_v2_store(directory, [_rec(i) for i in range(10)], tail=[_rec(10)])


def _severities(report):
    return [issue.severity for issue in report.issues]


class TestHealthyStore:
    def test_fsck_is_a_noop_on_a_healthy_store(self, tmp_path):
        """Regression: fsck must never 'repair' a store that is fine."""
        directory = tmp_path / "db"
        _build_store(directory)
        before = {
            p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()
        }
        report = fsck(directory, repair=True)
        after = {
            p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()
        }
        assert report.exit_code() == 0
        assert report.ok and report.clean
        assert after == before  # byte-identical: repair touched nothing
        assert report.segments_checked >= 1
        assert report.entries_checked == 1  # the one post-checkpoint insert
        assert report.snapshot_records == 10

    def test_no_snapshot_is_informational(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory, checkpointed=False)
        report = fsck(directory)
        assert report.exit_code() == 0
        assert _severities(report) == [INFO]
        assert report.snapshot_records is None

    def test_missing_directory_is_fatal(self, tmp_path):
        report = fsck(tmp_path / "nope")
        assert report.exit_code() == 2


class TestRepairs:
    def test_torn_tail_reported_then_repaired(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        wal = directory / "store.wal"
        intact = wal.read_bytes()
        wal.write_bytes(intact + b"W1 deadbeef 42 {\"op\":")  # torn frame

        report = fsck(directory)
        assert report.exit_code() == 1
        assert any(
            i.severity == REPAIRABLE and "torn tail" in i.message
            for i in report.issues
        )

        repaired = fsck(directory, repair=True)
        assert repaired.exit_code() == 0
        assert wal.read_bytes() == intact
        assert fsck(directory).exit_code() == 0

    def test_corrupt_tail_repair_reports_data_loss(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        wal = directory / "store.wal"
        flip_bit_on_disk(wal, wal.stat().st_size // 2)  # newline-terminated entry

        report = fsck(directory)
        assert report.exit_code() == 1
        repaired = fsck(directory, repair=True)
        assert repaired.exit_code() == 0
        assert any(
            i.severity == REPAIRED and "LOSES acknowledged data" in i.message
            for i in repaired.issues
        )
        # The store opens again; the corrupted entry is gone.
        with RecordStore(SCHEMA, directory) as store:
            assert set(store.keys()) == set(range(10))

    def test_stale_segments_removed(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        # Fabricate the crash-between-publish-and-reclaim artifact: a
        # sealed segment at or below the snapshot's wal_seal.
        state = json.loads((directory / "snapshot.json").read_text())
        stale = directory / f"store.wal.{state['wal_seal']:06d}"
        stale.write_bytes(b"")
        report = fsck(directory)
        assert report.exit_code() == 1
        repaired = fsck(directory, repair=True)
        assert repaired.exit_code() == 0
        assert not stale.exists()

    def test_stray_snapshot_tmp_removed(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        tmp = directory / "snapshot.json.tmp"
        tmp.write_bytes(b"half a snapshot")
        assert fsck(directory).exit_code() == 1
        assert fsck(directory, repair=True).exit_code() == 0
        assert not tmp.exists()


class TestFatal:
    # Record-level checksum/count checks exist only for the legacy v2
    # snapshot (records inline), which fsck still verifies until the
    # next checkpoint upgrades it.
    def test_snapshot_checksum_mismatch(self, tmp_path):
        directory = tmp_path / "db"
        snapshot = _build_v2_store(directory)
        state = json.loads(snapshot.read_text())
        state["records"][0]["name"] = "tampered"
        snapshot.write_text(json.dumps(state))
        report = fsck(directory, repair=True)
        assert report.exit_code() == 2
        assert any(
            i.severity == FATAL and "checksum mismatch" in i.message
            for i in report.issues
        )

    def test_snapshot_record_count_mismatch(self, tmp_path):
        directory = tmp_path / "db"
        snapshot = _build_v2_store(directory)
        state = json.loads(snapshot.read_text())
        state["record_count"] = 99
        snapshot.write_text(json.dumps(state))
        assert fsck(directory).exit_code() == 2

    def test_segment_chain_gap(self, tmp_path):
        directory = tmp_path / "db"
        with RecordStore(SCHEMA, directory, sync=True) as store:
            for i in range(3):
                store.insert(_rec(i))
                store._wal.rotate()
        (directory / "store.wal.000002").unlink()  # hole in the chain
        report = fsck(directory)
        assert report.exit_code() == 2
        assert any("chain gap" in i.message for i in report.issues)

    def test_unrecoverable_snapshot_keeps_its_pages_file(self, tmp_path):
        # The manifest is unreadable and the pages file it named is
        # damaged, with the history behind it reclaimed: nothing can roll
        # back, so repair refuses — and must not delete the pages file as
        # a stray, the only copy of the data.
        directory = tmp_path / "db"
        _build_store(directory)
        pages = directory / json.loads((directory / "snapshot.json").read_text())["pages"]
        flip_bit_on_disk(pages, 4096 + 64)
        (directory / "snapshot.json").write_bytes(b"{")
        report = fsck(directory, repair=True)
        assert report.exit_code() == 2
        assert pages.exists()

    def test_mid_chain_damage_is_not_repaired(self, tmp_path):
        directory = tmp_path / "db"
        with RecordStore(SCHEMA, directory, sync=True) as store:
            for i in range(3):
                store.insert(_rec(i))
                store._wal.rotate()
        first = directory / "store.wal.000001"
        flip_bit_on_disk(first, first.stat().st_size // 2)
        damaged = first.read_bytes()
        report = fsck(directory, repair=True)
        assert report.exit_code() == 2
        assert first.read_bytes() == damaged  # untouched: repair refused


class TestMalformedIndexDeclarations:
    """A malformed ``indexes`` entry is a damaged snapshot: opening raises
    ``StorageError`` (not a bare KeyError/ValueError/TypeError) in both
    recovery branches, and fsck reports it with a non-zero exit code."""

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize(
        "indexes",
        [
            [{"fielc": "name", "kind": "btree"}],
            [{"field": "name", "kind": "btrea"}],
            {"field": "name", "kind": "btree"},
        ],
        ids=["misspelled-key", "unknown-kind", "not-a-list"],
    )
    def test_rejected_on_open_and_by_fsck(self, tmp_path, indexes, version):
        directory = tmp_path / "db"
        if version == 2:
            snapshot = _build_v2_store(directory)
        else:
            _build_store(directory)
            snapshot = directory / "snapshot.json"
        state = json.loads(snapshot.read_text())
        assert state["version"] == version
        state["indexes"] = indexes
        snapshot.write_text(json.dumps(state))

        with pytest.raises(StorageError, match="index"):
            RecordStore(SCHEMA, directory)
        report = fsck(directory)
        assert report.exit_code() != 0
        assert any("index" in i.message for i in report.issues)
        if version == 3:
            # The pages file is intact, so repair rolls the manifest back
            # to it, dropping the declarations and keeping every record.
            assert fsck(directory, repair=True).exit_code() == 0
            with RecordStore(SCHEMA, directory) as store:
                assert set(store.keys()) == set(range(11))
                assert store.indexed_fields == ()


def _edit_manifest(directory, edit) -> None:
    snapshot = directory / "snapshot.json"
    state = json.loads(snapshot.read_text())
    edit(state)
    snapshot.write_text(json.dumps(state))


class TestManifestReader:
    """Recovery and fsck read ``snapshot.json`` through one reader: any
    damage it finds raises ``StorageError`` on open, and fsck reports the
    same damage as a finding instead of raising."""

    def test_truncated_manifest_refuses_to_open(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        snapshot = directory / "snapshot.json"
        snapshot.write_bytes(snapshot.read_bytes()[:-7])
        with pytest.raises(StorageError, match="not valid JSON"):
            RecordStore(SCHEMA, directory)

    def test_non_hex_checksum_refuses_to_open(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        _edit_manifest(directory, lambda state: state.update(checksum="zz00zz00"))
        with pytest.raises(StorageError, match="checksum"):
            RecordStore(SCHEMA, directory)

    @pytest.mark.parametrize(
        "damage, needle",
        [
            (lambda state: {**state, "wal_seal": "one"}, "wal_seal"),
            (lambda state: [state], "not an object"),
        ],
        ids=["non-integer-wal-seal", "not-an-object"],
    )
    def test_reported_by_fsck_not_raised(self, tmp_path, damage, needle):
        directory = tmp_path / "db"
        _build_store(directory)
        snapshot = directory / "snapshot.json"
        state = json.loads(snapshot.read_text())
        snapshot.write_text(json.dumps(damage(state)))
        with pytest.raises(StorageError, match=needle):
            RecordStore(SCHEMA, directory)
        report = fsck(directory)
        assert any(
            i.severity != INFO and needle in i.message for i in report.issues
        )
        # The pages file is intact, so repair rolls the manifest back to it.
        assert report.exit_code() == 1
        assert fsck(directory, repair=True).exit_code() == 0
        with RecordStore(SCHEMA, directory) as store:
            assert set(store.keys()) == set(range(11))

    def test_v2_records_must_match_their_checksum(self, tmp_path):
        # A bit rotted in an inline record: at open, not only under fsck,
        # or the next checkpoint would republish the rotted record under
        # a fresh CRC that fsck passes.
        directory = tmp_path / "db"
        _build_v2_store(directory)

        def rot(state):
            state["records"][3]["name"] = "rec-8"

        _edit_manifest(directory, rot)
        with pytest.raises(StorageError, match="checksum mismatch"):
            RecordStore(SCHEMA, directory)


class TestReportSurface:
    def test_to_dict_and_render(self, tmp_path):
        directory = tmp_path / "db"
        _build_store(directory)
        (directory / "snapshot.json.tmp").write_bytes(b"x")
        report = fsck(directory)
        as_dict = report.to_dict()
        assert as_dict["exit_code"] == 1
        assert as_dict["ok"] is False
        assert as_dict["issues"][0]["severity"] == REPAIRABLE
        text = report.render()
        assert "REPAIRABLE" in text and "DAMAGED" in text
        json.dumps(as_dict)  # must be JSON-serialisable as-is


class TestCli:
    def test_fsck_clean_exit_0(self, tmp_path, capsys):
        directory = tmp_path / "db"
        _build_store(directory)
        assert main(["fsck", str(directory)]) == 0
        assert "status: clean" in capsys.readouterr().out

    def test_fsck_repairable_exit_1_then_repair(self, tmp_path, capsys):
        directory = tmp_path / "db"
        _build_store(directory)
        (directory / "store.wal").open("ab").write(b"torn")
        assert main(["fsck", str(directory)]) == 1
        assert main(["fsck", str(directory), "--repair"]) == 0
        assert main(["fsck", str(directory)]) == 0

    def test_fsck_json_output(self, tmp_path, capsys):
        directory = tmp_path / "db"
        _build_store(directory)
        assert main(["fsck", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["exit_code"] == 0

    def test_fsck_fatal_exit_2(self, tmp_path):
        assert main(["fsck", str(tmp_path / "nope")]) == 2

    def test_checkpoint_verb_upgrades_v2(self, tmp_path):
        from repro.corpus import PUBLICATION_SCHEMA, load_reference_records

        directory = tmp_path / "db"
        rows = [r.to_store_dict() for r in load_reference_records()]
        write_v2_store(directory, rows[:-5], tail=rows[-5:])
        assert main(["checkpoint", str(directory)]) == 0
        manifest = json.loads((directory / "snapshot.json").read_text())
        assert manifest["version"] == 3 and "records" not in manifest
        assert main(["fsck", str(directory)]) == 0
        with RecordStore(PUBLICATION_SCHEMA, directory) as store:
            assert sorted(store.scan(), key=lambda r: r["id"]) == sorted(
                rows, key=lambda r: r["id"]
            )

    def test_checkpoint_verb_bounds_wal(self, tmp_path, capsys):
        from repro.corpus import PUBLICATION_SCHEMA, load_reference_records, populate_store

        directory = tmp_path / "db"
        with RecordStore(PUBLICATION_SCHEMA, directory) as store:
            populate_store(store, load_reference_records())
        wal_before = (directory / "store.wal").stat().st_size
        assert wal_before > 0
        assert main(["checkpoint", str(directory)]) == 0
        assert "checkpointed" in capsys.readouterr().err
        assert (directory / "store.wal").stat().st_size == 0
        assert not list(directory.glob("store.wal.0*"))
        # The checkpointed directory reopens to the same contents.
        with RecordStore(PUBLICATION_SCHEMA, directory) as store:
            assert len(store) == len(load_reference_records())
        assert main(["fsck", str(directory)]) == 0
