"""Slow-query log: entry shape, ring, JSONL persistence, rotation."""

import json

import pytest

from repro.obs import logging as obs_logging
from repro.obs.slowlog import SlowQueryLog, read_slow_log


def _record(log: SlowQueryLog, seconds: float = 0.25, **overrides):
    kwargs = dict(
        query="year >= 1900",
        plan="INDEX RANGE (btree) year in [1900, +inf)",
        plan_cached=False,
        rows=42,
        rows_examined=271,
        seconds=seconds,
    )
    kwargs.update(overrides)
    return log.record(**kwargs)


class TestEntryShape:
    def test_entry_fields(self):
        log = SlowQueryLog()
        entry = _record(log, plan_cached=True)
        assert entry["query"] == "year >= 1900"
        assert entry["plan"].startswith("INDEX RANGE")
        assert entry["plan_cached"] is True
        assert entry["rows"] == 42
        assert entry["rows_examined"] == 271
        assert entry["seconds"] == 0.25
        assert entry["ts"].endswith("Z")
        assert "profile" not in entry
        assert "profile_reexecuted" not in entry

    def test_profile_attachment_via_to_dict(self):
        class FakeProfile:
            def to_dict(self):
                return {"op": "sort", "seconds": 0.2}

        log = SlowQueryLog()
        entry = _record(log, profile=FakeProfile())
        assert entry["profile"] == {"op": "sort", "seconds": 0.2}

    def test_trace_id_from_context_when_not_given(self):
        log = SlowQueryLog()
        with obs_logging.trace() as tid:
            entry = _record(log)
        assert entry["trace_id"] == tid

    def test_explicit_trace_id_wins(self):
        log = SlowQueryLog()
        entry = _record(log, trace_id="cafebabe00000001")
        assert entry["trace_id"] == "cafebabe00000001"

    def test_record_emits_warn_event(self):
        obs_logging.reset()
        try:
            log = SlowQueryLog(threshold_s=0.1)
            _record(log)
            (event,) = obs_logging.tail(event="query.slow")
            assert event["level"] == "warn"
            assert event["seconds"] == 0.25
            assert event["threshold_s"] == 0.1
        finally:
            obs_logging.reset()


class TestRing:
    def test_ring_bounded_oldest_first(self):
        log = SlowQueryLog(capacity=3)
        for i in range(5):
            _record(log, query=f"q{i}")
        assert [e["query"] for e in log.entries()] == ["q2", "q3", "q4"]

    def test_reset_clears_ring_only(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path)
        _record(log)
        log.reset()
        assert log.entries() == []
        assert len(read_slow_log(path)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path)
        _record(log, query="a")
        _record(log, query="b")
        entries = read_slow_log(path)
        assert [e["query"] for e in entries] == ["a", "b"]
        # Every line is standalone JSON (tail-able).
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line) for line in lines)

    def test_parent_directory_created(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "slow.jsonl"
        log = SlowQueryLog(path)
        _record(log)
        assert path.exists()


class TestRotation:
    def test_rotation_shifts_and_caps(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        # Each entry is ~200 bytes; force a rotation every ~2 entries.
        log = SlowQueryLog(path, max_bytes=400, keep=2)
        for i in range(12):
            _record(log, query=f"query-number-{i:04d}")
        assert path.exists()
        assert log.rotated_path(1).exists()
        assert log.rotated_path(2).exists()
        assert not log.rotated_path(3).exists()

    def test_rotation_preserves_newest_history(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, max_bytes=400, keep=3)
        for i in range(12):
            _record(log, query=f"query-number-{i:04d}")
        chain = []
        for candidate in (log.rotated_path(3), log.rotated_path(2),
                          log.rotated_path(1), path):
            if candidate.exists():
                chain.extend(read_slow_log(candidate))
        queries = [e["query"] for e in chain]
        # The retained chain is a contiguous, ordered suffix of the input.
        expected = [f"query-number-{i:04d}" for i in range(12)]
        assert queries == expected[len(expected) - len(queries):]
        assert queries[-1] == "query-number-0011"

    def test_no_rotation_below_threshold(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, max_bytes=1024 * 1024)
        for i in range(10):
            _record(log, query=f"q{i}")
        assert not log.rotated_path(1).exists()
        assert len(read_slow_log(path)) == 10
