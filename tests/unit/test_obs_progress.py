"""Progress tracking: trackers, the registry, and the stderr bar."""

import io
import threading

from repro.obs import progress
from repro.obs.progress import ProgressBar, ProgressRegistry, ProgressTracker


class TestProgressTracker:
    def test_tick_accumulates(self):
        tracker = ProgressTracker("op", total=10)
        tracker.tick()
        tracker.tick(4)
        assert tracker.done == 5
        assert tracker.total == 10

    def test_snapshot_shape(self):
        tracker = ProgressTracker("op", total=200, shard=3)
        tracker.tick(50)
        snap = tracker.snapshot()
        assert snap["name"] == "op"
        assert snap["done"] == 50
        assert snap["total"] == 200
        assert snap["percent"] == 25.0
        assert snap["attrs"] == {"shard": 3}
        assert snap["started_ts"].endswith("Z")
        assert not snap["finished"]

    def test_unknown_total_has_no_percent_or_eta(self):
        tracker = ProgressTracker("op")
        tracker.tick(7)
        snap = tracker.snapshot()
        assert snap["total"] is None
        assert snap["percent"] is None
        assert snap["eta_s"] is None
        assert tracker.eta_s() is None

    def test_eta_from_observed_rate(self):
        tracker = ProgressTracker("op", total=100)
        tracker.tick(50)
        eta = tracker.eta_s()
        # Half the work at the observed rate: ETA ~ elapsed so far.
        assert eta is not None and eta >= 0.0

    def test_context_manager_finishes_ok(self):
        with ProgressTracker("op", total=1) as tracker:
            tracker.tick()
        assert tracker.finished
        assert tracker.snapshot()["ok"]

    def test_context_manager_records_failure(self):
        tracker = ProgressTracker("op", total=1)
        try:
            with tracker:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracker.finished
        assert not tracker.snapshot()["ok"]

    def test_finish_is_idempotent(self):
        tracker = ProgressTracker("op")
        tracker.finish(ok=True)
        tracker.finish(ok=False)  # ignored: already finished
        assert tracker.snapshot()["ok"]

    def test_listeners_see_ticks_and_finish(self):
        seen = []
        tracker = ProgressTracker("op", total=2)
        tracker.subscribe(lambda t: seen.append((t.done, t.finished)))
        tracker.tick()
        tracker.tick()
        tracker.finish()
        assert seen == [(1, False), (2, False), (2, True)]

    def test_concurrent_ticks_from_many_threads(self):
        tracker = ProgressTracker("op", total=4000)
        def work():
            for _ in range(1000):
                tracker.tick()
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.done == 4000


class TestProgressRegistry:
    def test_active_then_recent(self):
        registry = ProgressRegistry()
        with registry.start("op-a", total=5) as tracker:
            tracker.tick(5)
            snap = registry.snapshot()
            assert [op["name"] for op in snap["active"]] == ["op-a"]
            assert snap["recent"] == []
        snap = registry.snapshot()
        assert snap["active"] == []
        assert [op["name"] for op in snap["recent"]] == ["op-a"]
        assert snap["recent"][0]["done"] == 5

    def test_recent_ring_is_bounded(self):
        registry = ProgressRegistry(keep=3)
        for i in range(6):
            with registry.start(f"op-{i}"):
                pass
        names = [op["name"] for op in registry.snapshot()["recent"]]
        assert names == ["op-5", "op-4", "op-3"]  # newest first

    def test_default_registry_module_helpers(self):
        progress.reset()
        with progress.start("helper-op", total=1) as tracker:
            tracker.tick()
        snap = progress.snapshot()
        assert [op["name"] for op in snap["recent"]] == ["helper-op"]
        progress.reset()
        assert progress.snapshot() == {"active": [], "recent": []}


class TestProgressBar:
    def test_renders_bar_and_final_line(self):
        stream = io.StringIO()
        bar = ProgressBar(stream, width=10, min_interval_s=0.0)
        with ProgressTracker("storage.checkpoint", total=4) as tracker:
            tracker.subscribe(bar)
            tracker.tick(2)
        output = stream.getvalue()
        assert "storage.checkpoint" in output
        assert "[#####-----] 2/4 (50%)" in output
        assert "done in" in output
        assert output.endswith("\n")  # final render is newline-terminated

    def test_rate_limited_renders(self, monkeypatch):
        # The monotonic clock as on a host booted 5 s ago: the first render
        # must not depend on the host having been up longer than the interval.
        monkeypatch.setattr(progress.time, "perf_counter", lambda: 5.0)
        stream = io.StringIO()
        bar = ProgressBar(stream, min_interval_s=3600.0)
        tracker = ProgressTracker("op", total=100)
        tracker.subscribe(bar)
        tracker.tick()  # first render
        tracker.tick()  # suppressed: inside the interval
        assert stream.getvalue().count("\r") == 1

    def test_unknown_total_renders_count_only(self):
        stream = io.StringIO()
        bar = ProgressBar(stream, min_interval_s=0.0)
        tracker = ProgressTracker("fsck", total=None)
        tracker.subscribe(bar)
        tracker.tick(12)
        assert "12 done" in stream.getvalue()
