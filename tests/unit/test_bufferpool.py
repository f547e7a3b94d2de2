"""Unit tests for repro.storage.bufferpool: the read cache.

The pool caches a page file that was written once and opened read-only,
as every pages file is.  The invariants under test are the ones the
paged B+ tree leans on:

* at most ``capacity`` frames resident, evicted least-recently-used;
* every page request — each page of a walk, and a single :meth:`read` —
  counts one hit or one miss, and each eviction one eviction;
* a frame's decoded-node slot lives exactly as long as the frame.
"""

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.obs import metrics
from repro.storage.bufferpool import BufferPool, page_stats_scope
from repro.storage.pages import LeafNode, PageFile


def _make_pager(tmp_path, pages: int, name: str = "pool.pages") -> PageFile:
    """A read-only page file whose page ``i`` holds key ``i``
    (self-describing), written once beforehand."""
    with PageFile(tmp_path / name, create=True) as builder:
        for _ in range(pages):
            pid = builder.allocate()
            builder.write_page(pid, LeafNode(keys=[pid], values=[b"v"]).pack())
        builder.write_meta()
    return PageFile(tmp_path / name)


class TestLRU:
    def test_capacity_bound_and_lru_order(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=3)
        evictions = metrics.counter("storage.bufferpool.evictions")
        before = evictions.value
        with page_stats_scope() as stats:
            for pid in (1, 2, 3, 4):
                assert LeafNode.unpack(pool.read(pid)).keys == [pid]
        assert (stats.hits, stats.misses) == (0, 4)
        assert len(pool) == 3
        assert pool.resident() == [2, 3, 4]  # 1 was LRU, evicted
        pool.read(2)  # touch 2: now 3 is LRU
        pool.read(5)
        assert pool.resident() == [4, 2, 5]
        assert evictions.value - before == 2

    def test_hit_does_not_reread(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        first = pool.read(1)
        reads = []
        original = pager.read_page
        pager.read_page = lambda pid: reads.append(pid) or original(pid)
        with page_stats_scope() as stats:
            assert pool.read(1) is first
        assert reads == []
        assert (stats.hits, stats.misses) == (1, 0)

    def test_capacity_validation(self, tmp_path):
        pager = _make_pager(tmp_path, 1)
        with pytest.raises(StorageError):
            BufferPool(pager, capacity=0)


class TestUnpinnedWalk:
    """``walk``: the one lookup every read takes, and the frame's
    decoded-node slot."""

    @staticmethod
    def _chain(pids):
        """A step function visiting ``pids`` in order."""
        rest = iter(pids[1:])
        return lambda pid, frame: next(rest, 0)

    def test_walk_counts_and_bumps_like_a_read(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=3)
        pool.read(1)
        with page_stats_scope() as stats:
            frame = pool.walk(1, self._chain([1, 2, 3]))
        assert (stats.hits, stats.misses) == (1, 2)
        assert LeafNode.unpack(frame.data).keys == [3]
        assert pool.resident() == [1, 2, 3]
        pool.walk(4, self._chain([4]))  # a miss evicts the LRU frame, 1
        assert pool.resident() == [2, 3, 4]

    def test_node_slot_survives_hits_and_dies_with_the_frame(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=2)

        def decode(pid, frame):
            if frame.node is None:
                frame.node = LeafNode.unpack(frame.data)
            return 0

        pool.walk(1, decode)
        cached = pool.decoded()[0][2]
        pool.walk(1, decode)
        assert pool.decoded()[0][2] is cached  # a hit keeps the decoded node
        pool.read(1)  # a plain read of the page keeps it too
        assert pool.decoded()[0][2] is cached
        # Eviction drops the frame and its node together.
        pool.walk(2, decode)
        pool.walk(3, decode)
        assert [pid for pid, _data, _node in pool.decoded()] == [2, 3]
        pool.walk(1, decode)
        assert [pid for pid, _data, _node in pool.decoded()] == [3, 1]
        assert pool.decoded()[1][2] is not cached  # decoded afresh
        assert pool.decoded()[1][2] == cached

    def test_walk_counts_a_failed_read(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        pager.read_page = lambda pid: (_ for _ in ()).throw(StorageError("bad"))
        with page_stats_scope() as stats:
            with pytest.raises(StorageError):
                pool.walk(1, self._chain([1]))
        assert (stats.hits, stats.misses) == (0, 1)
        assert len(pool) == 0

    def test_clear_drops_every_frame(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        for pid in (1, 2, 3):
            pool.read(pid)
        pool.clear()
        assert len(pool) == 0
        with page_stats_scope() as stats:
            pool.read(2)
        assert (stats.hits, stats.misses) == (0, 1)


class TestPropertyInvariants:
    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_eviction_never_loses_data(self, accesses, capacity):
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), accesses, capacity)

    @staticmethod
    def _run(tmp_path, accesses, capacity):
        pager = _make_pager(tmp_path, 12)
        try:
            pool = BufferPool(pager, capacity=capacity)
            lru: list[int] = []  # the model: most recently used last
            for pid in accesses:
                assert LeafNode.unpack(pool.read(pid)).keys == [pid]
                if pid in lru:
                    lru.remove(pid)
                lru.append(pid)
                del lru[:-capacity]
                assert pool.resident() == lru
        finally:
            pager.close()


class TestConcurrentReaders:
    def test_concurrent_reads_return_their_pages(self, tmp_path):
        pager = _make_pager(tmp_path, 16)
        pool = BufferPool(pager, capacity=4)
        errors = []
        counts = []

        def reader(seed: int) -> None:
            try:
                with page_stats_scope() as stats:
                    for i in range(300):
                        pid = (seed * 7 + i) % 16 + 1
                        if LeafNode.unpack(pool.read(pid)).keys != [pid]:
                            errors.append(f"page {pid} returned wrong bytes")
                counts.append(stats.hits + stats.misses)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert counts == [300] * 8  # every read counted once
        assert len(pool) <= 4
