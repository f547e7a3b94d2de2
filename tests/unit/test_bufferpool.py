"""Unit tests for repro.storage.bufferpool.

The invariants under test are the ones the paged B+ tree leans on:

* at most ``capacity`` frames resident (unless every frame is pinned);
* a pinned frame is **never** evicted, whatever the access pattern;
* a dirty frame is written back before its slot is reused, so a reader
  that misses always sees the latest bytes;
* pin counts balance — every ``pin`` exit decrements, an extra unpin
  raises.
"""

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bufferpool import BufferPool, page_stats_scope
from repro.storage.pages import LeafNode, PageFile


def _make_pager(tmp_path, pages: int, name: str = "pool.pages") -> PageFile:
    """A page file whose page ``i`` holds key ``i`` (self-describing)."""
    pager = PageFile(tmp_path / name, create=True)
    for _ in range(pages):
        pid = pager.allocate()
        pager.write_page(pid, LeafNode(keys=[pid], values=[b"v"]).pack())
    pager.write_meta()
    return pager


class TestLRU:
    def test_capacity_bound_and_lru_order(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=3)
        for pid in (1, 2, 3, 4):
            with pool.pin(pid):
                pass
        assert len(pool) == 3
        assert pool.resident() == [2, 3, 4]  # 1 was LRU, evicted
        with pool.pin(2):  # touch 2: now 3 is LRU
            pass
        with pool.pin(5):
            pass
        assert pool.resident() == [4, 2, 5]

    def test_hit_does_not_reread(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        with pool.pin(1) as first:
            pass
        reads = []
        original = pager.read_page
        pager.read_page = lambda pid: reads.append(pid) or original(pid)
        with pool.pin(1) as again:
            assert again == first
        assert reads == []

    def test_capacity_validation(self, tmp_path):
        pager = _make_pager(tmp_path, 1)
        with pytest.raises(StorageError):
            BufferPool(pager, capacity=0)


class TestPinning:
    def test_pinned_frame_never_evicted(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            for pid in (2, 3, 4, 5):
                with pool.pin(pid):
                    pass
            assert 1 in pool.resident()
            assert pool.pin_count(1) == 1
        assert pool.pin_count(1) == 0

    def test_all_pinned_overflows_rather_than_evicts(self, tmp_path):
        pager = _make_pager(tmp_path, 5)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1), pool.pin(2), pool.pin(3):
            # over capacity, but every frame has a live reader
            assert len(pool) == 3
        with pool.pin(4):
            pass
        assert len(pool) <= 2  # shrinks back once pins drop

    def test_unbalanced_unpin_raises(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            pass
        with pytest.raises(StorageError):
            pool._release(1)

    def test_free_pinned_page_rejected(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            with pytest.raises(StorageError):
                pool.free_page(1)
            assert 1 in pool.resident()  # refused, still resident


class TestUnpinnedWalk:
    """``walk``: the no-pin read path, and the frame's decoded-node slot."""

    @staticmethod
    def _chain(pids):
        """A step function visiting ``pids`` in order."""
        rest = iter(pids[1:])
        return lambda pid, frame: next(rest, 0)

    def test_walk_counts_and_bumps_like_pin(self, tmp_path):
        pager = _make_pager(tmp_path, 10)
        pool = BufferPool(pager, capacity=3)
        with pool.pin(1):
            pass
        with page_stats_scope() as stats:
            frame = pool.walk(1, self._chain([1, 2, 3]))
        assert (stats.hits, stats.misses) == (1, 2)
        assert LeafNode.unpack(frame.data).keys == [3]
        assert pool.resident() == [1, 2, 3]
        assert all(pool.pin_count(pid) == 0 for pid in (1, 2, 3))
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
        # put_page installs a new frame: the old node cannot outlive its bytes.
        pool.put_page(1, LeafNode(keys=[100], values=[b"w"]).pack())
        assert pool.decoded() == []
        pool.walk(1, decode)
        assert pool.decoded()[0][2].keys == [100]
        # Eviction and free_page drop the frame and its node.
        pool.walk(2, decode)
        pool.walk(3, decode)
        assert [pid for pid, _data, _node in pool.decoded()] == [2, 3]
        pool.free_page(2)
        assert [pid for pid, _data, _node in pool.decoded()] == [3]

    def test_put_page_keeps_pins(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        with pool.pin(1):
            pool.put_page(1, LeafNode(keys=[7], values=[b"x"]).pack())
            assert pool.pin_count(1) == 1
        assert pool.pin_count(1) == 0

    def test_walk_counts_a_failed_read(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        pager.read_page = lambda pid: (_ for _ in ()).throw(StorageError("bad"))
        with page_stats_scope() as stats:
            with pytest.raises(StorageError):
                pool.walk(1, self._chain([1]))
        assert (stats.hits, stats.misses) == (0, 1)


class TestDirtyWriteBack:
    def test_eviction_writes_back_dirty_frame(self, tmp_path):
        pager = _make_pager(tmp_path, 5)
        pool = BufferPool(pager, capacity=2)
        pool.put_page(1, LeafNode(keys=[100], values=[b"new"]).pack())
        assert pool.is_dirty(1)
        for pid in (2, 3, 4):  # push page 1 out
            with pool.pin(pid):
                pass
        assert 1 not in pool.resident()
        # a fresh miss must see the written-back bytes
        with pool.pin(1) as raw:
            assert LeafNode.unpack(raw).keys == [100]

    def test_flush_cleans_without_evicting(self, tmp_path):
        pager = _make_pager(tmp_path, 3)
        pool = BufferPool(pager, capacity=3)
        pool.put_page(2, LeafNode(keys=[7], values=[b"x"]).pack())
        pool.flush()
        assert not pool.is_dirty(2)
        assert 2 in pool.resident()
        assert LeafNode.unpack(pager.read_page(2)).keys == [7]

    def test_clear_with_pin_rejected(self, tmp_path):
        pager = _make_pager(tmp_path, 2)
        pool = BufferPool(pager, capacity=2)
        with pool.pin(1):
            with pytest.raises(StorageError):
                pool.clear()
        pool.clear()
        assert len(pool) == 0


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
            for pid in accesses:
                with pool.pin(pid) as raw:
                    assert LeafNode.unpack(raw).keys == [pid]
                assert len(pool) <= capacity
                assert pool.pin_count(pid) == 0
        finally:
            pager.close()


class TestConcurrentReaders:
    def test_pin_counts_balance_under_contention(self, tmp_path):
        pager = _make_pager(tmp_path, 16)
        pool = BufferPool(pager, capacity=4)
        errors = []

        def reader(seed: int) -> None:
            try:
                for i in range(300):
                    pid = (seed * 7 + i) % 16 + 1
                    with pool.pin(pid) as raw:
                        if LeafNode.unpack(raw).keys != [pid]:
                            errors.append(f"page {pid} returned wrong bytes")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # quiescent: no pins left anywhere, pool back within capacity
        assert all(pool.pin_count(pid) == 0 for pid in pool.resident())
        assert len(pool) <= 4
