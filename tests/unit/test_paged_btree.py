"""Unit tests for repro.storage.paged_btree.

The tree is exercised against a plain ``dict`` model: after any sequence
of inserts, updates, and deletes, ``items()`` must equal the model's
sorted items — across splits, overflow chains, free-list reuse, and a
close/reopen cycle.  ``verify()`` (the deep structural check fsck runs)
must pass after every phase.
"""

import hashlib
import random
import sys
import threading

import pytest

from repro.errors import StorageError
from repro.obs import metrics
from repro.storage.bufferpool import page_stats_scope
from repro.storage import pages
from repro.storage.paged_btree import MAX_KEY_BYTES, PagedBTree
from repro.storage.pages import OVERFLOW_CAPACITY, InternalNode, LeafDirectory
from tests.cached_nodes import assert_node_matches_page

_PATTERN = bytes(range(256)) * 16

#: sha256 of the pages file bulk-built from :func:`_golden_items`.  The
#: bulk loader's packing decisions are part of the on-disk contract: a
#: checkpoint of the same records must stay byte-identical across
#: versions of the loader.
GOLDEN_SHA256 = "19485e48b0744e6485e88565051a66aa2ca8a78b3d64a0acb3e14c309b0eb336"


def _golden_key(i: int) -> str:
    return f"rec-{i:05d}-" + "k" * (i % 40)


def _golden_value(i: int) -> bytes:
    size = (i * 37) % 241 + (3000 if i % 1499 == 7 else 0)
    return _PATTERN[i % 256 : i % 256 + size]


def _golden_items():
    """8000 sorted keys of varying length, values of 0-240 bytes and six
    that spill to overflow chains: 321 leaves under two internal levels."""
    for i in range(8000):
        yield _golden_key(i), _golden_value(i)


def _model_check(tree: PagedBTree, model: dict) -> None:
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.verify()


class TestBasics:
    def test_empty_tree(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            assert len(tree) == 0
            assert tree.get(1) is None
            assert tree.get(1, b"dflt") == b"dflt"
            assert 1 not in tree
            assert list(tree.items()) == []
            tree.verify()

    def test_insert_get_update(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert(2, b"two")
            tree.insert(1, b"one")
            assert tree.get(1) == b"one"
            assert len(tree) == 2
            tree.insert(1, b"uno")  # update in place
            assert tree.get(1) == b"uno"
            assert len(tree) == 2
            assert list(tree.keys()) == [1, 2]

    def test_delete(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert(1, b"a")
            tree.delete(1)
            assert 1 not in tree
            assert len(tree) == 0
            with pytest.raises(KeyError):
                tree.delete(1)

    def test_oversized_key_rejected(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            with pytest.raises(StorageError):
                tree.insert("k" * (MAX_KEY_BYTES + 10), b"v")

    def test_mixed_key_types_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.insert(("a", 1), b"tuple")
            tree.insert(("a", 2), b"tuple2")
            assert tree.get(("a", 1)) == b"tuple"
            assert [k for k, _ in tree.range_items(("a", 1), ("a", 2))] == [
                ("a", 1),
                ("a", 2),
            ]


class TestSplitsAndScale:
    def test_random_ops_match_dict_model(self, tmp_path):
        rng = random.Random(8)
        path = tmp_path / "t.pages"
        model: dict = {}
        with PagedBTree(path, create=True, pool_pages=16) as tree:
            for _ in range(3000):
                key = rng.randrange(600)
                op = rng.random()
                if op < 0.65 or key not in model:
                    value = f"value-{key}-{rng.randrange(10)}".encode() * rng.randrange(
                        1, 8
                    )
                    tree.insert(key, value)
                    model[key] = value
                else:
                    tree.delete(key)
                    del model[key]
            _model_check(tree, model)
            stats = tree.verify()
            assert stats["depth"] >= 2  # the workload forced splits
        # survives close/reopen byte-identically
        with PagedBTree(path, pool_pages=16) as tree:
            _model_check(tree, model)

    def test_splits_fit_with_uneven_key_sizes(self, tmp_path):
        """6- and 1006-byte keys mixed: halving an internal node by key
        count can leave one half too big for a page."""
        rng = random.Random(96)
        model: dict = {}
        with PagedBTree(tmp_path / "t.pages", create=True, pool_pages=8) as tree:
            for _ in range(200):
                key = f"{rng.randrange(100000):06d}"
                if rng.random() < 0.3:
                    key += "L" * 1000
                tree.insert(key, b"v" * 1000)
                model[key] = b"v" * 1000
            _model_check(tree, model)
            assert tree.verify()["depth"] >= 3

    def test_leaf_split_of_near_maximal_cells(self, tmp_path):
        """Cells of ~1 KiB key plus value: the byte midpoint of the
        overflowing leaf leaves a half that does not fit, so it splits
        into pieces that do."""

        def key(i: int) -> str:
            return f"{i:03d}" + "k" * (500 + (i * 37) % 500)

        model = {key(0): b"", key(11): b"", key(67): b""}
        path = tmp_path / "t.pages"
        with PagedBTree.bulk_build(path, sorted(model.items()), pool_pages=2) as tree:
            for i in range(49, 56):
                tree.insert(key(i), b"")
                model[key(i)] = b""
            tree.insert(key(66), b"v" * 593)
            model[key(66)] = b"v" * 593
            _model_check(tree, model)

    def test_range_items(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            for i in range(200):
                tree.insert(i, str(i).encode())
            inclusive = [k for k, _ in tree.range_items(10, 20)]
            assert inclusive == list(range(10, 21))
            exclusive = [k for k, _ in tree.range_items(10, 20, inclusive=False)]
            assert exclusive == list(range(10, 20))
            assert [k for k, _ in tree.range_items(150, None)] == list(range(150, 200))
            assert [k for k, _ in tree.range_items(None, 5)] == list(range(6))


class TestOverflow:
    def test_large_values_spill_and_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        big = bytes(range(256)) * 64  # 16 KiB, several overflow pages
        with PagedBTree(path, create=True) as tree:
            tree.insert("big", big)
            tree.insert("small", b"s")
            assert tree.get("big") == big
            stats = tree.verify()
            assert stats["overflow_pages"] >= 4
        with PagedBTree(path) as tree:
            assert tree.get("big") == big

    def test_overflow_chain_freed_on_delete(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert("big", b"x" * (OVERFLOW_CAPACITY * 3))
            occupied = tree.verify()["overflow_pages"]
            assert occupied >= 3
            tree.delete("big")
            stats = tree.verify()
            assert stats["overflow_pages"] == 0
            assert stats["free_pages"] >= occupied

    def test_update_replaces_overflow_chain(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True) as tree:
            tree.insert("k", b"a" * (OVERFLOW_CAPACITY * 2))
            tree.insert("k", b"tiny")
            assert tree.get("k") == b"tiny"
            stats = tree.verify()
            assert stats["overflow_pages"] == 0
            assert stats["free_pages"] >= 2  # the old chain was reclaimed


class TestFreeList:
    def test_deleted_pages_are_reused(self, tmp_path):
        with PagedBTree(tmp_path / "t.pages", create=True, pool_pages=16) as tree:
            for i in range(2000):
                tree.insert(i, f"v{i}".encode() * 4)
            for i in range(1500):
                tree.delete(i)
            tree.verify()
            before = tree._pager.meta.page_count
            for i in range(1000):
                tree.insert(i, f"w{i}".encode() * 4)
            grown = tree._pager.meta.page_count - before
            assert grown <= 5  # refill consumed the free list, not the file
            tree.verify()


class TestBulkBuild:
    def test_bulk_build_matches_inserts(self, tmp_path):
        items = [(i, f"value-{i}".encode()) for i in range(5000)]
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter(items))
        try:
            assert len(tree) == 5000
            assert list(tree.items()) == items
            stats = tree.verify()
            assert stats["depth"] >= 2
            assert stats["free_pages"] == 0  # a fresh build wastes nothing
        finally:
            tree.close()

    def test_bulk_build_with_overflow_values(self, tmp_path):
        items = [(i, bytes([i % 256]) * 5000) for i in range(50)]
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter(items))
        try:
            assert tree.get(7) == b"\x07" * 5000
            assert tree.verify()["overflow_pages"] >= 50
        finally:
            tree.close()

    def test_bulk_build_rejects_unsorted(self, tmp_path):
        with pytest.raises(StorageError):
            PagedBTree.bulk_build(
                tmp_path / "bulk.pages", iter([(2, b"b"), (1, b"a")])
            )

    def test_bulk_build_rejects_duplicates(self, tmp_path):
        with pytest.raises(StorageError):
            PagedBTree.bulk_build(
                tmp_path / "bulk.pages", iter([(1, b"a"), (1, b"b")])
            )

    def test_bulk_build_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.pages"
        tree = PagedBTree.bulk_build(path, _golden_items(), pool_pages=8)
        stats = tree.verify()
        tree.close()
        assert (stats["leaves"], stats["internals"], stats["depth"]) == (321, 5, 3)
        assert stats["overflow_pages"] == 6
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256

    def test_bulk_build_empty(self, tmp_path):
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter([]))
        try:
            assert len(tree) == 0
            assert list(tree.items()) == []
            tree.verify()
        finally:
            tree.close()


class TestLifecycle:
    def test_read_only_open_never_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            for i in range(100):
                tree.insert(i, b"v")
        published = path.read_bytes()
        with PagedBTree(path) as tree:
            assert tree.get(50) == b"v"
            list(tree.items())
            tree.verify()
        assert path.read_bytes() == published  # byte-for-byte untouched

    def test_data_crc_survives_reopen(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.set_data_crc(0xCAFEBABE)
        with PagedBTree(path) as tree:
            assert tree.data_crc == 0xCAFEBABE

    def test_abandon_discards_unflushed_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree(path, create=True) as tree:
            tree.insert(1, b"committed")
        tree = PagedBTree(path)
        tree.insert(2, b"doomed")
        tree.abandon()
        with PagedBTree(path) as tree:
            assert tree.get(1) == b"committed"
            assert tree.get(2) is None


class TestCachedDescent:
    """Point reads bisect internal nodes cached on the pool frames and
    search the leaf directory cached on the leaf's frame."""

    @pytest.fixture
    def golden_path(self, tmp_path):
        path = tmp_path / "golden.pages"
        PagedBTree.bulk_build(path, _golden_items(), pool_pages=8).close()
        return path

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls: list[int] = []
        original = InternalNode.unpack
        monkeypatch.setattr(
            InternalNode,
            "unpack",
            classmethod(lambda cls, page: calls.append(1) or original(page)),
        )
        return calls

    @pytest.fixture
    def key_decodes(self, monkeypatch):
        """Keys decoded from any page (internal nodes and leaf cells)."""
        calls: list[int] = []
        original = pages.unpack_key
        monkeypatch.setattr(
            pages,
            "unpack_key",
            lambda buf, offset=0: calls.append(offset) or original(buf, offset),
        )
        return calls

    def test_get_visits_depth_pages_and_decodes_internals_once(
        self, golden_path, decodes, key_decodes
    ):
        hits = metrics.counter("storage.bufferpool.hits")
        misses = metrics.counter("storage.bufferpool.misses")
        with PagedBTree(golden_path, pool_pages=64) as tree:
            depth = tree.verify()["depth"]  # reads through the pager only
            decodes.clear()
            key = _golden_key(4321)
            for expected_decodes in (depth - 1, 0):
                key_decodes.clear()
                before = hits.value + misses.value
                with page_stats_scope() as stats:
                    assert tree.get(key) == _golden_value(4321)
                assert hits.value + misses.value - before == depth
                assert stats.hits + stats.misses == depth
                assert len(decodes) == expected_decodes
                decodes.clear()
            assert key_decodes == []  # the repeat get decoded no leaf cell
            key_decodes.clear()
            with page_stats_scope() as stats:
                assert key in tree
                assert key_decodes == []
                assert tree.get(_golden_key(4321) + "x") is None
            assert len(key_decodes) <= 1  # at most the next cell
            assert stats.hits + stats.misses == 2 * depth
            assert decodes == []
            assert tree.pool.pin_count(tree._pager.meta.root) == 0

    def test_overflow_value_and_neighbours_read_back(self, golden_path):
        with PagedBTree(golden_path, pool_pages=4) as tree:
            for i in (7, 1506, 0, 3999, 7999):  # 7 and 1506 overflow
                assert tree.get(_golden_key(i)) == _golden_value(i)
            assert tree.get("rec-") is None  # below the first key
            assert tree.get("zzz") is None  # above the last key
            assert "rec-00000-" in tree and "rec-00000-k" not in tree

    def test_range_scan_from_a_cached_descent(self, golden_path):
        with PagedBTree(golden_path, pool_pages=16) as tree:
            tree.get(_golden_key(5000))  # caches the path's internal nodes
            got = list(tree.range_items(_golden_key(4998), _golden_key(5003)))
            want = [(_golden_key(i), _golden_value(i)) for i in range(4998, 5004)]
            assert got == want

    def test_concurrent_readers_share_the_cache(self, golden_path):
        """Eight threads descend one tree through a 6-frame pool, so
        frames and their cached nodes are evicted and re-decoded under
        contention; every page visit must be counted exactly once."""
        hits = metrics.counter("storage.bufferpool.hits")
        misses = metrics.counter("storage.bufferpool.misses")
        errors: list[str] = []
        visits: list[int] = []
        reads_per_thread = 150
        saved = sys.getswitchinterval()
        with PagedBTree(golden_path, pool_pages=6) as tree:
            depth = tree.verify()["depth"]

            def reader(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    with page_stats_scope() as stats:
                        for _ in range(reads_per_thread):
                            i = rng.randrange(8000)
                            if i % 1499 == 7:  # an overflow value reads more pages
                                i += 1
                            if tree.get(_golden_key(i)) != _golden_value(i):
                                errors.append(f"wrong value for key {i}")
                    visits.append(stats.hits + stats.misses)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(repr(exc))

            before = hits.value + misses.value
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(saved)
            assert errors == []
            assert visits == [reads_per_thread * depth] * 8
            assert hits.value + misses.value - before == 8 * reads_per_thread * depth
            for page_id, data, node in tree.pool.decoded():
                assert_node_matches_page(node, data, page_id)
            assert len(tree.pool) <= 6

    def test_concurrent_searches_decode_each_cell_once(self, golden_path, key_decodes):
        """Eight threads, started together on a cold pool, read the same
        ascending keys, so each read grows a directory the others are
        growing too: the directories must hold each cell once, and no
        cell may be decoded twice.  A lost race shows only when a thread
        switch lands inside a search, so the run repeats on fresh pools."""
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(20):
                with PagedBTree(golden_path, pool_pages=400) as tree:
                    key_decodes.clear()
                    errors = self._read_ascending_together(tree, range(4000, 4500))
                    assert errors == []
                    decoded = len(key_decodes)
                    cached = tree.pool.decoded()
                    nodes = [node for _pid, _data, node in cached]
                    assert sum(isinstance(n, LeafDirectory) for n in nodes) >= 15
                    assert decoded == sum(len(node.keys) for node in nodes)
                    for page_id, data, node in cached:
                        assert_node_matches_page(node, data, page_id)
        finally:
            sys.setswitchinterval(saved)

    @staticmethod
    def _read_ascending_together(tree: PagedBTree, keys: range) -> list[str]:
        errors: list[str] = []
        start = threading.Barrier(8)

        def reader() -> None:
            try:
                start.wait()
                for i in keys:
                    if tree.get(_golden_key(i)) != _golden_value(i):
                        errors.append(f"wrong value for key {i}")
                    if _golden_key(i) + "x" in tree:
                        errors.append(f"phantom key after {i}")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        return errors

    def test_writes_replace_cached_nodes(self, tmp_path):
        def key(i: int) -> str:  # ~200-byte keys: internal fanout ~19
            return f"{(i * 7919) % 1500:05d}" + "p" * 200

        with PagedBTree(tmp_path / "t.pages", create=True, pool_pages=8) as tree:
            for i in range(1500):
                tree.insert(key(i), b"v" * 40)
                if i % 37 == 0:
                    assert tree.get(key(i // 2)) == b"v" * 40
                    for page_id, data, node in tree.pool.decoded():
                        assert_node_matches_page(node, data, page_id)
            assert tree.verify()["depth"] >= 3
            assert all(tree.get(key(i)) == b"v" * 40 for i in range(0, 1500, 7))
