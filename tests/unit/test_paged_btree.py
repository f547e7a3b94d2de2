"""Unit tests for repro.storage.paged_btree.

Trees are bulk-built from a plain ``dict`` model and checked against
it: point reads, ``items()`` and every ``range_items`` bound must match
the model's sorted items — across leaf and internal levels, overflow
chains, pool sizes, and a close/reopen cycle.  ``verify()`` (the deep
structural check fsck runs) must pass.  A pages file is written once:
the build writes each page once, the meta page last, and a reader's
file refuses writes.
"""

import hashlib
import random
import sys
import threading
from collections import Counter

import pytest

from repro.errors import StorageError
from repro.obs import metrics
from repro.storage.bufferpool import page_stats_scope
from repro.storage import pages
from repro.storage.paged_btree import MAX_KEY_BYTES, PagedBTree
from repro.storage.pages import (
    HEADER,
    HEADER_SIZE,
    META,
    OVERFLOW_CAPACITY,
    OVERFLOW_THRESHOLD,
    PAGE_SIZE,
    InternalNode,
    LeafDirectory,
    PageCorruptionError,
    PageFile,
    finalize_page,
)
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


def _build(path, model: dict, **kwargs) -> PagedBTree:
    return PagedBTree.bulk_build(path, sorted(model.items()), **kwargs)


def _model_check(tree: PagedBTree, model: dict) -> None:
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    assert all(tree.get(key) == value for key, value in model.items())
    tree.verify()


class TestBasics:
    def test_empty_tree(self, tmp_path):
        with PagedBTree.bulk_build(tmp_path / "t.pages", []) as tree:
            assert len(tree) == 0
            assert tree.get(1) is None
            assert tree.get(1, b"dflt") == b"dflt"
            assert 1 not in tree
            assert list(tree.items()) == []
            tree.verify()

    def test_oversized_key_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PagedBTree.bulk_build(
                tmp_path / "t.pages", [("a", b"v"), ("k" * (MAX_KEY_BYTES + 10), b"v")]
            )

    def test_mixed_key_types_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        model = {("a", 1): b"tuple", ("a", 2): b"tuple2", ("b", -1.5, True): b"mixed"}
        _build(path, model).close()
        with PagedBTree(path) as tree:
            assert tree.get(("a", 1)) == b"tuple"
            assert [k for k, _ in tree.range_items(("a", 1), ("a", 2))] == [
                ("a", 1),
                ("a", 2),
            ]
            key = next(k for k in tree.keys() if k[0] == "b")
            assert key == ("b", -1.5, True) and type(key[2]) is bool
            _model_check(tree, model)


class TestSplitsAndScale:
    def test_random_ops_match_dict_model(self, tmp_path):
        """Random reads of random models, each built once and reopened
        at a different pool size: point reads, membership and ranges
        with every kind of bound."""
        for seed, pool in [(8, 2), (9, 5), (10, 16), (11, 256)]:
            rng = random.Random(seed)
            path = tmp_path / f"t{seed}.pages"
            model = {
                rng.randrange(3000): f"value-{i}".encode() * rng.randrange(1, 8)
                for i in range(1200)
            }
            model[rng.randrange(3000)] = b"o" * (OVERFLOW_CAPACITY + 7)
            _build(path, model).close()
            ordered = sorted(model.items())
            with PagedBTree(path, pool_pages=pool) as tree:
                assert tree.verify()["depth"] >= 2
                for _ in range(300):
                    key = rng.randrange(-5, 3005)
                    assert tree.get(key) == model.get(key)
                    assert (key in tree) == (key in model)
                    lo = rng.choice([None, key])
                    hi = rng.choice([None, key + rng.randrange(40)])
                    inclusive = rng.random() < 0.5
                    want = [
                        (k, v)
                        for k, v in ordered
                        if (lo is None or lo <= k)
                        and (hi is None or (k <= hi if inclusive else k < hi))
                    ]
                    got = list(tree.range_items(lo, hi, inclusive=inclusive))
                    assert got == want
                assert len(tree.pool) <= pool
                _model_check(tree, model)

    def test_splits_fit_with_uneven_key_sizes(self, tmp_path):
        """6- and 1006-byte keys mixed: internal nodes must be cut by
        bytes, not by key count, for every one to fit its page."""
        rng = random.Random(96)
        model: dict = {}
        for _ in range(200):
            key = f"{rng.randrange(100000):06d}"
            if rng.random() < 0.3:
                key += "L" * 1000
            model[key] = b"v" * 1000
        path = tmp_path / "t.pages"
        _build(path, model).close()
        with PagedBTree(path, pool_pages=8) as tree:
            _model_check(tree, model)
            assert tree.verify()["depth"] >= 3

    def test_leaf_split_of_near_maximal_cells(self, tmp_path):
        """Cells of ~1 KiB key plus value: the build cuts them into
        leaves that each fit a page, with as few as one or two cells."""

        def key(i: int) -> str:
            return f"{i:03d}" + "k" * (500 + (i * 37) % 500)

        model = {key(i): b"" for i in (0, 11, *range(49, 56), 67)}
        model[key(66)] = b"v" * 593
        model[key(68)] = b"v" * OVERFLOW_THRESHOLD
        path = tmp_path / "t.pages"
        _build(path, model).close()
        with PagedBTree(path, pool_pages=2) as tree:
            _model_check(tree, model)
            assert tree.verify()["leaves"] >= len(model) // 3

    def test_range_items(self, tmp_path):
        model = {i: str(i).encode() for i in range(200)}
        with _build(tmp_path / "t.pages", model) as tree:
            inclusive = [k for k, _ in tree.range_items(10, 20)]
            assert inclusive == list(range(10, 21))
            exclusive = [k for k, _ in tree.range_items(10, 20, inclusive=False)]
            assert exclusive == list(range(10, 20))
            assert [k for k, _ in tree.range_items(150, None)] == list(range(150, 200))
            assert [k for k, _ in tree.range_items(None, 5)] == list(range(6))
            assert [k for k, _ in tree.range_items(None, 5, inclusive=False)] == list(
                range(5)
            )
            assert list(tree.range_items(20, 10)) == []
            assert list(tree.range_items(500, None)) == []


class TestOverflow:
    def test_large_values_spill_and_round_trip(self, tmp_path):
        path = tmp_path / "t.pages"
        big = bytes(range(256)) * 64  # 16 KiB, several overflow pages
        with PagedBTree.bulk_build(path, [("big", big), ("small", b"s")]) as tree:
            assert tree.get("big") == big
            stats = tree.verify()
            assert stats["overflow_pages"] >= 4
        with PagedBTree(path) as tree:
            assert tree.get("big") == big
            assert list(tree.range_items("big", "big")) == [("big", big)]


class TestBulkBuild:
    def test_bulk_build_matches_inserts(self, tmp_path):
        items = [(i, f"value-{i}".encode()) for i in range(5000)]
        tree = PagedBTree.bulk_build(tmp_path / "bulk.pages", iter(items))
        try:
            assert len(tree) == 5000
            assert list(tree.items()) == items
            stats = tree.verify()
            assert stats["depth"] >= 2
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
        tree = PagedBTree.bulk_build(path, _golden_items())
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

    def test_build_writes_each_page_once_and_the_meta_page_last(
        self, tmp_path, monkeypatch
    ):
        written: list[int] = []
        original = PageFile.write_page
        monkeypatch.setattr(
            PageFile,
            "write_page",
            lambda pager, page_id, page: written.append(page_id)
            or original(pager, page_id, page),
        )
        path = tmp_path / "golden.pages"
        tree = PagedBTree.bulk_build(path, _golden_items())
        tree.set_data_crc(0xFEED)
        tree.flush()
        tree.close()
        assert Counter(written) == Counter(range(333))  # pages 0..332, once each
        assert written[-1] == 0
        written.clear()
        PagedBTree.bulk_build(tmp_path / "empty.pages", []).close()
        assert written == [1, 0]  # one empty root leaf, then the meta page


class TestLifecycle:
    def test_read_only_open_never_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        PagedBTree.bulk_build(path, [(i, b"v") for i in range(100)]).close()
        published = path.read_bytes()
        with PagedBTree(path) as tree:
            assert tree.get(50) == b"v"
            list(tree.items())
            list(tree.range_items(10, 20))
            tree.verify()
        assert path.read_bytes() == published  # byte-for-byte untouched

    def test_reader_file_refuses_writes(self, tmp_path):
        path = tmp_path / "t.pages"
        PagedBTree.bulk_build(path, [(i, b"v") for i in range(100)]).close()
        published = path.read_bytes()
        tree = PagedBTree(path)
        tree.set_data_crc(0xBAD)
        with pytest.raises(OSError):
            tree.flush()
        tree.abandon()
        assert path.read_bytes() == published
        with PagedBTree(path) as tree:
            assert tree.data_crc == 0

    def test_data_crc_survives_reopen(self, tmp_path):
        path = tmp_path / "t.pages"
        with PagedBTree.bulk_build(path, [(1, b"one")]) as tree:
            tree.set_data_crc(0xCAFEBABE)
        with PagedBTree(path) as tree:
            assert tree.data_crc == 0xCAFEBABE
            assert tree.get(1) == b"one"

    def test_abandon_discards_unflushed_writes(self, tmp_path):
        """An abandoned build never writes its meta page, so the file
        does not open: only a flushed build is a pages file."""
        path = tmp_path / "t.pages"
        tree = PagedBTree.bulk_build(path, [(1, b"doomed"), (2, b"doomed")])
        tree.set_data_crc(0xCAFEBABE)
        tree.abandon()
        with pytest.raises(PageCorruptionError) as excinfo:
            PagedBTree(path)
        assert excinfo.value.page_id == 0


class TestVerify:
    @staticmethod
    def _rewrite_meta(path, **changes) -> None:
        """Re-stamp the meta page of ``path`` with ``changes`` applied."""
        raw = bytearray(path.read_bytes())
        fields = dict(
            zip(
                ("magic", "version", "page_size", "root", "free_head",
                 "page_count", "entry_count", "data_crc"),
                META.unpack_from(raw, HEADER_SIZE),
            )
        )
        fields.update(changes)
        META.pack_into(raw, HEADER_SIZE, *fields.values())
        raw[:PAGE_SIZE] = finalize_page(raw[:PAGE_SIZE])
        path.write_bytes(bytes(raw))

    def test_verify_rejects_a_free_list_head(self, tmp_path):
        """A meta page naming a free list (here one well-formed page of
        the old free type) fails verification: pages files have none."""
        path = tmp_path / "t.pages"
        with PagedBTree.bulk_build(path, [(i, b"v") for i in range(100)]) as tree:
            page_count = tree.verify()["pages"]
        free = bytearray(PAGE_SIZE)
        HEADER.pack_into(free, 0, 5, 0, 0, 0, 0)
        with open(path, "ab") as fh:
            fh.write(finalize_page(free))
        self._rewrite_meta(path, free_head=page_count, page_count=page_count + 1)
        with PagedBTree(path) as tree:
            assert tree.get(5) == b"v"  # reads never look at the head
            with pytest.raises(PageCorruptionError, match="free list"):
                tree.verify()
        self._rewrite_meta(path, free_head=0)
        with PagedBTree(path) as tree:
            assert tree.verify()["entries"] == 100


class TestCachedDescent:
    """Point reads bisect internal nodes cached on the pool frames and
    search the leaf directory cached on the leaf's frame."""

    @pytest.fixture
    def golden_path(self, tmp_path):
        path = tmp_path / "golden.pages"
        PagedBTree.bulk_build(path, _golden_items()).close()
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
