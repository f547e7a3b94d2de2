"""A B+ tree stored in fixed-size pages, cached by an LRU buffer pool.

It holds a store's checkpointed records, keyed by primary key: a sorted
map (point get, ordered iteration, range scans) whose data lives in a
:class:`~repro.storage.pages.PageFile`, with only the working set
resident — at most ``pool_pages`` pages at a time, via the
:class:`~repro.storage.bufferpool.BufferPool`.  Opening a
million-record tree touches two pages (meta + root); everything else is
read through on demand.

Values are opaque byte strings (the store layer keeps canonical
per-record JSON there).  Values larger than
:data:`~repro.storage.pages.OVERFLOW_THRESHOLD` spill to overflow-page
chains so leaves always hold many cells.  Keys follow the
:func:`~repro.storage.pages.pack_key` codec (int/str/float/bool and
tuples thereof) and must pack to at most :data:`MAX_KEY_BYTES`.

A pages file is written once.  :meth:`PagedBTree.bulk_build` streams
key-sorted pairs into a fresh file, writing each leaf, internal and
overflow page straight through the pager when it is finished, and
:meth:`PagedBTree.flush` writes the meta page last.  After that the file
is only read: :class:`PagedBTree` opens it read-only, and nothing
updates, splits or frees a page in place.  A checkpoint builds a new
file instead.

Point reads (``get`` and ``in``) cache decoded pages on the buffer-pool
frames: an internal page's :class:`~repro.storage.pages.InternalNode`,
and a leaf's :class:`~repro.storage.pages.LeafDirectory`, the cells
earlier point reads decoded.  A read bisects the directory when its key
is not above the last cell held, and otherwise decodes on from where
the last read stopped, so a leaf's cells are decoded at most once while
its page stays resident.  Both leave the pool with their frame.  Scans
decode private copies instead.

Concurrency: any number of readers.  The tree adds no locking of its
own beyond the buffer pool's, under which a point read searches and
grows a leaf directory that concurrent readers share.

Typical lifecycle::

    # Checkpoint: stream sorted records into a fresh page file.
    tree = PagedBTree.bulk_build(path, sorted_pairs, fs=fs)
    tree.set_data_crc(crc)
    tree.flush()

    # Recovery: open read-through in O(1).
    tree = PagedBTree(path, fs=fs, pool_pages=256)
    value = tree.get("wvlr-001")
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import StorageError
from repro.obs import metrics as _metrics
from repro.storage import faultfs as _faultfs
from repro.storage.bufferpool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.pages import (
    HEADER,
    HEADER_SIZE,
    OVERFLOW_CAPACITY,
    OVERFLOW_THRESHOLD,
    PAGE_SIZE,
    PT_INTERNAL,
    PT_LEAF,
    PT_OVERFLOW,
    InternalNode,
    LeafDirectory,
    LeafNode,
    OverflowRef,
    PageCorruptionError,
    PageFile,
    finalize_page,
    pack_key,
    page_type,
)

#: Largest packed key accepted.  With values over OVERFLOW_THRESHOLD
#: spilled, this bounds every leaf cell and internal entry to about
#: half a page, so any cell fits a leaf, and every internal node the
#: build packs holds several children (each level is smaller).
MAX_KEY_BYTES = 1024

_SEARCHES = _metrics.counter("storage.paged_btree.searches")
_BULK_LOADS = _metrics.counter("storage.paged_btree.bulk_loads")
_DEPTH = _metrics.gauge("storage.paged_btree.depth")


def _cached_node(page_id: int, raw: bytes) -> InternalNode | LeafDirectory:
    """What a point read keeps in a node page's buffer-pool frame."""
    ptype = page_type(raw)
    if ptype == PT_INTERNAL:
        return InternalNode.unpack(raw)
    if ptype == PT_LEAF:
        return LeafDirectory(raw)
    raise PageCorruptionError(page_id, f"expected a node page, got type {ptype}")


class PagedBTree:
    """Sorted key → bytes map over a page file; see the module docstring."""

    def __init__(
        self,
        path: Path | str,
        *,
        fs: _faultfs.FileSystem | None = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        shard: int | None = None,
    ):
        self._attach(PageFile(path, fs=fs), pool_pages, shard)

    def _attach(self, pager: PageFile, pool_pages: int, shard: int | None) -> None:
        self.path = pager.path
        self._pager = pager
        self._pool = BufferPool(pager, capacity=pool_pages, shard=shard)
        # Shard-labeled metric handles under a ShardedStore (matching the
        # shard-labeled storage.sharded.* series); module handles otherwise.
        if shard is None:
            self._searches, self._bulk_loads = _SEARCHES, _BULK_LOADS
            self._depth = _DEPTH
        else:
            self._searches = _metrics.counter(
                "storage.paged_btree.searches", shard=shard
            )
            self._bulk_loads = _metrics.counter(
                "storage.paged_btree.bulk_loads", shard=shard
            )
            self._depth = _metrics.gauge("storage.paged_btree.depth", shard=shard)
        #: Whether the meta page is still to be written: true from a
        #: build until :meth:`flush`; a reader never writes.
        self._dirty = False

    # -- properties ----------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return self._pager.meta.entry_count

    def __len__(self) -> int:
        return self._pager.meta.entry_count

    @property
    def data_crc(self) -> int:
        """The CRC-32 the store layer stamped at checkpoint time."""
        return self._pager.meta.data_crc

    def set_data_crc(self, crc: int) -> None:
        self._pager.meta.data_crc = crc & 0xFFFFFFFF
        self._dirty = True

    @property
    def pool(self) -> BufferPool:
        return self._pool

    # -- node I/O ------------------------------------------------------------

    def _read_node(self, page_id: int) -> LeafNode | InternalNode:
        """A private, freshly decoded copy of a node page, for scans
        that follow the leaf chain."""
        raw = self._pool.read(page_id)
        ptype = page_type(raw)
        if ptype == PT_LEAF:
            return LeafNode.unpack(raw)
        if ptype == PT_INTERNAL:
            return InternalNode.unpack(raw)
        raise PageCorruptionError(page_id, f"expected a node page, got type {ptype}")

    # -- values / overflow chains -------------------------------------------

    def _store_value(self, value: bytes) -> bytes | OverflowRef:
        """What a build's leaf cell holds for ``value``: the bytes, or a
        reference to the overflow chain written for them here."""
        if len(value) <= OVERFLOW_THRESHOLD:
            return value
        chunks = [
            value[i : i + OVERFLOW_CAPACITY]
            for i in range(0, len(value), OVERFLOW_CAPACITY)
        ]
        pids = [self._pager.allocate() for _ in chunks]
        for i, chunk in enumerate(chunks):
            nxt = pids[i + 1] if i + 1 < len(pids) else 0
            page = bytearray(PAGE_SIZE)
            HEADER.pack_into(page, 0, PT_OVERFLOW, 0, len(chunk), 0, nxt)
            page[HEADER_SIZE : HEADER_SIZE + len(chunk)] = chunk
            self._pager.write_page(pids[i], finalize_page(page))
        return OverflowRef(head=pids[0], length=len(value))

    def load_value(self, stored: bytes | OverflowRef) -> bytes:
        """The value a leaf cell stores: its inline bytes, or the bytes of
        the overflow chain it references."""
        if not isinstance(stored, OverflowRef):
            return stored
        parts: list[bytes] = []
        page_id = stored.head
        remaining = stored.length
        while page_id and remaining > 0:
            raw = self._pool.read(page_id)
            if page_type(raw) != PT_OVERFLOW:
                raise PageCorruptionError(
                    page_id, f"overflow chain hit page type {raw[0]}"
                )
            _t, _f, count, _crc, nxt = HEADER.unpack_from(raw, 0)
            parts.append(bytes(raw[HEADER_SIZE : HEADER_SIZE + count]))
            remaining -= count
            page_id = nxt
        value = b"".join(parts)
        if len(value) != stored.length:
            raise PageCorruptionError(
                stored.head,
                f"overflow chain yielded {len(value)} bytes, expected {stored.length}",
            )
        return value

    # -- search --------------------------------------------------------------

    def _search(self, key: Any) -> tuple[Any, bytes | OverflowRef | None]:
        """The frame of the leaf covering ``key`` and the value stored
        under ``key`` there (inline bytes or an overflow reference), or
        ``None``; for read-only callers.

        Each node page visited is decoded into its frame's ``node`` slot
        once per buffer-pool residency: an :class:`InternalNode`, whose
        key list the descent bisects, or a :class:`LeafDirectory`, which
        the search grows.  The leaf search runs inside the walk, under
        the pool lock, because concurrent readers share the directory.
        Nothing else may mutate these nodes.  One pool hit or miss per
        page visited.
        """
        found = None

        def step(page_id: int, frame: Any) -> int:
            nonlocal found
            node = frame.node
            if node is None:
                node = frame.node = _cached_node(page_id, frame.data)
            if node.__class__ is LeafDirectory:
                found = node.find(key)
                return 0
            return node.children[bisect.bisect_right(node.keys, key)]

        return self._pool.walk(self._pager.meta.root, step), found

    def find(self, key: Any) -> bytes | OverflowRef | None:
        """The leaf cell stored under ``key`` (inline bytes or an overflow
        reference, nothing loaded), or ``None``: one counted descent."""
        self._searches.inc()
        return self._search(key)[1]

    def get(self, key: Any, default: Any = None) -> bytes | Any:
        stored = self.find(key)
        if stored is None:
            return default
        return self.load_value(stored)

    def __contains__(self, key: Any) -> bool:
        return self.find(key) is not None

    # -- iteration -----------------------------------------------------------

    def _leftmost_leaf(self) -> tuple[int, LeafNode]:
        page_id = self._pager.meta.root
        node = self._read_node(page_id)
        while isinstance(node, InternalNode):
            page_id = node.children[0]
            node = self._read_node(page_id)
        return page_id, node

    def _chain(self, leaf: LeafNode) -> Iterator[LeafNode]:
        """``leaf`` and each leaf after it, via the leaf chain."""
        while True:
            yield leaf
            if not leaf.next_leaf:
                return
            node = self._read_node(leaf.next_leaf)
            if not isinstance(node, LeafNode):
                raise PageCorruptionError(leaf.next_leaf, "leaf chain left the leaves")
            leaf = node

    def leaves(self) -> Iterator[tuple[list[Any], list[bytes]]]:
        """Each leaf's keys and values, leaf by leaf in key order, with
        overflow values loaded.  A caller that decodes a whole leaf at
        once reads the tree through this."""
        for leaf in self._chain(self._leftmost_leaf()[1]):
            yield leaf.keys, [self.load_value(stored) for stored in leaf.values]

    def items(self) -> Iterator[tuple[Any, bytes]]:
        """All ``(key, value)`` pairs in key order."""
        for keys, values in self.leaves():
            yield from zip(keys, values)

    def keys(self) -> Iterator[Any]:
        """All keys in order, from the leaves alone: no value or overflow
        chain is loaded."""
        for leaf in self._chain(self._leftmost_leaf()[1]):
            yield from leaf.keys

    def range_items(
        self, lo: Any = None, hi: Any = None, *, inclusive: bool = True
    ) -> Iterator[tuple[Any, bytes]]:
        """Pairs with ``lo <= key <= hi`` (``< hi`` when not inclusive)."""
        self._searches.inc()
        if lo is None:
            _pid, leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf = LeafNode.unpack(self._search(lo)[0].data)
            idx = bisect.bisect_left(leaf.keys, lo)
        for leaf in self._chain(leaf):
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if hi is not None and (key > hi if inclusive else key >= hi):
                    return
                yield key, self.load_value(leaf.values[idx])
                idx += 1
            idx = 0

    # -- bulk build ----------------------------------------------------------

    @classmethod
    def bulk_build(
        cls,
        path: Path | str,
        items: Iterable[tuple[Any, bytes]],
        *,
        fs: _faultfs.FileSystem | None = None,
        shard: int | None = None,
    ) -> "PagedBTree":
        """Build a fresh pages file from **key-sorted** ``(key, value)`` pairs.

        Streams: each leaf, internal and overflow page is written
        straight through the pager once, when it is finished, at a page
        id taken by extending the file.  Resident memory is one leaf
        plus one (first_key, page_id) pair per leaf for the internal
        levels.  The returned tree reads like any other, but its meta
        page is written only by :meth:`flush` (fsync included) or
        :meth:`close`; this is the checkpoint path, which flushes after
        :meth:`set_data_crc`.  A build that raises leaves the file
        closed and without a meta page.
        """
        tree = cls.__new__(cls)
        tree._attach(PageFile(path, fs=fs, create=True), DEFAULT_POOL_PAGES, shard)
        tree._dirty = True
        tree._bulk_loads.inc()
        try:
            tree._bulk_load(items)
        except BaseException:
            tree.abandon()
            raise
        return tree

    def _bulk_load(self, items: Iterable[tuple[Any, bytes]]) -> None:
        # Linear time: every key is packed once for sizing, and each
        # node's packed size is kept as a running byte count rather than
        # recomputed per appended key.  Page ids follow the file's
        # growth: the first leaf is page 1 (the root of an empty tree),
        # a value's overflow pages come when the value does, the next
        # leaf's id when the current one is full, and an internal
        # node's id when the node is.
        pager = self._pager
        write = pager.write_page
        empty_leaf = HEADER_SIZE + 4  # header + prev_leaf
        cur_pid = pager.allocate()
        cur = LeafNode(keys=[], values=[])
        cur_size = empty_leaf
        prev_pid = 0
        # (first key, its packed length, page id) per leaf
        leaf_index: list[tuple[Any, int, int]] = []
        first_len = 0
        last_key: Any = None
        count = 0

        for key, value in items:
            if last_key is not None and not key > last_key:
                raise StorageError(
                    f"bulk_build input not strictly key-sorted at {key!r}"
                )
            key_len = len(pack_key(key))
            if key_len > MAX_KEY_BYTES:
                raise StorageError(
                    f"key packs to more than {MAX_KEY_BYTES} bytes: {key!r:.64}"
                )
            last_key = key
            stored = self._store_value(value)
            cell = LeafNode.cell_size(key_len, stored)
            if cur.keys and cur_size + cell > PAGE_SIZE:
                nxt_pid = pager.allocate()
                cur.prev_leaf, cur.next_leaf = prev_pid, nxt_pid
                write(cur_pid, cur.pack())
                leaf_index.append((cur.keys[0], first_len, cur_pid))
                prev_pid, cur_pid = cur_pid, nxt_pid
                cur = LeafNode(keys=[], values=[])
                cur_size = empty_leaf
            if not cur.keys:
                first_len = key_len
            cur.keys.append(key)
            cur.values.append(stored)
            cur_size += cell
            count += 1

        cur.prev_leaf, cur.next_leaf = prev_pid, 0
        write(cur_pid, cur.pack())
        leaf_index.append((cur.keys[0] if cur.keys else None, first_len, cur_pid))
        pager.meta.entry_count = count

        # Internal levels, bottom up, until one node remains.  An internal
        # node of one child packs to HEADER_SIZE + 4 bytes, and each
        # further (key, child) pair adds 2 + key length + 4.
        level = leaf_index
        while len(level) > 1:
            next_level: list[tuple[Any, int, int]] = []
            node_first, node_first_len, first_child = level[0]
            node = InternalNode(keys=[], children=[first_child])
            size = HEADER_SIZE + 4
            for first_key, key_len, child_pid in level[1:]:
                entry = 2 + key_len + 4
                if size + entry > PAGE_SIZE:
                    pid = pager.allocate()
                    write(pid, node.pack())
                    next_level.append((node_first, node_first_len, pid))
                    node = InternalNode(keys=[], children=[child_pid])
                    node_first, node_first_len = first_key, key_len
                    size = HEADER_SIZE + 4
                else:
                    node.keys.append(first_key)
                    node.children.append(child_pid)
                    size += entry
            pid = pager.allocate()
            write(pid, node.pack())
            next_level.append((node_first, node_first_len, pid))
            level = next_level
        pager.meta.root = level[0][2]

    # -- verification --------------------------------------------------------

    def verify(self, *, on_page: Callable[[int], None] | None = None) -> dict[str, Any]:
        """Deep-check every reachable page; raise on any inconsistency.

        Every read goes straight through the pager (not the pool) so
        disk-level damage is caught even when a clean copy is cached;
        the file is not written.  Checks page CRCs, in-node key order,
        uniform leaf depth, the doubly-linked leaf chain (global key
        order across leaves), overflow chain lengths, the meta entry
        count, and that the meta page names no free list.  Returns a
        stats dict.

        ``on_page`` (when given) is called with ``1`` for every node
        page walked — the progress-tracker hook for long fsck runs.
        """
        meta = self._pager.meta
        if meta.free_head:
            raise PageCorruptionError(
                0, f"meta page names free-list head {meta.free_head}; "
                "pages files have no free list",
            )
        stats = {
            "pages": meta.page_count,
            "leaves": 0,
            "internals": 0,
            "overflow_pages": 0,
            "entries": 0,
            "depth": 0,
            "data_crc": meta.data_crc,
        }
        leaf_chain: list[tuple[int, LeafNode]] = []
        leaf_depths: set[int] = set()

        def walk(page_id: int, depth: int, lo: Any, hi: Any) -> None:
            raw = self._pager.read_page(page_id)  # CRC-verified
            if on_page is not None:
                on_page(1)
            ptype = page_type(raw)
            if ptype == PT_LEAF:
                node = LeafNode.unpack(raw)
                self._verify_keys(page_id, node.keys, lo, hi)
                for stored in node.values:
                    if isinstance(stored, OverflowRef):
                        stats["overflow_pages"] += self._verify_chain(stored)
                stats["leaves"] += 1
                stats["entries"] += len(node.keys)
                leaf_depths.add(depth)
                leaf_chain.append((page_id, node))
            elif ptype == PT_INTERNAL:
                node = InternalNode.unpack(raw)
                self._verify_keys(page_id, node.keys, lo, hi)
                if len(node.children) != len(node.keys) + 1:
                    raise PageCorruptionError(page_id, "child/key count mismatch")
                stats["internals"] += 1
                bounds = [lo, *node.keys, hi]
                for i, child in enumerate(node.children):
                    walk(child, depth + 1, bounds[i], bounds[i + 1])
            else:
                raise PageCorruptionError(page_id, f"unexpected page type {ptype}")

        walk(meta.root, 1, None, None)
        stats["depth"] = max(leaf_depths)
        if len(leaf_depths) != 1:
            raise PageCorruptionError(meta.root, f"uneven leaf depths {leaf_depths}")
        if stats["entries"] != meta.entry_count:
            raise PageCorruptionError(
                0, f"meta says {meta.entry_count} entries, tree has {stats['entries']}"
            )
        # Leaf chain: walk() visits leaves left-to-right, so prev/next
        # must thread them in exactly that order.
        for i, (page_id, node) in enumerate(leaf_chain):
            expect_prev = leaf_chain[i - 1][0] if i > 0 else 0
            expect_next = leaf_chain[i + 1][0] if i + 1 < len(leaf_chain) else 0
            if node.prev_leaf != expect_prev or node.next_leaf != expect_next:
                raise PageCorruptionError(
                    page_id,
                    f"leaf chain broken: prev={node.prev_leaf} next={node.next_leaf},"
                    f" expected prev={expect_prev} next={expect_next}",
                )
        self._depth.set(stats["depth"])
        return stats

    @staticmethod
    def _verify_keys(page_id: int, keys: list, lo: Any, hi: Any) -> None:
        for a, b in zip(keys, keys[1:]):
            if not a < b:
                raise PageCorruptionError(page_id, f"keys out of order: {a!r} !< {b!r}")
        if keys:
            if lo is not None and keys[0] < lo:
                raise PageCorruptionError(page_id, f"key {keys[0]!r} below bound {lo!r}")
            if hi is not None and not keys[-1] < hi:
                raise PageCorruptionError(page_id, f"key {keys[-1]!r} at/above bound {hi!r}")

    def _verify_chain(self, ref: OverflowRef) -> int:
        pages = 0
        got = 0
        page_id = ref.head
        while page_id:
            raw = self._pager.read_page(page_id)
            if page_type(raw) != PT_OVERFLOW:
                raise PageCorruptionError(page_id, "overflow chain left overflow pages")
            _t, _f, count, _crc, nxt = HEADER.unpack_from(raw, 0)
            got += count
            pages += 1
            page_id = nxt
            if pages > self._pager.meta.page_count:
                raise PageCorruptionError(ref.head, "overflow chain cycle")
        if got != ref.length:
            raise PageCorruptionError(
                ref.head, f"overflow chain holds {got} bytes, ref says {ref.length}"
            )
        return pages

    # -- durability ----------------------------------------------------------

    def flush(self) -> None:
        """Write the meta page and fsync the page file (a build's last
        step; a reader's file refuses the write)."""
        self._pager.write_meta()
        self._pager.fsync()
        self._dirty = False

    def close(self) -> None:
        """Flush a build whose meta page is not yet written, and release
        the file.  A reader never writes, so a published checkpoint
        stays byte-identical under read traffic."""
        try:
            if self._dirty:
                self.flush()
        finally:
            self._pool.clear()
            self._pager.close()

    def abandon(self) -> None:
        """Release the file without writing the meta page (crash-path
        cleanup of a doomed build; the caller deletes the file next)."""
        self._dirty = False
        self._pool.clear()
        self._pager.close()

    def __enter__(self) -> "PagedBTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["PagedBTree", "MAX_KEY_BYTES"]
