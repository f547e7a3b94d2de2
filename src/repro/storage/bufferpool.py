"""LRU buffer pool over a :class:`~repro.storage.pages.PageFile`.

The pool is what makes the paged B+ tree *working-set* bound instead of
*dataset* bound: at most ``capacity`` pages are resident at once, so a
million-record page file can be served with a few hundred KiB of RAM as
long as the hot keys fit.  Frames are evicted least-recently-used; a
frame with a non-zero **pin count** is never evicted (a reader is
holding a reference into it), and a **dirty** frame is written back to
the page file before its slot is reused.

Usage is a pin/unpin protocol — hold the pin only while decoding::

    pool = BufferPool(pager, capacity=256)
    with pool.pin(page_id) as raw:
        node = LeafNode.unpack(raw)

Read-only callers can skip the pin: :meth:`BufferPool.walk` hands them
the frames themselves.  A frame's bytes never change in place —
:meth:`BufferPool.put_page` installs a new frame — so a frame stays
valid for whoever holds it, even after eviction.  Each frame also has a
``node`` slot where such a caller may keep the decoded form of its
bytes; the paged B+ tree keeps internal nodes there, so a descent
decodes each internal page once per residency instead of once per
visit, and a leaf's directory of the cells point reads have decoded so
far.  Replacing, freeing or evicting the page drops the frame and its
node with it, so the slot can never go stale, and ``capacity`` bounds
the cache.

Thread safety: all frame bookkeeping runs under one lock, so concurrent
readers may pin freely.  Writers (``put_page`` / ``new_page`` /
``free_page``) assume the single-writer discipline the store layer
already enforces — the pool serializes its own metadata, not tree
mutations.

Every pool publishes its behaviour through ``storage.bufferpool.*``
metrics: ``hits`` / ``misses`` (counter pair — the hit rate), ``evictions``,
``dirty_flushes`` (evictions that had to write back first), and the
``pinned`` gauge (currently pinned frames across the process; reads
through :meth:`BufferPool.walk` take no pin and do not move it).  A pool
opened under a :class:`~repro.storage.sharded.ShardedStore` carries a
``shard`` label on its counters, so per-shard hit rates are separable.

Per-query attribution: :func:`page_stats_scope` binds a
:class:`PageStats` accumulator to the current context (a
:class:`contextvars.ContextVar`); every pool hit/miss in that context
while the scope is open is also added to the accumulator, including
those of work run in a copy of it, such as a sharded store's write
pool.  The profiled query path (EXPLAIN ANALYZE) binds one per query,
turning process-global pool counters into per-query page-touch counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from repro.errors import StorageError
from repro.obs import metrics as _metrics
from repro.storage.pages import PageFile

_HITS = _metrics.counter("storage.bufferpool.hits")
_MISSES = _metrics.counter("storage.bufferpool.misses")
_EVICTIONS = _metrics.counter("storage.bufferpool.evictions")
_DIRTY_FLUSHES = _metrics.counter("storage.bufferpool.dirty_flushes")
_PINNED = _metrics.gauge("storage.bufferpool.pinned")

#: Default pool capacity in pages (256 × 4 KiB = 1 MiB resident).
DEFAULT_POOL_PAGES = 256


class PageStats:
    """Per-scope page-touch accumulator (see :func:`page_stats_scope`).

    A sharded store's write-pool tasks run in copies of the caller's
    context, so several threads may add to one scope at once: :meth:`add`
    takes a lock.
    """

    __slots__ = ("hits", "misses", "_lock")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def add(self, hits: int, misses: int) -> None:
        with self._lock:
            self.hits += hits
            self.misses += misses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PageStats(hits={self.hits}, misses={self.misses})"


_SCOPE: ContextVar[PageStats | None] = ContextVar("repro.storage.page_stats", default=None)


@contextmanager
def page_stats_scope(stats: PageStats | None = None) -> Iterator[PageStats]:
    """Attribute this context's pool hits/misses to ``stats`` while open.

    Scopes nest: the innermost wins (restored on exit).  Metrics still
    count globally — the scope is *additional* attribution, not a tap.
    """
    if stats is None:
        stats = PageStats()
    token = _SCOPE.set(stats)
    try:
        yield stats
    finally:
        _SCOPE.reset(token)


def current_page_stats() -> PageStats | None:
    """The accumulator bound to this context, or ``None``."""
    return _SCOPE.get()


class _Frame:
    """One resident page.  ``data`` is never reassigned; ``node`` is the
    caller-owned slot for its decoded form (``None`` until filled): an
    internal node, or a leaf directory that grows under the pool lock."""

    __slots__ = ("data", "node", "pin_count", "dirty")

    def __init__(self, data: bytes):
        self.data = data
        self.node: Any = None
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """Bounded page cache with pin counts and dirty write-back."""

    def __init__(
        self,
        pager: PageFile,
        capacity: int = DEFAULT_POOL_PAGES,
        *,
        shard: int | None = None,
    ):
        if capacity < 1:
            raise StorageError(f"buffer pool capacity must be >= 1, got {capacity}")
        self._pager = pager
        self.capacity = capacity
        # OrderedDict as the LRU queue: most-recently-used at the end.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._lock = threading.RLock()
        # Under a sharded store each shard's pool reports under its own
        # label so per-shard hit rates are separable; unlabeled otherwise.
        if shard is None:
            self._hits, self._misses = _HITS, _MISSES
            self._evictions, self._dirty_flushes = _EVICTIONS, _DIRTY_FLUSHES
        else:
            self._hits = _metrics.counter("storage.bufferpool.hits", shard=shard)
            self._misses = _metrics.counter("storage.bufferpool.misses", shard=shard)
            self._evictions = _metrics.counter(
                "storage.bufferpool.evictions", shard=shard
            )
            self._dirty_flushes = _metrics.counter(
                "storage.bufferpool.dirty_flushes", shard=shard
            )

    # -- introspection (tests, stats) ----------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def resident(self) -> list[int]:
        """Resident page ids, LRU first."""
        with self._lock:
            return list(self._frames)

    def pin_count(self, page_id: int) -> int:
        with self._lock:
            frame = self._frames.get(page_id)
            return frame.pin_count if frame is not None else 0

    def is_dirty(self, page_id: int) -> bool:
        with self._lock:
            frame = self._frames.get(page_id)
            return frame.dirty if frame is not None else False

    def decoded(self) -> list[tuple[int, bytes, Any]]:
        """``(page id, bytes, node)`` of every frame holding a decoded node."""
        with self._lock:
            return [
                (page_id, frame.data, frame.node)
                for page_id, frame in self._frames.items()
                if frame.node is not None
            ]

    # -- the pin protocol ----------------------------------------------------

    @contextmanager
    def pin(self, page_id: int) -> Iterator[bytes]:
        """Pin ``page_id`` resident and yield its bytes.

        The frame cannot be evicted while pinned; unpinning happens on
        context exit.  A miss reads through the pager (CRC-verified) and
        may evict the LRU unpinned frame to stay within capacity.
        """
        frame = self._acquire(page_id)
        try:
            yield frame.data
        finally:
            self._release(page_id)

    def walk(self, page_id: int, step: Callable[[int, _Frame], int]) -> _Frame:
        """Read a chain of pages without pinning them, as a descent does.

        ``step(page_id, frame)`` returns the next page id, or 0 to end
        the walk; the last frame is returned.  Each page counts one hit
        or miss and bumps the LRU exactly like :meth:`pin`, but the walk
        takes the lock once and updates each counter once, so a cached
        root-to-leaf descent does not pay per-page telemetry.  ``step``
        runs under the pool lock, so it may change ``frame.node`` that
        concurrent walks share.  The caller may keep using
        ``frame.data`` and ``frame.node`` after the frame is evicted or
        replaced: only this frame object ever held them.
        """
        frames = self._frames
        hits = misses = 0
        with self._lock:
            try:
                while True:
                    frame = frames.get(page_id)
                    if frame is None:
                        misses += 1
                        frame = _Frame(self._pager.read_page(page_id))
                        frames[page_id] = frame
                        self._shrink_locked()
                    else:
                        hits += 1
                        frames.move_to_end(page_id)
                    page_id = step(page_id, frame)
                    if not page_id:
                        return frame
            finally:
                self._count(hits, misses)

    def _acquire(self, page_id: int) -> _Frame:
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._count(1, 0)
                self._frames.move_to_end(page_id)
                frame.pin_count += 1
            else:
                self._count(0, 1)
                frame = _Frame(self._pager.read_page(page_id))
                # Pin before shrinking: when every other frame is pinned,
                # eviction must not pick the frame this call hands out.
                frame.pin_count = 1
                self._frames[page_id] = frame
                self._shrink_locked()
            _PINNED.inc()
            return frame

    def _count(self, hits: int, misses: int) -> None:
        if hits:
            self._hits.inc(hits)
        if misses:
            self._misses.inc(misses)
        stats = _SCOPE.get()
        if stats is not None:
            stats.add(hits, misses)

    def _release(self, page_id: int) -> None:
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count <= 0:
                raise StorageError(f"unbalanced unpin of page {page_id}")
            frame.pin_count -= 1
            _PINNED.dec()

    # -- writes --------------------------------------------------------------

    def put_page(self, page_id: int, data: bytes) -> None:
        """Install new (finalized) bytes for ``page_id`` and mark it dirty.

        The write-back to disk happens on eviction or :meth:`flush`, so
        repeated updates to a hot page cost one disk write, not many.
        The page gets a new frame (keeping any pins), so a decoded node
        cached on the old frame goes with it.
        """
        with self._lock:
            old = self._frames.get(page_id)
            frame = _Frame(data)
            frame.dirty = True
            self._frames[page_id] = frame
            if old is not None:
                frame.pin_count = old.pin_count
                self._frames.move_to_end(page_id)
            else:
                self._shrink_locked()

    def new_page(self) -> int:
        """Allocate a page id from the pager (free list first)."""
        with self._lock:
            return self._pager.allocate()

    def free_page(self, page_id: int) -> None:
        """Drop ``page_id`` from the pool and return it to the free list."""
        with self._lock:
            frame = self._frames.pop(page_id, None)
            if frame is not None and frame.pin_count > 0:
                self._frames[page_id] = frame
                raise StorageError(f"cannot free pinned page {page_id}")
            self._pager.free(page_id)

    # -- eviction and write-back ---------------------------------------------

    def _shrink_locked(self) -> None:
        """Evict LRU unpinned frames until within capacity."""
        while len(self._frames) > self.capacity:
            victim_id = None
            for candidate_id, candidate in self._frames.items():
                if candidate.pin_count == 0:
                    victim_id = candidate_id
                    break
            if victim_id is None:
                # Every frame is pinned; over-capacity is the lesser evil —
                # evicting a pinned frame would invalidate a live reader.
                return
            victim = self._frames.pop(victim_id)
            if victim.dirty:
                self._pager.write_page(victim_id, victim.data)
                self._dirty_flushes.inc()
            self._evictions.inc()

    def flush(self) -> None:
        """Write back every dirty frame (frames stay resident and clean)."""
        with self._lock:
            for page_id, frame in self._frames.items():
                if frame.dirty:
                    self._pager.write_page(page_id, frame.data)
                    frame.dirty = False
                    self._dirty_flushes.inc()

    def clear(self) -> None:
        """Flush then drop every frame (e.g. before closing the pager)."""
        with self._lock:
            self.flush()
            for frame in self._frames.values():
                if frame.pin_count > 0:
                    raise StorageError("cannot clear pool with pinned frames")
            self._frames.clear()


__all__ = [
    "BufferPool",
    "DEFAULT_POOL_PAGES",
    "PageStats",
    "page_stats_scope",
    "current_page_stats",
]
