"""LRU read cache over a :class:`~repro.storage.pages.PageFile`.

The pool is what makes the paged B+ tree *working-set* bound instead of
*dataset* bound: at most ``capacity`` pages are resident at once, so a
million-record page file can be served with a few hundred KiB of RAM as
long as the hot keys fit.  Frames are evicted least-recently-used.  A
pages file is written once, by its build, straight through the pager,
so the pool only ever reads: no frame is dirty, and none needs a pin.

Every page goes through one lookup, :meth:`BufferPool.walk`, which reads
a chain of pages the way a descent does; :meth:`BufferPool.read` fetches
a single page with it::

    pool = BufferPool(pager, capacity=256)
    node = LeafNode.unpack(pool.read(page_id))

A frame's bytes never change, so a frame stays valid for whoever holds
it, even after eviction.  Each frame also has a ``node`` slot where a
walk's caller may keep the decoded form of its bytes; the paged B+ tree
keeps internal nodes there, so a descent decodes each internal page
once per residency instead of once per visit, and a leaf's directory of
the cells point reads have decoded so far.  Evicting the page drops the
frame and its node with it, and ``capacity`` bounds the cache.

Thread safety: all frame bookkeeping runs under one lock, so any number
of readers may share a pool.

Every pool publishes its behaviour through ``storage.bufferpool.*``
metrics: ``hits`` / ``misses`` (counter pair — the hit rate) and
``evictions``.  A pool opened under a
:class:`~repro.storage.sharded.ShardedStore` carries a ``shard`` label
on its counters, so per-shard hit rates are separable.

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

    __slots__ = ("data", "node")

    def __init__(self, data: bytes):
        self.data = data
        self.node: Any = None


def _last(page_id: int, frame: _Frame) -> int:
    """A walk step that ends the walk at its first page."""
    return 0


class BufferPool:
    """Bounded LRU cache of a page file's pages."""

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
            self._hits, self._misses, self._evictions = _HITS, _MISSES, _EVICTIONS
        else:
            self._hits = _metrics.counter("storage.bufferpool.hits", shard=shard)
            self._misses = _metrics.counter("storage.bufferpool.misses", shard=shard)
            self._evictions = _metrics.counter(
                "storage.bufferpool.evictions", shard=shard
            )

    # -- introspection (tests, stats) ----------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def resident(self) -> list[int]:
        """Resident page ids, LRU first."""
        with self._lock:
            return list(self._frames)

    def decoded(self) -> list[tuple[int, bytes, Any]]:
        """``(page id, bytes, node)`` of every frame holding a decoded node."""
        with self._lock:
            return [
                (page_id, frame.data, frame.node)
                for page_id, frame in self._frames.items()
                if frame.node is not None
            ]

    # -- reads ---------------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        """The bytes of ``page_id``: a walk of one page."""
        return self.walk(page_id, _last).data

    def walk(self, page_id: int, step: Callable[[int, _Frame], int]) -> _Frame:
        """Read a chain of pages, as a descent does.

        ``step(page_id, frame)`` returns the next page id, or 0 to end
        the walk; the last frame is returned.  Each page counts one hit
        or one miss and becomes the most recently used; a miss reads
        through the pager (CRC-verified) and evicts the least recently
        used frame when the pool is full.  The walk takes the lock once
        and updates each counter once, so a cached root-to-leaf descent
        does not pay per-page telemetry.  ``step`` runs under the pool
        lock, so it may change ``frame.node`` that concurrent walks
        share.  The caller may keep using ``frame.data`` and
        ``frame.node`` after the frame is evicted: only this frame
        object ever held them.
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
                        if len(frames) > self.capacity:
                            frames.popitem(last=False)
                            self._evictions.inc()
                    else:
                        hits += 1
                        frames.move_to_end(page_id)
                    page_id = step(page_id, frame)
                    if not page_id:
                        return frame
            finally:
                self._count(hits, misses)

    def _count(self, hits: int, misses: int) -> None:
        if hits:
            self._hits.inc(hits)
        if misses:
            self._misses.inc(misses)
        stats = _SCOPE.get()
        if stats is not None:
            stats.add(hits, misses)

    def clear(self) -> None:
        """Drop every frame (e.g. before closing the pager)."""
        with self._lock:
            self._frames.clear()


__all__ = [
    "BufferPool",
    "DEFAULT_POOL_PAGES",
    "PageStats",
    "page_stats_scope",
    "current_page_stats",
]
