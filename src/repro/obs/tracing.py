"""Nestable spans with ring-buffer retention.

A :class:`Span` is a context manager recording a name, wall time (via the
monotonic :func:`time.perf_counter`), key/value attributes, and child
spans.  A :class:`Tracer` maintains a per-thread span stack so nesting is
automatic::

    with tracer.span("build.index", records=42):
        with tracer.span("build.collate"):
            ...

Finished *root* spans land in a bounded ring buffer (oldest evicted
first), so a long-lived process keeps the most recent traces without
unbounded growth.  A disabled tracer hands out a shared no-op span and
touches no per-thread state — the hot-path cost is one flag check.

Cross-thread propagation
------------------------

The span stack is per-thread, so work handed to a pool thread would
normally start a *new* root there — detaching per-shard work (a sharded
store's parallel writes and checkpoints) from its caller's trace and
littering the ring with orphan roots.
:class:`TraceContext` fixes that: ``TraceContext.capture()`` on the
submitting thread grabs the current trace id and span, and
``ctx.attach()`` on the worker re-binds both — the captured span is
pushed as a **foreign frame** (new spans nest under it; it is never
finished or retained by the worker), and the trace id is re-bound so
the worker's log lines join the caller's trace::

    ctx = TraceContext.capture()
    def worker():
        with ctx.attach():
            with span("ingest.shard", shard=3):   # child of the caller's span
                ...
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "TraceContext",
    "get_default_tracer",
    "span",
    "set_enabled",
    "is_enabled",
    "reset",
    "finished_spans",
]

#: Default number of finished root spans retained by a tracer.
DEFAULT_CAPACITY = 256


class Span:
    """One timed operation with attributes and child spans.

    Spans are created by :meth:`Tracer.span`; use ``set_attribute`` to
    attach data discovered mid-flight (row counts, chosen access path).
    """

    __slots__ = ("name", "attributes", "children", "_start", "_end")

    def __init__(self, name: str, attributes: dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.children: list["Span"] = []
        self._start = time.perf_counter()
        self._end: float | None = None

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self._end is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view: name, duration, attributes, children."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def tree(self) -> str:
        """Indented one-line-per-span rendering of this span's subtree."""
        lines: list[str] = []
        self._tree_lines(lines, 0)
        return "\n".join(lines)

    def _tree_lines(self, lines: list[str], depth: int) -> None:
        attrs = " ".join(f"{k}={v!r}" for k, v in self.attributes.items())
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(f"{'  ' * depth}{self.name}  {self.duration_s * 1e3:.3f}ms{suffix}")
        for child in self.children:
            child._tree_lines(lines, depth + 1)

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, children={len(self.children)})"


class _SpanHandle:
    """Context manager binding a live span to its tracer's thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._span._end = time.perf_counter()
        self._tracer._pop(self._span)


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = "<disabled>"
    attributes: dict[str, Any] = {}
    children: list[Span] = []
    duration_s = 0.0
    finished = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; retains the last ``capacity`` finished roots.

    >>> tracer = Tracer(capacity=8)
    >>> with tracer.span("outer", kind="demo") as outer:
    ...     with tracer.span("inner"):
    ...         pass
    >>> root = tracer.finished_spans()[-1]
    >>> root.name, [c.name for c in root.children]
    ('outer', ['inner'])
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._enabled = enabled
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- enable / disable ---------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- span creation ------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Any:
        """Open a span as a context manager; nests under the thread's
        current span, or starts a new root."""
        if not self._enabled:
            return _NULL_SPAN
        return _SpanHandle(self, Span(name, dict(attributes)))

    def current_span(self) -> Span | None:
        """The innermost open span on this thread (None outside any span)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack:  # pragma: no cover - defensive
            return
        # Pop through any spans abandoned by exceptions until ours is off.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack:
            with self._lock:
                self._finished.append(span)

    # -- foreign frames (cross-thread propagation) --------------------------

    def _push_foreign(self, span: Span) -> None:
        """Adopt another thread's open span as this thread's stack base.

        Unlike :meth:`_push`, the span is *not* linked as a child of
        anything here — it already lives in its owner's tree.  New spans
        opened on this thread nest under it via the normal push path.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop_foreign(self, span: Span) -> None:
        """Remove a foreign frame without finishing or retaining it.

        The owning thread's ``__exit__`` sets ``_end`` and files the root
        in the ring; doing either here would double-finish the span or
        record an orphan root per pool thread.
        """
        stack = getattr(self._local, "stack", None)
        while stack:
            if stack.pop() is span:
                break

    # -- retention ----------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Finished root spans, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return list(self._finished)

    def last_root(self) -> Span | None:
        with self._lock:
            return self._finished[-1] if self._finished else None

    def reset(self) -> None:
        """Drop all retained spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()


class TraceContext:
    """Capturable trace state: one trace id + one parent span.

    Capture on the thread that owns the trace, attach on each worker
    thread the work fans out to — every span/log line the worker emits
    then joins the originating trace instead of starting a detached one.
    Capturing outside any trace/span yields a context whose ``attach``
    is a no-op, so call sites need no conditionals.

    Instances are immutable and may be attached concurrently by any
    number of worker threads (child-list appends are GIL-atomic).
    """

    __slots__ = ("trace_id", "parent_span", "_tracer")

    def __init__(
        self,
        trace_id: str | None,
        parent_span: Span | None,
        tracer: "Tracer | None" = None,
    ):
        self.trace_id = trace_id
        self.parent_span = parent_span
        self._tracer = tracer if tracer is not None else _DEFAULT_TRACER

    @classmethod
    def capture(cls, tracer: "Tracer | None" = None) -> "TraceContext":
        """Snapshot the calling thread's trace id and innermost open span."""
        from repro.obs import logging as _logging

        tracer = tracer if tracer is not None else _DEFAULT_TRACER
        parent = tracer.current_span() if tracer.enabled else None
        return cls(_logging.current_trace_id(), parent, tracer)

    @contextmanager
    def attach(self) -> Iterator["TraceContext"]:
        """Re-bind the captured trace id and parent span on this thread."""
        from repro.obs import logging as _logging

        parent = self.parent_span
        adopt = (
            parent is not None
            and self._tracer.enabled
            and self._tracer.current_span() is not parent
        )
        if adopt:
            self._tracer._push_foreign(parent)
        try:
            if self.trace_id is not None:
                with _logging.trace(self.trace_id):
                    yield self
            else:
                yield self
        finally:
            if adopt:
                self._tracer._pop_foreign(parent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parent = self.parent_span.name if self.parent_span is not None else None
        return f"TraceContext(trace_id={self.trace_id!r}, parent={parent!r})"


# -- process-global default tracer ------------------------------------------

_DEFAULT_TRACER = Tracer()


def get_default_tracer() -> Tracer:
    """The process-global tracer all built-in instrumentation reports to."""
    return _DEFAULT_TRACER


def span(name: str, **attributes: Any) -> Any:
    """Open a span on the default tracer."""
    return _DEFAULT_TRACER.span(name, **attributes)


def set_enabled(flag: bool) -> None:
    if flag:
        _DEFAULT_TRACER.enable()
    else:
        _DEFAULT_TRACER.disable()


def is_enabled() -> bool:
    return _DEFAULT_TRACER.enabled


def reset() -> None:
    _DEFAULT_TRACER.reset()


def finished_spans() -> list[Span]:
    """Finished root spans on the default tracer."""
    return _DEFAULT_TRACER.finished_spans()


def last_root() -> Span | None:
    """Most recently finished root span on the default tracer."""
    return _DEFAULT_TRACER.last_root()
