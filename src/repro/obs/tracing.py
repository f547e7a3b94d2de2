"""Nestable spans with ring-buffer retention.

A :class:`Span` is a context manager recording a name, wall time (via the
monotonic :func:`time.perf_counter`), key/value attributes, and child
spans.  A :class:`Tracer` keeps its innermost open span in a
:class:`contextvars.ContextVar`, so nesting is automatic::

    with tracer.span("build.index", records=42):
        with tracer.span("build.collate"):
            ...

A span entered while another is open becomes its child; one entered
with none open is a *root*.  Finished roots land in a bounded ring
buffer (oldest evicted first), so a long-lived process keeps the most
recent traces without unbounded growth.  A disabled tracer hands out a
shared no-op span and touches no context — the hot-path cost is one
flag check.

A thread started directly begins with an empty context, so its spans
start new roots.  Work run in a copy of the caller's context
(``contextvars.copy_context().run``, as a sharded store's write pool
does) sees the caller's open span, and its spans nest under it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
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
    """Context manager making a live span its tracer's current span."""

    __slots__ = ("_tracer", "_span", "_parent", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        current = self._tracer._current
        self._parent = parent = current.get()
        if parent is not None:
            parent.children.append(self._span)
        self._token = current.set(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        self._span._end = time.perf_counter()
        tracer._current.reset(self._token)
        if self._parent is None:
            with tracer._lock:
                tracer._finished.append(self._span)


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
        self._current: ContextVar[Span | None] = ContextVar(
            "repro.obs.tracing.current_span", default=None
        )

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
        """Open a span as a context manager; nests under the current
        span, or starts a new root."""
        if not self._enabled:
            return _NULL_SPAN
        return _SpanHandle(self, Span(name, dict(attributes)))

    def current_span(self) -> Span | None:
        """The innermost open span in this context (None outside any span)."""
        return self._current.get()

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
