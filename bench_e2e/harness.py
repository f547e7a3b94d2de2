"""Shared pieces of the end-to-end benchmark: host block, command line,
statistics, counters and the in-memory span recorder.

Nothing here imports the program under test, so ``run.py`` can use it
before it knows whether the program's sources are present.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import re
import resource
import statistics
import struct
import zlib
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

WORKLOADS = ("publish", "publish_resolved", "lookup", "lookup_sharded", "update")

#: Candidate percentiles for a timing's tail, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def host_block() -> dict[str, Any]:
    """The machine a result was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def parser(description: str) -> argparse.ArgumentParser:
    """Arguments shared by ``run.py`` and the per-workload child."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    p.add_argument(
        "--seconds", type=float, default=None,
        help="length of the measured phase per workload (default 15, 1 with --quick)",
    )
    p.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run reporting per-layer metrics instead of end-to-end ones",
    )
    p.add_argument(
        "--quick", action="store_true", help="small inputs and short runs (self-test scale)"
    )
    p.add_argument("--output", help="write the full JSON report here")
    return p


def default_seconds(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.quick else 15.0


def write_json(doc: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``inf`` samples sort last)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile in :data:`PERCENTILES`
    with at least :data:`MIN_TAIL_SAMPLES` samples beyond it, or ``None``
    when not even the median has that many."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES:
            best = p
    if best is None:
        return None
    return best, percentile(samples, best)


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median and inter-quartile range (also as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "iqr_share": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "n": len(values)}


def finite(value: float) -> float | None:
    """JSON has no infinity: failed samples make a metric ``null``."""
    return value if math.isfinite(value) else None


# -- process counters ---------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def io_wchar() -> int:
    """Bytes this process has passed to write-type syscalls, 0 where
    ``/proc/self/io`` is unavailable."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return 0
    match = re.search(r"^wchar:\s*(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sum_series(counters: dict[str, float]) -> dict[str, float]:
    """Fold shard-labelled series (``name{shard=N}``) into their base name."""
    out: dict[str, float] = {}
    for key, value in counters.items():
        base = key.split("{", 1)[0]
        out[base] = out.get(base, 0) + value
    return out


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


# -- host speed ---------------------------------------------------------------

_REF_KEYS = tuple(f"key-{i:04d}" for i in range(400))
_REF_TABLE = {key: i for i, key in enumerate(_REF_KEYS)}
_REF_BLOB = struct.pack("<400I", *range(400))
_REF_PAIRS = tuple((i * 7919 % 400, key) for i, key in enumerate(_REF_KEYS))
#: Keys of the probe's large table, and table lookups per probe.
_WIDE_KEYS = 1 << 16
_WIDE_PROBES = 225
#: Time of one probe pass that defines reference speed: a time measured
#: while a pass took ``t`` is reported as ``time * REF_NOMINAL_S / t``.
REF_NOMINAL_S = 0.2e-3
#: Wall time between probe samples, and the half-width of the window of
#: samples that scales one measurement.
PROBE_INTERVAL_S = 0.025
PROBE_WINDOW_S = 0.25


def reference_loop() -> int:
    """Fixed interpreter-bound work of the kind the program does: dict
    probes, struct decoding, tuple comparisons, string joins, a CRC."""
    total = 0
    for _ in range(2):
        for key in _REF_KEYS:
            total += _REF_TABLE[key]
        total += sum(struct.unpack("<400I", _REF_BLOB))
        total += sorted(_REF_PAIRS)[0][0]
        total += zlib.crc32(",".join(_REF_KEYS).encode())
    return total


class SpeedProbe:
    """Measures the host's speed at regular points of a run.

    Shared hosts change speed by up to ~1.7x within seconds, which would
    swamp any change to the program.  One probe pass is
    :func:`reference_loop` plus lookups scattered over a table too large
    for the core's caches: on this benchmark's ops, that blend tracked
    slow phases better than either part alone (the program slows more
    than cache-resident work does).  Each sample is the fastest of three
    passes, which drops interruptions such as a shard worker thread
    taking the interpreter lock.

    The probe runs in the program's process, so it must not pay for the
    program's work, or a slower program would be scaled back towards the
    old times.  The self-test checks that samples taken right after
    CPU-, memory- or allocation-heavy work read as after none, and that
    a slowdown injected into point reads survives scaling.

    ``tick()`` between ops samples once per :data:`PROBE_INTERVAL_S` of
    wall time passed since the last tick (at most 10 times), so the
    samples cover the run evenly whether its ops are short or long.
    ``factor()`` then scales a time measured in ``[start, end]`` to
    reference speed.
    """

    def __init__(self) -> None:
        keys = tuple(f"w{i * 2654435761 % (1 << 32):08x}" for i in range(_WIDE_KEYS))
        self._wide = {key: i for i, key in enumerate(keys)}
        self._order = tuple(keys[i * 40503 % _WIDE_KEYS] for i in range(_WIDE_KEYS))
        self._offset = 0
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last: float | None = None

    def _pass(self) -> float:
        t0 = perf_counter()
        reference_loop()
        wide = self._wide
        total = 0
        for key in self._order[self._offset : self._offset + _WIDE_PROBES]:
            total += wide[key]
        self._offset = (self._offset + _WIDE_PROBES) % (_WIDE_KEYS - _WIDE_PROBES)
        return perf_counter() - t0

    def tick(self) -> None:
        now = perf_counter()
        if self._last is None:
            due = 1
        else:
            due = min(10, int((now - self._last) / PROBE_INTERVAL_S))
        for _ in range(due):
            t0 = perf_counter()
            self.seconds.append(self.sample())
            self.starts.append(t0)
        if due:
            self._last = perf_counter()

    def sample(self) -> float:
        """The fastest of three passes, in seconds."""
        return min(self._pass(), self._pass(), self._pass())

    def factor(self, start: float, end: float) -> float:
        """``REF_NOMINAL_S`` over the median sample within a window
        around ``[start, end]`` (the 3 nearest samples if it holds fewer)."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.starts, start)
            lo, hi = max(0, mid - 2), min(len(self.starts), mid + 2)
        return REF_NOMINAL_S / statistics.median(self.seconds[lo:hi])


# -- spans --------------------------------------------------------------------


class SpanRecorder:
    """Benchmark-side spans kept in memory: name, start, end, parent, trace.

    ``span()`` is a context manager around one call into a program layer;
    the layer is the first dotted component of the name.  While
    ``enabled`` is false it records nothing and costs one flag check.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: ``[name, start, end, parent index or -1, trace id]``
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def span(self, name: str) -> "_Span | _NullSpan":
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def add_child(self, name: str, start: float, seconds: float) -> None:
        """Record a finished span of the program's own tracer under the
        currently open benchmark span (phases a program span reports)."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, start + seconds, parent, self.trace_id])

    def self_times(self) -> dict[str, float]:
        """Seconds per span name with child spans' time subtracted."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def to_json(self, limit: int) -> list[dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "trace": t}
            for n, s, e, p, t in self.spans[:limit]
        ]


class _Span:
    __slots__ = ("_rec", "_index", "start")

    def __init__(self, rec: SpanRecorder, name: str):
        self._rec = rec
        parent = rec._stack[-1] if rec._stack else -1
        self.start = perf_counter()
        self._index = len(rec.spans)
        rec.spans.append([name, self.start, self.start, parent, rec.trace_id])

    def __enter__(self) -> "_Span":
        self._rec._stack.append(self._index)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._rec.spans[self._index][2] = perf_counter()
        self._rec._stack.pop()


class _NullSpan:
    __slots__ = ()
    start = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL = _NullSpan()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
