"""Span recording and the summary arithmetic of the benchmark (stdlib only).

A span is {name, start, end, parent, op}: `parent` is the index of the span
that caused it (None for an operation's root) and `op` is the operation id
shared by every span of one operation. Spans stay in memory until the run
ends. A span's self time is its duration minus the part of that interval its
child spans cover; children running in parallel threads are merged first, so
overlapping children are not counted twice.
"""
from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    Each thread keeps its own stack of open spans, so a span opened inside a
    worker thread needs its parent passed explicitly; on the opening thread
    the innermost open span is the default parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None, parent: int | None = None):
        """Record `name` around the body; yields the new span's index."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            if op is None and parent is not None:
                op = self.spans[parent].op
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), None, parent, op))
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    def span(self, name: str, op: int | None = None, parent: int | None = None):
        return nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(idx)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children,
    each child clipped to the parent's interval."""
    kids = _children(spans)
    out = []
    for idx, s in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in kids.get(idx, ())
            if spans[c].end > s.start and spans[c].start < s.end
        )
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name, over every span but the operation
    roots (a root is the benchmark's own loop, not a layer)."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.parent is not None:
            totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def covered_time(spans: list[Span], root: int) -> float:
    """Length of the root's interval covered by its descendants."""
    kids = _children(spans)
    todo = list(kids.get(root, ()))
    intervals = []
    while todo:
        idx = todo.pop()
        intervals.append((spans[idx].start, spans[idx].end))
        todo.extend(kids.get(idx, ()))
    return union_length(intervals)


def tail_percentile(samples) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With the samples sorted
    ascending, that is the one at 0-based index N - 11, which lies at the
    (N - 10)/N percentile by nearest rank. Below 21 samples that percentile
    is not above the median, so it is no tail: the maximum is returned
    instead, as percentile 100 with 0 samples beyond it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def failed_frac(failed: int, attempted: int) -> float:
    """Failed or wrong operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def busy_frac(busy_s: float, workers: int, wall_s: float) -> float:
    """Span-busy time over the capacity workers x wall of a pool."""
    if workers < 1 or wall_s <= 0:
        raise ValueError("need workers >= 1 and wall > 0")
    return busy_s / (workers * wall_s)


def relative_spread(values) -> float:
    """Quartile distance over the median, as the benchmark's stability test."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
