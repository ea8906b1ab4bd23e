"""In-memory span recorder and the interval arithmetic behind self times.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the id of the span that was open when it
started (its parent, or None for a top-level span) and the id of the run it
belongs to.  Spans stay in memory until the caller dumps them.

The recorder keeps one stack of open spans, so it assumes the wrapped code
runs on one thread; every benchmark workload sweeps with ``threads = 1``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Records a span for every call of the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[Span] = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recorded as span ``name``.

        ``after(result, args, kwargs)`` runs once the span has ended, so
        bookkeeping such as hashing a matrix is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, 0.0, 0.0, parent, self.run)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def top_level_cover(spans):
    """Seconds covered by the union of the top-level spans."""
    return covered([(s.start, s.end) for s in spans if s.parent is None],
                   float("-inf"), float("inf"))
