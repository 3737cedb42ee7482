"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(call_id, parent_id, name, start, end)``; ``parent_id`` is 0 for
a root span. Spans are only ever appended, and written out by the caller
once the traced run is over, so recording costs one tuple per call.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import time
from collections import Counter, defaultdict


class SpanRecorder:
    """Records nested spans from a single thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]

    def wrap(self, fn, name, note=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string, or a callable mapping the call's positional
        arguments to one. ``note(counters, args, kwargs, result)`` runs after
        a call that returned, outside the span.
        """
        spans, stack, clock, ids = self.spans, self._stack, self.clock, self._ids
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call_id = next(ids)
            parent = stack[-1]
            stack.append(call_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans.append((call_id, parent, label, start, end))
            if note is not None:
                note(counters, args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span called ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per call id: span duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent cannot drive the parent's self time below zero.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for call_id, parent, _, start, end in spans:
        if parent in by_id:
            children[parent].append((start, end))
    out = {}
    for call_id, _, _, start, end in spans:
        kids = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(call_id, ())
            if hi > start and lo < end
        ]
        out[call_id] = (end - start) - _covered(kids)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy`` (union of its spans) and ``self``."""
    selfs = self_times(spans)
    intervals = defaultdict(list)
    summary: dict[str, dict[str, float]] = {}
    for call_id, _, name, start, end in spans:
        intervals[name].append((start, end))
        entry = summary.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += selfs[call_id]
    for name, entry in summary.items():
        entry["busy"] = _covered(intervals[name])
    return summary


def write_spans(spans, path, origin: float = 0.0) -> None:
    """Write spans as gzip CSV, times in seconds relative to ``origin``."""
    with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("call_id,parent_id,name,start_s,end_s\n")
        for call_id, parent, name, start, end in spans:
            fh.write(f"{call_id},{parent},{name},{start - origin!r},{end - origin!r}\n")
