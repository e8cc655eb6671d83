"""Span recording for the traced benchmark run.

Wrappers are installed at the module attributes each caller resolves at
call time, and removed again afterwards.  Every wrapped call records a span
(name, start, end, parent span, operation id); counters record calls that
are too frequent for spans.  Spans stay in memory until the run writes them
out.  Only the standard library is used.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict | None = None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and call counts from wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "bench_current_span", default=None)

    def span(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; describe(args, kwargs, result)
        may attach attributes after a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            start = self.clock()
            record = Span(sid, name, start, start, parent, self.op)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record.error = True
                raise
            finally:
                record.end = self.clock()
                self._current.reset(token)
                self.spans.append(record)
            if describe is not None:
                record.attrs = describe(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so each call only increments the named count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def installed(targets: Iterable[tuple[Any, str, Callable[[Callable], Callable]]]):
    """Replace each ``module.attr`` by ``make_wrapper(original)`` for the
    duration of the block, restoring every original on exit."""
    originals = []
    try:
        for module, attr, make_wrapper in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.sid: s.duration - covered_length(children.get(s.sid, ())) for s in spans}
