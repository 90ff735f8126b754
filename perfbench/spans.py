"""Span recording and the self-time fold used by the traced benchmark run.

A :class:`Tracer` records one span per call to a wrapped function: its name,
start, end, and the index of the span that was open when it started (its
parent).  The benchmark runs the engine in ``serial`` mode with no extra
threads, so the open spans always form a stack and child spans never overlap
one another.  Generator functions are wrapped so that every ``next()`` is its
own span: the consumer's work between two items is then not charged to the
generator.

Self time is a span's duration minus the time its direct children cover.
Summed over every span under one root, self times add up to the root's
duration exactly, which is how the traced run accounts for its whole wall
time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, or is ``None``."""

    name: str
    start: float
    end: float
    parent: Optional[int]


def fold_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Sum each span name's self time (duration minus direct children)."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - covered[index]
    return dict(totals)


class Tracer:
    """Records spans, call counts and byte counts of wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def reset(self) -> None:
        """Drop every recorded span and counter."""
        self.spans.clear()
        self.calls.clear()
        self.bytes.clear()
        self._stack.clear()

    def begin(self, name: str) -> int:
        """Open a span and return its index."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index`` (the innermost open one)."""
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order "
                f"(innermost open span is {self.spans[popped].name!r})"
            )
        self.spans[index].end = self.clock()

    def wrap(
        self,
        function: Callable,
        name: str,
        nbytes: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """Return ``function`` recording a span per call.

        ``nbytes(result, *args, **kwargs)`` adds to the byte counter of
        ``name`` for each call.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if nbytes is not None:
                tracer.bytes[name] += nbytes(result, *args, **kwargs)
            return result

        return traced

    def wrap_generator(self, function: Callable, name: str) -> Callable:
        """Return generator ``function`` recording one span per ``next()``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return tracer._iterate(function(*args, **kwargs), name)

        return traced

    def _iterate(self, iterator, name: str):
        while True:
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item
