"""Outside-in tracing for qdelnet.

A Tracer wraps chosen package functions at every module attribute through
which callers look them up (``qdelnet.train.forward``,
``qdelnet.experiment.train``, ...), records one span per call in memory and
puts every original function back on ``restore()``. Nothing inside the
package changes.

Spans are ``Span(id, name, start, end, parent, tags)``; ``parent`` is the id
of the span that was open when the call started. Self time is a span's
duration minus the part of its interval that its child spans cover. Times
come from the tracer's clock: ``time.monotonic`` unless another is given.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable

# Annotators see (args, kwargs, result) of a successful call and return a
# small dict of tags stored on the span (depth, rows, ...). A call that
# raises gets the tags {"raised": <exception class name>} instead.
Annotator = Callable[[tuple, dict, object], dict]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tags: dict | None = None

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.tags]


class Tracer:
    """Records spans for wrapped functions; one wrapper per original function."""

    def __init__(self, annotators: dict[str, Annotator] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._annotators = annotators or {}
        self._wrappers: dict[int, Callable] = {}
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        existing = self._wrappers.get(id(fn))
        if existing is not None:
            return existing
        spans, stack = self.spans, self._stack
        annotate = self._annotators.get(name)
        clock = self._clock

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.tags = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.tags = annotate(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self, sites: Iterable[tuple[ModuleType, str]], name_of: Callable[[Callable], str]) -> None:
        """Replace ``module.attr`` for every (module, attr) site with a
        recording wrapper; ``name_of(fn)`` names the span, e.g. ``nn.forward``."""
        for module, attr in sites:
            original = getattr(module, attr)
            self.replace(module, attr, self._wrapper(name_of(original), original))

    def replace(self, module: ModuleType, attr: str, value: Callable) -> None:
        """Bind ``module.attr`` to ``value`` until ``restore()``."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        """Put back every original function, last patch first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span (indexed like ``spans``): duration minus the part of its own
    interval covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if e > span.start and s < span.end
        ]
        out.append((span.end - span.start) - union_length(clipped))
    return out


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)

