"""In-memory spans recorded around calls into the tagcomplete modules.

A span has a name, a start, an end and the index of the span that was open
when it started (its parent).  Spans are kept in a list until the run ends.
A span's self time is its duration minus the part of its interval that its
child spans cover.

Tracing works from outside the program: `Tracer.patch_function` replaces a
function in every module namespace that binds it, so a caller that imported
the name at import time (``from .lasso import solve_lasso``) is traced as
well as the defining module, and `Tracer.patch_method` replaces a method or
constructor on its class.  `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Self time of every span: duration minus its children's covered part.

    Children are clipped to the parent's interval, so a child that fills its
    parent leaves a self time of exactly 0.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        ]
        out.append(span.duration - covered_length(clipped))
    return out


@dataclass
class NameStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def summarize(spans) -> dict:
    """name -> NameStats over all spans."""
    stats = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span.name, NameStats())
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += own
        entry.durations.append(span.duration)
    return stats


class Tracer:
    """Records spans and owns the patches that produce them."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, was_own)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), math.nan, parent))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def ancestors(self, index: int):
        """Names of the spans enclosing span `index`, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(span_index, args, kwargs, result)
        runs after the span closes, for functions that also feed counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(index, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attribute, value) -> None:
        original = owner.__dict__[attribute] if attribute in vars(owner) else None
        self._patches.append((owner, attribute, original, attribute in vars(owner)))
        setattr(owner, attribute, value)

    def patch_function(self, name, module, attribute, namespaces, on_result=None) -> int:
        """Trace module.attribute everywhere it is bound.

        Every namespace in `namespaces` whose globals hold the same function
        object (under any name) gets the traced wrapper.  Returns how many
        bindings were replaced.
        """
        original = getattr(module, attribute)
        traced = self.wrap(name, original, on_result)
        replaced = 0
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, key, traced)
                    replaced += 1
        return replaced

    def patch_method(self, name, cls, attribute, on_result=None) -> None:
        """Trace cls.attribute (a method, or __init__ for construction)."""
        self._set(cls, attribute, self.wrap(name, getattr(cls, attribute), on_result))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original, was_own = self._patches.pop()
            if was_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
