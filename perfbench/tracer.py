"""Spans around calls into the program's layers, recorded from outside `src/`.

The tracer replaces module attributes and class methods with timing wrappers
for the length of a traced round and puts the originals back afterwards.
Spans nest through a stack, so each span knows how much of its interval its
child spans covered; self time is duration minus that.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0  # a per-call quantity summed by an `items` callback


class Tracer:
    """Aggregated spans by name; patches are undone by `restore`."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self.objects = defaultdict(list)  # objects collected by `keep` patches
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, items=None, keep=False):
        span = self.spans[name]
        enter, leave = self._enter, self._leave
        objects = self.objects[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, t0)
            if items is not None:
                span.items += items(args, result)
            if keep:
                objects.append(args[0])
            return result

        return traced

    def patch(self, owner, attr, name, items=None, keep=False):
        """Wrap `owner.attr` (or `owner[attr]` for a dict) in a span called `name`.

        `items(args, result)` adds a per-call quantity to the span; `keep`
        collects the first argument (`self` of a method) for later reading.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, items, keep)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, items, keep))
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, span, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        span.calls += 1
        span.total += dt
        span.self_time += dt - child

    @contextmanager
    def span(self, name):
        """An explicit span around a block of the benchmark's own code."""
        span = self.spans[name]
        t0 = self._enter()
        try:
            yield
        finally:
            self._leave(span, t0)

    def total(self, *names):
        return sum(self.spans[n].total for n in names if n in self.spans)

    def self_time(self, *names):
        return sum(self.spans[n].self_time for n in names if n in self.spans)

    def calls(self, *names):
        return sum(self.spans[n].calls for n in names if n in self.spans)

    def items(self, *names):
        return sum(self.spans[n].items for n in names if n in self.spans)


@contextmanager
def capture(owner, attr, sink):
    """Pass calls to `owner.attr` through unchanged, appending each result to `sink`."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def passthrough(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, passthrough)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)
