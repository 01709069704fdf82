"""In-memory spans recorded around calls into urbanrec's modules.

A span is named ``<module>.<call>``; its module is the part before the first
dot (``bench`` for the harness itself).  Spans nest: a span opened inside
another records it as its parent, and a span's self time is its duration
minus the durations of its children.  A disabled tracer records nothing and
costs one attribute test per span, so the untraced run executes the same
code as the traced one.

Calls made inside urbanrec itself (the steps of ``training.fit``) get their
spans from ``Tracer.wrapping``, which swaps a span-recording wrapper onto
the module attribute the caller looks up at call time, so the traced run
still runs urbanrec's own code.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    enabled: bool
    spans: list = field(default_factory=list)
    peaks: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=parent))
        self._stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    @contextmanager
    def wrapping(self, targets):
        """Inside the block, each ``(owner, attribute, span name)`` of
        ``targets`` is replaced by a wrapper that runs the original in a span
        of that name; the originals come back on exit.  A disabled tracer
        replaces nothing."""
        if not self.enabled:
            yield
            return
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for (owner, attr, original), (_, _, name) in zip(originals, targets):
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self._span(name):
                return function(*args, **kwargs)
        return wrapper

    def peak_alloc(self, name: str):
        """Record the tracemalloc peak (MB) of the block run under ``name``."""
        return self._peak_alloc(name) if self.enabled else nullcontext()

    @contextmanager
    def _peak_alloc(self, name: str):
        tracemalloc.start()
        try:
            yield
        finally:
            self.peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def median_s(self, name: str) -> float:
        """Median duration of one call of the named span; 0.0 if never run."""
        durations = [s.duration for s in self.spans if s.name == name]
        return statistics.median(durations) if durations else 0.0

    def under(self, roots: set) -> list:
        """Spans whose outermost ancestor has a name in ``roots``."""
        top = []
        for s in self.spans:
            top.append(s.name if s.parent is None else top[s.parent])
        return [s for s, t in zip(self.spans, top) if t in roots]

    def self_shares(self, roots: set, modules) -> dict:
        """Percent of the wall time under ``roots`` spent in each module's
        own code (span self time); the rest goes to ``bench``."""
        spans = self.under(roots)
        wall = sum(s.duration for s in spans if s.parent is None)
        self_time = {m: 0.0 for m in modules}
        for s in spans:
            module = s.module if s.module in self_time else "bench"
            self_time[module] = self_time.get(module, 0.0) + s.duration - s.child_time
        return {m: 100.0 * t / wall for m, t in self_time.items()}
