"""In-memory spans around calls into blockbp's public functions.

The tracer swaps a timing wrapper in for a function wherever blockbp's
modules hold a reference to it (the defining module and every module that
imported the name), so calls the package makes internally are seen as well
as calls the benchmark makes.  Nothing in `src/` changes; `restore()` puts
every original reference back.

A span is (name, start_ns, end_ns, parent index).  Spans nest through a
stack, so a span's direct children cover disjoint parts of its interval and
its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus the per-call counters the layer metrics need."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent]
        self.counts = defaultdict(float)
        self.values = defaultdict(list)
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def span(self, name, fn, *args, **kwargs):
        """Call fn under a span called name and return its result."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def self_seconds(self):
        """Total self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start - child_ns[idx]) * 1e-9
        return out

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, modules, owner, attr, name, on_return=None):
        """Trace every reference to owner.attr held by the given modules.

        on_return(tracer, args, result) runs after each call, inside the
        span, to record counts taken from the call's arguments or result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, result)
                return result
            finally:
                self._close()

        holders = [owner] + [m for m in modules if m is not owner]
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, traced)
                self._patches.append((holder, attr, original))

    def restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
