"""In-memory span recorder for the traced benchmark run.

A span covers one call the benchmark makes into a citerec layer.  Spans
nest: the span open when another starts is its parent.  Spans are kept in
memory and written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, sid, name, start, parent, request, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans when enabled.  When disabled, ``span`` yields a span
    that is never stored, so one code path serves traced and untraced runs."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name, request=None, **attrs):
        if not self.enabled:
            return nullcontext(Span(-1, name, 0.0, None, request, attrs))
        return self._record(name, request, attrs)

    @contextmanager
    def _record(self, name, request, attrs):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        sp = Span(len(self.spans), name, time.perf_counter(),
                  parent.id if parent else None, request, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Self time of every span, indexed by span id: its duration minus
        the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child_time)]

    def by_name(self, name):
        return [sp for sp in self.spans if sp.name == name]

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum((sp.duration for sp in self.by_name(name)), 0.0)

    def count(self, name, key):
        """Summed ``attrs[key]`` over every span called ``name``."""
        return sum(sp.attrs.get(key, 0) for sp in self.by_name(name))

    def self_time_by_name(self):
        out = {}
        for sp, st in zip(self.spans, self.self_times()):
            out[sp.name] = out.get(sp.name, 0.0) + st
        return out

    def write(self, path, meta):
        """Write every span (times relative to the first span) as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"id": sp.id, "name": sp.name, "parent": sp.parent,
                 "request": sp.request,
                 "start_s": sp.start - t0, "end_s": sp.end - t0,
                 "self_s": st, "attrs": sp.attrs}
                for sp, st in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta,
                       "self_s_by_name": self.self_time_by_name(),
                       "spans": rows}, f, indent=1)
