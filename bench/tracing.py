"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, query): ``name`` is ``layer.function``
for a library call and ``query.<kind>`` for the query that made it; every
span of one query carries that query's id.  Spans are only recorded from
the benchmark's side of each call.  Counts go through the same object so
that ratios are taken where the work happens.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value) -> None:
        pass

    def query(self, query):
        return query.run(self)


NULL = NullTracer()


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, query id]
        self.counts: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._qid = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._qid]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value) -> None:
        self.counts[name].append(value)

    def query(self, query):
        self._qid = query.qid
        try:
            return self.call("query." + query.kind, query.run, self)
        finally:
            self._qid = None

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def self_times(tracers) -> dict[str, float]:
    """Per layer, span time not covered by the span's children."""
    out: dict[str, float] = defaultdict(float)
    for tracer in tracers:
        spans = tracer.spans
        for name, start, end, parent, _ in spans:
            out[name.split(".")[0]] += end - start
            if parent >= 0:
                out[spans[parent][0].split(".")[0]] -= end - start
    return dict(out)


def dump(path, groups: dict) -> None:
    """Write every tracer's spans, grouped by phase, as JSON."""
    out = {}
    for phase, tracers in groups.items():
        out[phase] = [
            [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "query": s[4]}
             for i, s in enumerate(t.spans)]
            for t in tracers
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
