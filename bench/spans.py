"""In-memory spans around the benchmark's calls into each library module.

A span records its name, start, end, parent span and op id.  Each op
opens a root span ``bench.op``; every call the op makes into a library
module opens a child span named ``<module>.<call>``.  Counts measured
from outside (term counts, cells, bytes) ride on the span that did the
work.  Spans stay in memory and are written out once, when the run ends.

:class:`NullTracer` is the untraced run: it records nothing, and
callers skip computing counts when ``tracer.enabled`` is false.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "error", "key", "counts")

    def __init__(self, id, name, op, parent, key):
        self.id = id
        self.name = name
        self.op = op
        self.parent = parent
        self.key = key
        self.start = self.end = 0.0
        self.error = False
        self.counts: dict[str, int] = {}

    def add(self, metric: str, value: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error, "counts": self.counts}


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, key: str | None = None):
        """Time the body; ``key`` names the time metric (default ``<name>_s``)."""
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent.op if op is None and parent else op,
                 parent.id if parent else None, key or f"{name}_s")
        self.spans.append(s)
        self._open.append(s)
        s.start = perf_counter()
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = perf_counter()
            self._open.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, call count, counts and errors, summed over all spans.

        A span's self time is its duration minus its children's; spans of
        one thread nest, so the children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(int)
        for s in self.spans:
            out[s.key] += (s.end - s.start) - child_time[s.id]
            out[f"{s.name}_calls"] += 1
            out[f"{s.name.split('.')[0]}.errors"] += s.error
            for metric, value in s.counts.items():
                out[metric] += value
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_json()) + "\n")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, metric: str, value: int) -> None:
        pass


class NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, op: int | None = None, key: str | None = None) -> _NullSpan:
        return self._span
