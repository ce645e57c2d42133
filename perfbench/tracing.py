"""In-memory spans around the benchmark's own calls into the lxcim modules.

A span is (name, start, end, parent, op): ``name`` is ``<layer>.<call>``,
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` the
operation the call belongs to.  Spans stay in memory until the run ends.
With tracing off, :meth:`Tracer.call` is a plain call and nothing is kept.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    """Records spans and per-pass counters while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self, first: int = 0, last: int | None = None) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        spans = self.spans[first:last]
        own = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, _ in spans:
            if parent >= first:
                own[parent - first] -= end - start
        return own

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for (name, start, end, parent, op), self_s in zip(self.spans, own):
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "op": op, "self_s": self_s}
                handle.write(json.dumps(record) + "\n")
