"""In-memory spans around the benchmark's calls into each fkdv layer.

A span records its name, start, end, parent span and the operation it
belongs to, plus the counts the benchmark can read off the call's result.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "op", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict[str, float] = {}

    def set(self, **counts) -> None:
        self.counts.update(counts)

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr.stack[-1].id if tr.stack else None
        self.op = tr.op
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.op = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "counts": s.counts}) + "\n")

    def per_op(self, ops) -> dict[str, list[float]]:
        """Per layer key, one value per operation in `ops`: summed span time
        (key = span name) and summed counts (key = span name + '.' + count)."""
        wanted = set(ops)
        sums: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s.op not in wanted:
                continue
            sums[s.name][s.op] += s.end - s.start
            for k, v in s.counts.items():
                sums[f"{s.name}.{k}"][s.op] += v
        return {key: [by_op[o] for o in ops if o in by_op]
                for key, by_op in sums.items()}


class _NullSpan:
    def set(self, **counts) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Stand-in for untraced operations: spans cost one call and record
    nothing."""

    _span = _NullSpan()
    op = None

    def span(self, name: str) -> _NullSpan:
        return self._span
