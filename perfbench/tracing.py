"""In-memory spans recorded around the benchmark's calls into qvlab.

A span is (name, start_ns, end_ns, parent index, op id, attributes).  Spans
stay in memory and are written out with the result file when the run ends.
The untraced run uses ``NullTracer``, whose spans cost one attribute lookup
and a shared no-op context manager.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one empty span costs, to estimate the bookkeeping in a trace."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


class NullTracer:
    enabled = False
    op_id = None

    def span(self, name, **attrs):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.op_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self) -> dict:
        """Busy and self seconds per span name.

        Self time is a span's duration minus the time its children cover; the
        benchmark is single-threaded, so children never overlap each other.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["busy_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out

    def by_size(self) -> dict:
        """Mean seconds per call for every (span name, n) pair that records n."""
        acc: dict[str, list] = {}
        for name, start, end, _, _, attrs in self.spans:
            if "n" in attrs:
                row = acc.setdefault(f"{name}@n={attrs['n']}", [0, 0.0])
                row[0] += 1
                row[1] += (end - start) / 1e9
        return {key: {"calls": c, "mean_s": s / c} for key, (c, s) in sorted(acc.items())}

    def to_json(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o,
                 **({"attrs": a} if a else {})}
                for n, s, e, p, o, a in self.spans]
