"""In-memory spans and counts recorded around calls into wordhom's layers.

A span has a name, a start and end on the ``perf_counter`` clock, the
index of the span that encloses it and the operation it belongs to.
On Linux ``perf_counter`` reads CLOCK_MONOTONIC, which every process on
the machine shares, so spans measured in a child process can be merged
into the trace of the process that started it. Nothing is written until the run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self.add(name, perf_counter(), None)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = perf_counter()

    def add(self, name: str, start: float, end: float | None, parent: int | None = None) -> int:
        """Record a span measured elsewhere, under ``parent`` or else the
        innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op": self.op}
        )
        return len(self.spans) - 1

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "value": value, "op": self.op})

    def merge(self, spans: list[dict], counts: list[dict]) -> None:
        """Append another tracer's records, keeping their parent links."""
        base = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append(dict(s, parent=None if parent is None else parent + base))
        self.counts.extend(counts)


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span never overlap: spans nest within one process,
    and a child process's spans lie inside the span around that child.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            out[s["parent"]] -= max(0.0, min(s["end"], parent["end"]) - max(s["start"], parent["start"]))
    return out


def layer_metrics(spans: list[dict], counts: list[dict]) -> dict[str, float]:
    """Self time per operation for each span name, and counts.

    A span name's time is its total self time divided by the number of
    operations in which it occurs, so it reads as "seconds this layer
    costs an operation that calls it". A count is the median over the
    operations that record it; equal operations record equal counts.
    """
    totals: dict[str, float] = {}
    ops: dict[str, set] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
        ops.setdefault(s["name"], set()).add(s["op"])
    out = {f"{name}_s": totals[name] / len(ops[name]) for name in totals}
    per_op: dict[str, dict] = {}
    for c in counts:
        acc = per_op.setdefault(c["name"], {})
        acc[c["op"]] = acc.get(c["op"], 0) + c["value"]
    for name, acc in per_op.items():
        out[name] = statistics.median_low(acc.values())
    return out
