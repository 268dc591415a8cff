"""In-memory spans recorded around calls into the pipeline's layers.

A span is (name, op, parent, start, end).  Every operation the
benchmark times opens one root span (``kernel``, ``diagnose``,
``record``, ``open_replay``, ``setup``, ...) and each call into a layer
opens a child named ``<layer>.<stage>``.  A span's *self time* is its
duration minus the time its children cover; spans here never overlap
their siblings (one thread), so that is a subtraction.  Self time left
on a root span is the part of the operation no layer call accounts
for: the *unattributed* remainder.

Spans stay in memory and are written out once, at the end of the run,
as JSON lines.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: str | None
    parent: int | None
    start: float
    end: float = 0.0


class _Open:
    """Context manager for one open span."""

    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer: "Tracer", name: str, op: str | None):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        op = self.op
        if op is None and parent is not None:
            op = tracer.spans[parent].op
        self.index = len(tracer.spans)
        tracer.spans.append(Span(self.name, op, parent, time.perf_counter()))
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans; ``span(name, op=...)`` is a context manager."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def span(self, name: str, op: str | None = None) -> _Open:
        return _Open(self, name, op)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def breakdown(self, root: str) -> tuple[int, float, dict[str, float]]:
        """Self time per span name inside every ``root`` operation.

        Returns ``(operations, total seconds, {name: self seconds})``.
        The root's own self time appears under ``root`` itself — the
        unattributed remainder — so the self times add up to the total.
        """
        selfs = self.self_times()
        root_of: list[int] = []
        for i, span in enumerate(self.spans):
            root_of.append(i if span.parent is None else root_of[span.parent])
        wanted = {
            i for i, s in enumerate(self.spans)
            if s.parent is None and s.name == root
        }
        totals: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if root_of[i] in wanted:
                totals[span.name] = totals.get(span.name, 0.0) + selfs[i]
        elapsed = sum(self.spans[i].end - self.spans[i].start for i in wanted)
        return len(wanted), elapsed, totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to start)."""
        with open(path, "w") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                record = {
                    "id": i,
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start_ms": round((span.start - self.origin) * 1e3, 4),
                    "duration_ms": round((span.end - span.start) * 1e3, 4),
                    "self_ms": round(own * 1e3, 4),
                }
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, op: str | None = None):
        return self._NULL


NULL = NullTracer()
