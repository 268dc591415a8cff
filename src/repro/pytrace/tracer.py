"""A TraceBack-style flight recorder for real Python programs.

The calibration note for this reproduction observes that the only
faithful Python analog of binary instrumentation is ``sys.settrace`` —
so this package provides exactly that: a per-thread ring-buffer flight
recorder that writes the *same 32-bit record format* as the TBVM probes
(DAG records per executed line, extended records for calls, returns,
and exceptions) and reconstructs with the same display machinery.

Mapping onto the paper's design:

* each traced code object is a "module"; each of its source lines is a
  single-block DAG (the IL-mode degenerate case of §2.4, where blocks
  are line-granular and exception reporting is exact);
* DAG ids are allocated on first sight of a code object — runtime
  rebasing, in effect, with the id table doubling as the mapfile;
* buffers are rings of sub-buffers with sentinels and commit counters,
  so a process killed hard still yields "the last non-zero entry";
* exceptions write EXCEPTION records; the most recent history survives
  in the ring exactly as in §3.2.

Usage::

    tracer = PyTracer()
    with tracer:
        buggy_function()
    print(tracer.render(tracer.reconstruct()))
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field

from repro.reconstruct.model import LineStep, ThreadTrace, TraceEvent
from repro.runtime.records import (
    DagRecord,
    ExtKind,
    ExtRecord,
    INVALID,
    MAX_DAG_ID,
    SENTINEL,
    read_forward_salvage_bulk,
)

#: MODULE_EVENT inline payloads used for Python call/return markers.
PY_CALL = 1
PY_RETURN = 2


def flight_recorded(fn=None, *, stream=None, **tracer_kwargs):
    """Decorator: record ``fn``; on an uncaught exception, print the
    flight recording before re-raising.

    The snap-on-fault workflow in one line::

        @flight_recorded
        def main(): ...
    """
    import functools

    def wrap(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = PyTracer(**tracer_kwargs)
            try:
                with tracer:
                    return func(*args, **kwargs)
            except Exception:
                import sys as _sys

                out = stream if stream is not None else _sys.stderr
                print(
                    f"--- flight recording of {func.__name__} "
                    "(uncaught exception) ---",
                    file=out,
                )
                print(tracer.render(), file=out)
                raise

        return wrapper

    if fn is not None:
        return wrap(fn)
    return wrap


@dataclass
class LineSite:
    """One (code object, line) site: a single-block DAG."""

    dag_id: int
    filename: str
    funcname: str
    lineno: int


@dataclass
class _Ring:
    """A per-thread ring of sub-buffers (host-side TraceBuffer)."""

    sub_count: int
    sub_size: int
    words: list[int] = field(default_factory=list)
    cursor: int = -1  # index of the last written word
    committed: int = -1
    commits: int = 0

    def __post_init__(self) -> None:
        self.words = [INVALID] * (self.sub_count * self.sub_size)
        for sub in range(self.sub_count):
            self.words[self.sub_end(sub)] = SENTINEL

    def sub_start(self, sub: int) -> int:
        return sub * self.sub_size

    def sub_end(self, sub: int) -> int:
        return self.sub_start(sub) + self.sub_size - 1

    def _wrap(self, sentinel_pos: int) -> int:
        sub = sentinel_pos // self.sub_size
        self.committed = sub
        self.commits += 1
        nxt = (sub + 1) % self.sub_count
        start, end = self.sub_start(nxt), self.sub_end(nxt)
        for i in range(start, end):
            self.words[i] = INVALID
        return start

    def append_words(self, words: list[int]) -> None:
        pos = self.cursor + 1
        if pos >= len(self.words):
            pos = self._wrap(self.sub_end(self.sub_count - 1))
        sub = pos // self.sub_size
        if pos + len(words) > self.sub_end(sub):
            pos = self._wrap(self.sub_end(sub))
        for i, word in enumerate(words):
            self.words[pos + i] = word
        self.cursor = pos + len(words) - 1

    def append(self, record) -> None:
        encoded = record.encode()
        self.append_words([encoded] if isinstance(encoded, int) else encoded)


class PyTracer:
    """The flight recorder.  One instance traces one ``with`` region (or
    explicit install/uninstall pair), across all threads started inside
    it."""

    def __init__(
        self,
        sub_buffers: int = 8,
        sub_buffer_words: int = 4096,
        trace_stdlib: bool = False,
    ):
        self.sub_buffers = sub_buffers
        self.sub_buffer_words = sub_buffer_words
        self.trace_stdlib = trace_stdlib
        #: (code id, lineno) -> LineSite; the in-memory mapfile.
        self.sites: dict[tuple[int, int], LineSite] = {}
        self.rings: dict[int, _Ring] = {}
        self._next_dag = 16
        self._lock = threading.Lock()
        self._installed = False
        self._prev_trace = None
        self._exc_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Start recording (``sys.settrace`` + ``threading.settrace``)."""
        self._prev_trace = sys.gettrace()
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        self._installed = True

    def uninstall(self) -> None:
        """Stop recording."""
        sys.settrace(self._prev_trace)
        threading.settrace(self._prev_trace)  # type: ignore[arg-type]
        self._installed = False

    def __enter__(self) -> "PyTracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def run(self, fn, *args, **kwargs):
        """Trace one call; the exception (if any) stays recorded and is
        re-raised."""
        with self:
            return fn(*args, **kwargs)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _ring(self) -> _Ring:
        tid = threading.get_ident()
        ring = self.rings.get(tid)
        if ring is None:
            ring = _Ring(sub_count=self.sub_buffers, sub_size=self.sub_buffer_words)
            self.rings[tid] = ring
            ring.append(
                ExtRecord(ExtKind.THREAD_START, inline=0,
                          payload=(tid & 0xFFFFFFFF, 0, 0))
            )
        return ring

    def _should_trace(self, frame) -> bool:
        filename = frame.f_code.co_filename
        if filename.startswith("<"):
            return True
        if not self.trace_stdlib and (
            "site-packages" in filename
            or filename.startswith(sys.prefix)
        ):
            return False
        if "repro/pytrace" in filename.replace("\\", "/"):
            return False  # never trace the tracer
        return True

    def _site(self, frame) -> LineSite:
        code = frame.f_code
        key = (id(code), frame.f_lineno)
        site = self.sites.get(key)
        if site is None:
            with self._lock:
                site = self.sites.get(key)
                if site is None:
                    if self._next_dag >= MAX_DAG_ID:
                        raise RuntimeError("pytrace DAG id space exhausted")
                    site = LineSite(
                        dag_id=self._next_dag,
                        filename=code.co_filename,
                        funcname=code.co_qualname
                        if hasattr(code, "co_qualname")
                        else code.co_name,
                        lineno=frame.f_lineno,
                    )
                    self._next_dag += 1
                    self.sites[key] = site
        return site

    def _trace(self, frame, event, arg):
        if not self._should_trace(frame):
            return None
        ring = self._ring()
        if event == "line":
            ring.append(DagRecord(dag_id=self._site(frame).dag_id, path_bits=0))
        elif event == "call":
            site = self._site(frame)
            ring.append(
                ExtRecord(ExtKind.MODULE_EVENT, inline=PY_CALL,
                          payload=(site.dag_id,))
            )
        elif event == "return":
            site = self._site(frame)
            ring.append(
                ExtRecord(ExtKind.MODULE_EVENT, inline=PY_RETURN,
                          payload=(site.dag_id,))
            )
        elif event == "exception":
            exc_type = arg[0]
            site = self._site(frame)
            code = hash(exc_type.__name__) & 0xFFFF
            ring.append(
                ExtRecord(ExtKind.EXCEPTION, inline=code,
                          payload=(code, site.dag_id, 0, 0))
            )
            self._exc_names[code] = exc_type.__name__
        return self._trace

    # ------------------------------------------------------------------
    # Reconstruction (reuses the TraceBack display model)
    # ------------------------------------------------------------------
    def _site_by_dag(self) -> dict[int, LineSite]:
        return {site.dag_id: site for site in self.sites.values()}

    def reconstruct(self) -> list[ThreadTrace]:
        """Ring buffers -> ThreadTrace objects (one per thread)."""
        by_dag = self._site_by_dag()
        traces = []
        for tid, ring in self.rings.items():
            trace = ThreadTrace(
                tid=tid & 0xFFFF,
                buffer_index=0,
                process_name="python",
                machine_name="host",
                truncated=ring.commits >= ring.sub_count,
            )
            records = self._mine(ring)
            seq = 0
            depth = 0
            for record in records:
                step = self._to_step(record, by_dag)
                if step is None:
                    continue
                step.seq = seq
                seq += 1
                # Depth from the Python call/return events themselves.
                if isinstance(step, LineStep) and step.is_func_entry:
                    depth += 1
                    step.depth = depth
                elif isinstance(step, TraceEvent) and step.kind == "py_return":
                    step.depth = depth
                    depth = max(0, depth - 1)
                else:
                    step.depth = depth
                trace.steps.append(step)
            traces.append(trace)
        return traces

    def _mine(self, ring: _Ring):
        records = []
        if ring.committed < 0:
            order = [0]
        else:
            current = (ring.committed + 1) % ring.sub_count
            order = [
                (current + 1 + i) % ring.sub_count for i in range(ring.sub_count)
            ]
        for sub in order:
            # The ring lives in this process and only the tracer writes
            # it, so the scan has nothing to lose here.
            sub_records, _lost = read_forward_salvage_bulk(
                ring.words, ring.sub_start(sub), ring.sub_end(sub)
            )
            records.extend(sub_records)
        return records

    def _to_step(self, record, by_dag):
        if isinstance(record, DagRecord):
            site = by_dag.get(record.dag_id)
            if site is None:
                return TraceEvent(kind="untraced",
                                  detail={"why": "unknown-dag"})
            return LineStep(
                module=site.filename.rsplit("/", 1)[-1],
                func=site.funcname,
                file=site.filename,
                line=site.lineno,
                block_id=record.dag_id,
            )
        if isinstance(record, ExtRecord):
            if record.kind == ExtKind.MODULE_EVENT:
                site = by_dag.get(record.payload[0])
                if site is None:
                    return None
                if record.inline == PY_CALL:
                    step = LineStep(
                        module=site.filename.rsplit("/", 1)[-1],
                        func=site.funcname,
                        file=site.filename,
                        line=site.lineno,
                        block_id=record.payload[0],
                        is_func_entry=True,
                    )
                    return step
                return TraceEvent(kind="py_return",
                                  detail={"func": site.funcname})
            if record.kind == ExtKind.EXCEPTION:
                site = by_dag.get(record.payload[1])
                detail = {
                    "code": record.payload[0],
                    "exception": self._exc_names.get(record.inline, "?"),
                }
                if site is not None:
                    detail["file"] = site.filename
                    detail["line"] = site.lineno
                    detail["func"] = site.funcname
                return TraceEvent(kind="exception", detail=detail)
            if record.kind == ExtKind.THREAD_START:
                return TraceEvent(kind="thread_start",
                                  detail={"tid": record.payload[0]})
        return None

    # ------------------------------------------------------------------
    def render(self, traces: list[ThreadTrace] | None = None) -> str:
        """A flat text rendering of the recorded histories."""
        if traces is None:
            traces = self.reconstruct()
        out = []
        for trace in traces:
            out.append(f"--- python thread {trace.tid} "
                       f"{'(truncated)' if trace.truncated else ''}---")
            for step in trace.steps:
                if isinstance(step, LineStep):
                    marker = " [call]" if step.is_func_entry else ""
                    out.append(
                        f"  {'  ' * step.depth}{step.module}:{step.line} "
                        f"{step.func}{marker}"
                    )
                elif step.kind == "exception":
                    d = step.detail
                    out.append(
                        f"  {'  ' * step.depth}*** {d.get('exception')} at "
                        f"{d.get('file', '?')}:{d.get('line', '?')}"
                    )
                elif step.kind == "py_return":
                    out.append(f"  {'  ' * step.depth}<- return from "
                               f"{step.detail['func']}")
        return "\n".join(out)
