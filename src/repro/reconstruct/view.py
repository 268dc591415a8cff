"""Trace display (§4.3): text renderings of reconstructed traces.

The GUI's upper source pane / lower trace pane become text: a flat
line-by-line history with module and file columns, a hierarchical call
tree with expand/collapse, a multi-thread merged view, and the
fault-directed view selection of §4.3.3 (exception snaps get the call
tree focused on the faulting line; hang snaps get one line per thread
showing what blocks it).
"""

from __future__ import annotations

from repro.reconstruct.callstack import assign_depths
from repro.reconstruct.interleave import merge, merge_grouped
from repro.reconstruct.model import (
    DegradationSummary,
    DistributedTrace,
    LineStep,
    LogicalThreadTrace,
    ProcessTrace,
    Step,
    ThreadTrace,
    TraceEvent,
)
from repro.vm.errors import ExcCode


def _format_event(event: TraceEvent) -> str:
    d = event.detail
    if event.kind == "exception":
        where = ""
        if "file" in d:
            where = f" at {d['file']}:{d['line']} in {d.get('func')}"
        elif d.get("uninstrumented"):
            where = " in uninstrumented code"
        return f"*** exception {ExcCode.name(d['code'])}{where}"
    if event.kind == "exception_end":
        return f"*** control resumed after signal {d.get('signum')}"
    if event.kind == "sync":
        kinds = {1: "rpc-call-out", 2: "rpc-enter", 3: "rpc-exit", 4: "rpc-return"}
        return (
            f"--- sync {kinds.get(d['sync_kind'], '?')} logical={d['logical_id']:#x} "
            f"seq={d['seq']}"
        )
    if event.kind == "timestamp":
        return f"--- t={event.clock} (syscall {d.get('syscall')})"
    if event.kind == "thread_start":
        return f"=== thread {d.get('tid')} started"
    if event.kind == "thread_end":
        return f"=== thread {d.get('tid')} ended (code {d.get('exit_code')})"
    if event.kind == "snapmark":
        return f"=== snap requested (reason {d.get('reason')})"
    if event.kind == "untraced":
        return f"??? untraced records ({d.get('why')})"
    return f"--- {event.kind} {d}"


def format_step(step: Step, show_depth: bool = False) -> str:
    """One display row for a step."""
    indent = "  " * step.depth if show_depth else ""
    if isinstance(step, LineStep):
        marker = ""
        if step.call:
            marker = f"  -> call {step.call}"
        elif step.is_func_exit:
            marker = "  <- return"
        return f"{indent}{step.module:>10} {step.file}:{step.line:<5} {marker}"
    return f"{indent}{_format_event(step)}"


def render_flat(
    trace: ThreadTrace, sources: dict[str, list[str]] | None = None
) -> str:
    """The flat trace pane: one row per executed line.

    ``sources`` optionally maps file name -> source lines, filling the
    GUI's synchronized source column.
    """
    rows = [f"thread {trace.tid} ({trace.process_name} on {trace.machine_name})"]
    if trace.truncated:
        rows.append("  [history truncated: older records overwritten]")
    for step in trace.steps:
        row = format_step(step)
        if sources is not None and isinstance(step, LineStep):
            file_lines = sources.get(step.file)
            if file_lines and 1 <= step.line <= len(file_lines):
                row = f"{row}  | {file_lines[step.line - 1].strip()}"
        rows.append(row)
    return "\n".join(rows)


def render_tree(trace: ThreadTrace, collapse: set[str] | None = None) -> str:
    """The hierarchical display: indentation by call depth; callees of
    functions named in ``collapse`` are folded into one row."""
    assign_depths(trace)
    collapse = collapse or set()
    rows = [f"thread {trace.tid} call tree"]
    hidden_below: int | None = None
    for step in trace.steps:
        if hidden_below is not None:
            if step.depth > hidden_below:
                continue
            hidden_below = None
        rows.append(format_step(step, show_depth=True))
        if (
            isinstance(step, LineStep)
            and step.call in collapse
        ):
            rows.append("  " * (step.depth + 1) + f"[+] {step.call} (collapsed)")
            hidden_below = step.depth
    return "\n".join(rows)


def render_multithread(traces: list[ThreadTrace]) -> str:
    """The merged multi-thread view: a plausible interleaving with a
    thread column (§4.3.2)."""
    rows = ["merged view (plausible interleaving)"]
    for trace, step in merge(traces):
        label = f"T{trace.tid}" if trace.tid is not None else "T?"
        rows.append(f"{label:>4} | {format_step(step)}")
    return "\n".join(rows)


def render_logical(logical: LogicalThreadTrace) -> str:
    """A fused logical-thread trace across processes/machines (§5)."""
    rows = [f"logical thread {logical.logical_id:#x}"]
    for segment in logical.segments:
        trace = segment.trace
        rows.append(
            f"  [{segment.leg}] {trace.process_name}@{trace.machine_name} "
            f"thread {trace.tid}"
        )
        for step in segment.steps():
            rows.append("    " + format_step(step))
    return "\n".join(rows)


def render_degradation(summary: DegradationSummary) -> str:
    """The degradation banner a reconstruction leads with."""
    if not summary.degraded:
        return "degradation: full (no losses)"
    return summary.summary()


def render_distributed(trace: DistributedTrace) -> str:
    """Render a master trace, degradation banner and notes first (§5).

    Healthy traces get the fused logical threads plus one globally
    merged multi-thread view.  When causal order between some machines
    is only approximate (no surviving SYNC pair), the merged view drops
    to the ladder's per-machine rung rather than fabricate an order.
    """
    rows = [render_degradation(trace.degradation)]
    rows.extend(f"note: {note}" for note in trace.notes)
    rows.append("")
    for logical in trace.logical_threads:
        rows.append(render_logical(logical))
        rows.append("")
    all_threads = [t for p in trace.processes for t in p.threads]
    if not all_threads:
        rows.append("(no recoverable trace on any machine)")
    elif trace.degradation.approximate_pairs:
        for machine, steps in merge_grouped(all_threads):
            rows.append(f"machine {machine} (local order only)")
            for owner, step in steps:
                label = f"T{owner.tid}" if owner.tid is not None else "T?"
                rows.append(f"{label:>4} | {format_step(step)}")
            rows.append("")
    else:
        rows.append(render_multithread(all_threads))
    while rows and not rows[-1]:
        rows.pop()
    return "\n".join(rows)


def select_view(process_trace: ProcessTrace) -> str:
    """Fault-directed view selection (§4.3.3)."""
    reason = process_trace.reason
    if reason in ("exception", "unhandled", "signal"):
        return _exception_view(process_trace)
    if reason == "hang":
        return _hang_view(process_trace)
    traces = process_trace.threads
    if len(traces) > 1:
        return render_multithread(traces)
    return render_flat(traces[0]) if traces else "(no recoverable trace)"


def _exception_view(process_trace: ProcessTrace) -> str:
    """Call tree with the exception-causing line highlighted."""
    rows = [
        f"snap: {process_trace.reason} in {process_trace.process_name} "
        f"({process_trace.detail})"
    ]
    for trace in process_trace.threads:
        has_exception = any(e.kind == "exception" for e in trace.events())
        if not has_exception:
            continue
        assign_depths(trace)
        tree = render_tree(trace).splitlines()
        # Highlight the last executed line before the exception event —
        # only its final occurrence (earlier executions of the same line
        # were the successful ones).
        last = trace.last_line()
        if last is not None:
            needle = f"{last.file}:{last.line}"
            for idx in range(len(tree) - 1, -1, -1):
                if needle in tree[idx] and "***" not in tree[idx]:
                    tree[idx] += "   <=== fault here"
                    break
        rows.extend(tree)
    if len(rows) == 1:
        rows.append("(faulting thread not recoverable)")
    return "\n".join(rows)


def _hang_view(process_trace: ProcessTrace) -> str:
    """One line per thread, "to aid the user in understanding what is
    blocking each thread's execution" (§4.3.3)."""
    rows = [f"snap: hang in {process_trace.process_name}"]
    for trace in process_trace.threads:
        last = trace.last_line()
        if last is None:
            rows.append(f"  thread {trace.tid}: (no trace)")
        else:
            rows.append(
                f"  thread {trace.tid}: {last.file}:{last.line} in "
                f"{last.func} ({last.module})"
            )
    return "\n".join(rows)
