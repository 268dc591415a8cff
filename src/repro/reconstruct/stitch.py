"""Distributed stitching: SYNC records -> logical threads (§5).

"Distributed tracing stitches together trace data from separate runtimes
into a single master trace."  The four SYNC records an RPC leaves
(CALL_OUT in the caller, ENTER and EXIT in the callee, RETURN in the
caller — same logical thread id, successive sequence numbers) identify
which physical-thread trace segments fuse into one logical thread, and
in what order.

Timestamp correlation (§5.2): with real-time clocks, the pair of
intervals (ENTER − CALL_OUT) and (EXIT − RETURN) bracket the true clock
offset between the two runtimes (the NTP-style estimate
``((T2 − T1) + (T3 − T4)) / 2``); SYNC sequencing makes reconstruction
correct even when skew is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.reconstruct.model import (
    LogicalSegment,
    LogicalThreadTrace,
    ThreadTrace,
    TraceEvent,
)
from repro.runtime.records import SyncKind


@dataclass
class SyncPoint:
    """One SYNC event located in a thread trace."""

    trace: ThreadTrace
    step_index: int
    sync_kind: int
    runtime_id: int
    logical_id: int
    seq: int
    clock: int | None


def collect_sync_points(traces: list[ThreadTrace]) -> list[SyncPoint]:
    """All SYNC events across ``traces``, sorted by (logical id, seq)."""
    points: list[SyncPoint] = []
    for trace in traces:
        for idx, step in enumerate(trace.steps):
            if isinstance(step, TraceEvent) and step.kind == "sync":
                d = step.detail
                points.append(
                    SyncPoint(
                        trace=trace,
                        step_index=idx,
                        sync_kind=d["sync_kind"],
                        runtime_id=d["runtime_id"],
                        logical_id=d["logical_id"],
                        seq=d["seq"],
                        clock=step.clock,
                    )
                )
    points.sort(key=lambda p: (p.logical_id, p.seq))
    return points


def dedupe_sync_points(
    points: list[SyncPoint], losses: list[str] | None = None
) -> list[SyncPoint]:
    """Drop duplicated SYNC records (damaged buffers can replay them).

    Two points are duplicates when they agree on (logical id, seq, sync
    kind, runtime id); the first occurrence wins.  A live runtime never
    writes one twice: on undamaged traces this is the identity.
    """
    seen: set[tuple[int, int, int, int]] = set()
    kept: list[SyncPoint] = []
    dropped = 0
    for point in points:
        key = (point.logical_id, point.seq, point.sync_kind, point.runtime_id)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        kept.append(point)
    if dropped and losses is not None:
        losses.append(f"{dropped} duplicated SYNC record(s) ignored")
    return kept


def annotate_sync_gaps(
    chain: list[SyncPoint], notes: list[str]
) -> None:
    """Note the legs missing from one logical thread's SYNC chain.

    A hole proves no loss: undamaged evidence leaves them (a callee's
    snap cut at its fault before its EXIT — Figure 6 — a ring wrap, a
    participant with no snap), and damage that makes one is named by
    its own layer (skipped words, a duplicate, a missing machine).
    """
    if not chain:
        return
    seqs = [p.seq for p in chain]
    logical = chain[0].logical_id
    for prev, cur in zip(seqs, seqs[1:]):
        if cur > prev + 1:
            notes.append(
                f"logical thread {logical:#x}: SYNC leg(s) missing "
                f"(sequence jumps {prev} -> {cur})"
            )
    kinds = [p.sync_kind for p in chain]
    if kinds and kinds[0] not in (SyncKind.CALL_OUT, SyncKind.ENTER):
        notes.append(
            f"logical thread {logical:#x}: chain starts mid-RPC "
            f"(first surviving leg is kind {kinds[0]})"
        )


def sync_machine_pairs(traces: list[ThreadTrace]) -> set[tuple[str, str]]:
    """Machine-name pairs whose causal order SYNC evidence anchors.

    A pair is covered when at least one logical thread has surviving
    SYNC points on both machines — even an incomplete CALL_OUT/ENTER
    half-pair orders the two sides.
    """
    by_logical: dict[int, set[str]] = {}
    for point in collect_sync_points(traces):
        by_logical.setdefault(point.logical_id, set()).add(
            point.trace.machine_name
        )
    pairs: set[tuple[str, str]] = set()
    for machines in by_logical.values():
        pairs.update(combinations(sorted(machines), 2))
    return pairs


def stitch_logical_threads(
    traces: list[ThreadTrace],
    losses: list[str] | None = None,
    notes: list[str] | None = None,
) -> list[LogicalThreadTrace]:
    """Fuse physical-thread segments into logical threads.

    Walk each logical thread's SYNC points in sequence order; at each
    CALL_OUT the caller's segment (up to and including the SYNC) is
    appended, then the callee's ENTER..EXIT span, then the caller
    resumes at its RETURN.  Nested RPC chains compose because the callee
    passing the logical id along produces further CALL_OUTs with higher
    sequence numbers on the same logical id ("establishing a causality
    chain of physical thread trace segments").  Dropped duplicates go
    on ``losses``, missing legs on ``notes``.
    """
    points = dedupe_sync_points(collect_sync_points(traces), losses)
    by_logical: dict[int, list[SyncPoint]] = {}
    for point in points:
        by_logical.setdefault(point.logical_id, []).append(point)

    logical_traces: list[LogicalThreadTrace] = []
    for logical_id, chain in sorted(by_logical.items()):
        if notes is not None:
            annotate_sync_gaps(chain, notes)
        logical = LogicalThreadTrace(logical_id=logical_id)
        #: Where each physical trace's cursor stands (step index).
        cursors: dict[int, int] = {}

        def cursor_of(trace: ThreadTrace) -> int:
            return cursors.get(id(trace), 0)

        def append_segment(trace: ThreadTrace, end: int, leg: str) -> None:
            start = cursor_of(trace)
            if end > start:
                logical.segments.append(
                    LogicalSegment(trace=trace, start=start, end=end, leg=leg)
                )
            cursors[id(trace)] = end

        previous: SyncPoint | None = None
        for point in chain:
            if (
                previous is not None
                and previous.sync_kind == SyncKind.ENTER
                and point.trace is not previous.trace
            ):
                # The callee's EXIT never made it into its trace — the
                # snap was cut at a server-side fault (the Figure 6
                # case) or the buffer wrapped.  Flush the callee's
                # remaining steps as its segment so the crash site sits
                # causally inside the caller's call.
                append_segment(
                    previous.trace, len(previous.trace.steps), "callee"
                )
            leg = {
                SyncKind.CALL_OUT: "caller",
                SyncKind.ENTER: "callee",
                SyncKind.EXIT: "callee",
                SyncKind.RETURN: "caller",
            }.get(point.sync_kind, "caller")
            if point.sync_kind == SyncKind.ENTER:
                # Skip the callee's pre-RPC prefix (thread start etc.):
                # it belongs to the physical thread, not the logical one.
                cursors.setdefault(id(point.trace), point.step_index)
            append_segment(point.trace, point.step_index + 1, leg)
            previous = point

        # Trailing activity after the chain's final sync.
        if chain:
            final = chain[-1]
            if final.sync_kind == SyncKind.RETURN:
                append_segment(final.trace, len(final.trace.steps), "caller")
            elif final.sync_kind == SyncKind.ENTER:
                append_segment(final.trace, len(final.trace.steps), "callee")
        logical_traces.append(logical)
    return logical_traces


def estimate_skews(traces: list[ThreadTrace]) -> dict[tuple[int, int], int]:
    """Clock-offset estimates between runtime pairs (§5.2).

    For each RPC: offset(callee − caller) ≈ ((ENTER − CALL_OUT) +
    (EXIT − RETURN)) / 2.  Multiple RPCs between the same pair are
    averaged.
    """
    points = collect_sync_points(traces)
    by_logical: dict[int, list[SyncPoint]] = {}
    for point in points:
        by_logical.setdefault(point.logical_id, []).append(point)

    samples: dict[tuple[int, int], list[int]] = {}
    for chain in by_logical.values():
        by_seq = {p.seq: p for p in chain}
        for seq, call_out in list(by_seq.items()):
            if call_out.sync_kind != SyncKind.CALL_OUT:
                continue
            enter = by_seq.get(seq + 1)
            exit_ = by_seq.get(seq + 2)
            ret = by_seq.get(seq + 3)
            if not (
                enter is not None
                and exit_ is not None
                and ret is not None
                and enter.sync_kind == SyncKind.ENTER
                and exit_.sync_kind == SyncKind.EXIT
                and ret.sync_kind == SyncKind.RETURN
            ):
                continue
            if None in (call_out.clock, enter.clock, exit_.clock, ret.clock):
                continue
            offset = ((enter.clock - call_out.clock) + (exit_.clock - ret.clock)) // 2
            pair = (call_out.runtime_id, enter.runtime_id)
            samples.setdefault(pair, []).append(offset)
    return {
        pair: sum(values) // len(values) for pair, values in samples.items()
    }
