"""Data model of reconstructed traces.

Reconstruction turns raw buffer words into a line-by-line execution
history (§4).  The model mirrors what the TraceBack GUI displays: line
steps with module/file/line columns and call-nesting depth, interleaved
with event annotations (exceptions, syncs, timestamps, thread
lifecycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LineStep:
    """One executed source line."""

    module: str
    func: str
    file: str
    line: int
    #: Instrumented-module code offset of the block this line came from.
    block_id: int
    #: Call-nesting depth (0 = outermost), filled by the call-stack pass.
    depth: int = 0
    #: Block annotations surfaced for the GUI (§4.3.1).
    is_func_entry: bool = False
    is_func_exit: bool = False
    call: str | None = None
    #: Clock of the last timestamp record at or before this step (used
    #: by cross-thread interleaving; None until an anchor was seen).
    anchor_clock: int | None = None
    #: Position within the thread's trace (monotone).
    seq: int = 0


@dataclass
class TraceEvent:
    """A non-line event in a thread's history."""

    kind: str  # exception | exception_end | sync | timestamp | snapmark
    #          | thread_start | thread_end | untraced | note
    detail: dict = field(default_factory=dict)
    clock: int | None = None
    depth: int = 0
    anchor_clock: int | None = None
    seq: int = 0


Step = LineStep | TraceEvent


@dataclass
class ThreadTrace:
    """The reconstructed history of one physical thread."""

    tid: int | None
    buffer_index: int
    process_name: str
    machine_name: str
    steps: list[Step] = field(default_factory=list)
    #: True when the span's THREAD_START was overwritten by buffer wrap
    #: (history is truncated at the front — by design).
    truncated: bool = False

    def line_steps(self) -> list[LineStep]:
        """Only the executed-line steps."""
        return [s for s in self.steps if isinstance(s, LineStep)]

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Only events, optionally filtered by kind."""
        return [
            s
            for s in self.steps
            if isinstance(s, TraceEvent) and (kind is None or s.kind == kind)
        ]

    def last_line(self) -> LineStep | None:
        """The most recent executed line (where the thread 'is')."""
        lines = self.line_steps()
        return lines[-1] if lines else None

    def sync_events(self) -> list[TraceEvent]:
        """SYNC events in order (distributed stitching input)."""
        return self.events("sync")


@dataclass
class ProcessTrace:
    """All thread traces recovered from one snap."""

    process_name: str
    machine_name: str
    reason: str
    detail: dict
    clock: int
    threads: list[ThreadTrace] = field(default_factory=list)
    #: Messages about unrecoverable data (bad DAGs, shared buffers...).
    notes: list[str] = field(default_factory=list)
    #: Per-buffer :class:`~repro.reconstruct.recovery.SalvageReport`s,
    #: populated only by salvage-mode reconstruction.
    salvage: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether salvage-mode recovery lost anything in this process."""
        return any(r.damaged for r in self.salvage)

    def thread(self, tid: int) -> ThreadTrace | None:
        """The trace of thread ``tid`` (the most recent span)."""
        found = [t for t in self.threads if t.tid == tid]
        return found[-1] if found else None


@dataclass
class LogicalSegment:
    """A contiguous run of one physical thread inside a logical thread."""

    trace: ThreadTrace
    start: int  # step index (inclusive)
    end: int  # step index (exclusive)
    leg: str  # "caller" or "callee"

    def steps(self) -> list[Step]:
        return self.trace.steps[self.start : self.end]


@dataclass
class LogicalThreadTrace:
    """A fused caller/callee history across runtimes (§5.1)."""

    logical_id: int
    segments: list[LogicalSegment] = field(default_factory=list)

    def steps(self) -> list[tuple[ThreadTrace, Step]]:
        """Flattened (owner, step) pairs in causal order."""
        out: list[tuple[ThreadTrace, Step]] = []
        for segment in self.segments:
            out.extend((segment.trace, step) for step in segment.steps())
        return out


@dataclass
class DegradationSummary:
    """What a reconstruction lost, and how far down the degradation
    ladder the answer sits.

    The ladder (DESIGN.md): **full** trace -> **gaps** (per-thread holes
    from damaged buffers) -> **approximate** (causal order between some
    machines unproven — no surviving SYNC pair) -> **partial** (whole
    machines missing from the evidence).
    """

    #: Human-readable loss statements, e.g. "machine B: buffer 2
    #: corrupt, 312/4096 words skipped".
    losses: list[str] = field(default_factory=list)
    #: Machine-name pairs whose relative causal order is approximate
    #: (no complete SYNC quadruple survives between them).
    approximate_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: Machines that should have contributed a snap but did not (an
    #: unnamed one by its snap's position, e.g. ``<snap 2>``).
    missing_machines: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(
            self.losses or self.approximate_pairs or self.missing_machines
        )

    @property
    def level(self) -> str:
        """The ladder rung: full | gaps | approximate | partial."""
        if self.missing_machines:
            return "partial"
        if self.approximate_pairs:
            return "approximate"
        if self.losses:
            return "gaps"
        return "full"

    @property
    def loss(self) -> str | None:
        """The first missing machine or loss, which strict mode refuses;
        None when nothing was lost (approximate pairs lose nothing)."""
        if self.missing_machines:
            return f"machine {self.missing_machines[0]}: no snap recovered"
        return self.losses[0] if self.losses else None

    def lines(self) -> list[str]:
        """Display lines for the degradation banner."""
        out = [f"degradation: {self.level}"]
        for machine in self.missing_machines:
            out.append(f"  machine {machine}: no snap recovered")
        for a, b in self.approximate_pairs:
            out.append(
                f"  causal order between {a} and {b} approximate "
                "(no surviving SYNC pair)"
            )
        out.extend(f"  {loss}" for loss in self.losses)
        return out

    def summary(self) -> str:
        """The whole banner as one string."""
        return "\n".join(self.lines())


@dataclass
class DistributedTrace:
    """A master trace stitched from several snaps (§5)."""

    processes: list[ProcessTrace]
    logical_threads: list[LogicalThreadTrace]
    #: (runtime_a, runtime_b) -> estimated clock offset b - a (§5.2).
    skew_estimates: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Every loss, in either mode (strict refuses the first).
    degradation: DegradationSummary = field(default_factory=DegradationSummary)
    #: What is absent but not lost (SYNC legs never written, used shared
    #: buffers): rendered, never a rung.
    notes: list[str] = field(default_factory=list)
