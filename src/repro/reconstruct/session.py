"""Top-level reconstruction API: snaps + mapfiles -> traces.

This is the entry point a user of the library calls.  Reconstruction
requires (1) a trace/snap file, (2) the mapfiles of the instrumented
modules — matched by checksum — exactly the paper's input list (§4),
with debug information embedded in the mapfiles.

Both strict and salvage disciplines are offered, on one path.  Salvage
mode reconstructs whatever the damage left behind — wrapped buffers,
torn archives, ``kill -9``'d processes, whole machines missing — and
attaches a :class:`~repro.reconstruct.model.DegradationSummary` naming
each loss, which is the paper's actual field regime (§2.1, §4.1).
Strict (the default) is that reconstruction refusing its first loss.
"""

from __future__ import annotations

from repro.instrument.mapfile import Mapfile
from repro.reconstruct.callstack import assign_depths
from repro.reconstruct.expand import ModuleIndex, expand_span
from repro.reconstruct.model import (
    DegradationSummary,
    DistributedTrace,
    ProcessTrace,
)
from repro.reconstruct.recovery import (
    REASON_EXPAND_FAILED,
    RecoveryError,
    SalvageReport,
    recover_spans_salvage,
)
from repro.reconstruct.stitch import (
    estimate_skews,
    stitch_logical_threads,
    sync_machine_pairs,
)
from repro.runtime.snap import SnapFile


class Reconstructor:
    """Reconstructs traces from snaps, given the mapfiles."""

    def __init__(self, mapfiles: list[Mapfile]):
        self.mapfiles = list(mapfiles)

    # ------------------------------------------------------------------
    def reconstruct(self, snap: SnapFile, strict: bool = True) -> ProcessTrace:
        """One snap -> per-thread line traces with call depths.

        ``strict=False`` selects salvage mode: damaged buffers yield
        whatever records survive, with per-buffer
        :class:`~repro.reconstruct.recovery.SalvageReport`s on the
        result's ``salvage`` list.  Strict mode is the same
        reconstruction refusing its first loss as a
        :class:`~repro.reconstruct.recovery.RecoveryError`, a span that
        fails to expand included.
        """
        index = ModuleIndex.build(snap, self.mapfiles)
        recovered = recover_spans_salvage(snap.buffers)
        if strict:
            recovered.refuse_loss()
        result = ProcessTrace(
            process_name=snap.process_name,
            machine_name=snap.machine_name,
            reason=snap.reason,
            detail=snap.detail,
            clock=snap.clock,
            notes=recovered.notes,
            salvage=[] if strict else recovered.reports,
        )
        for span in recovered.spans:
            # Defense in depth: salvaged records can be internally
            # inconsistent in ways expansion never sees from a live
            # runtime; a span that explodes becomes a named loss, not
            # a crash.
            try:
                trace = expand_span(span, index, snap)
            except Exception as exc:  # noqa: BLE001 — salvage barrier
                message = (
                    f"buffer {span.buffer_index}: thread {span.tid} span "
                    f"failed to expand ({type(exc).__name__}: {exc})"
                )
                if strict:
                    raise RecoveryError(message) from exc
                report = SalvageReport(buffer_index=span.buffer_index)
                report.note(REASON_EXPAND_FAILED, message)
                result.salvage.append(report)
                result.notes.append(message)
                continue
            assign_depths(trace)
            result.threads.append(trace)
        return result

    # ------------------------------------------------------------------
    def reconstruct_distributed(
        self,
        snaps: list[SnapFile | None],
        strict: bool = True,
        expected_machines: list[str] | None = None,
        salvage_notes: dict[str, list[str]] | None = None,
    ) -> DistributedTrace:
        """Several snaps (processes/machines) -> one master trace (§5).

        Fuses RPC caller/callee segments into logical threads and
        estimates inter-runtime clock skew from the SYNC quadruples.

        Salvage mode (``strict=False``) additionally tolerates absent
        machines: ``None`` entries in ``snaps`` are skipped, machines
        named in ``expected_machines`` but contributing no snap are
        reported missing, and the returned trace carries a
        :class:`~repro.reconstruct.model.DegradationSummary` describing
        every loss (``salvage_notes`` maps a machine name to extra loss
        lines, e.g. from archive salvage).
        """
        if strict:
            present = [snap for snap in snaps if snap is not None]
            if len(present) != len(snaps):
                raise ValueError(
                    f"{len(snaps) - len(present)} snap(s) missing; "
                    "use salvage mode (strict=False) to reconstruct "
                    "around the loss"
                )
            processes = [self.reconstruct(snap) for snap in present]
            all_threads = [t for p in processes for t in p.threads]
            return DistributedTrace(
                processes=processes,
                logical_threads=stitch_logical_threads(all_threads),
                skew_estimates=estimate_skews(all_threads),
            )

        degradation = DegradationSummary()
        processes = []
        for snap in snaps:
            if snap is None:
                continue
            process = self.reconstruct(snap, strict=False)
            processes.append(process)
            for report in process.salvage:
                if report.damaged:
                    degradation.losses.append(
                        f"machine {process.machine_name}: {report.summary()}"
                    )
        seen_machines = {p.machine_name for p in processes}
        for machine in expected_machines or []:
            if machine not in seen_machines:
                degradation.missing_machines.append(machine)
        for machine, lines in (salvage_notes or {}).items():
            degradation.losses.extend(
                f"machine {machine}: {line}" for line in lines
            )

        all_threads = [t for p in processes for t in p.threads]
        stitch_notes: list[str] = []
        logical = stitch_logical_threads(
            all_threads, salvage=True, notes=stitch_notes
        )
        degradation.losses.extend(stitch_notes)

        # Which machine pairs lack any surviving SYNC anchor?  Their
        # relative order in a merged view is approximate at best.
        covered = sync_machine_pairs(all_threads)
        machines = sorted(
            seen_machines | set(degradation.missing_machines)
        )
        for i, a in enumerate(machines):
            for b in machines[i + 1 :]:
                if (a, b) not in covered:
                    degradation.approximate_pairs.append((a, b))

        return DistributedTrace(
            processes=processes,
            logical_threads=logical,
            skew_estimates=estimate_skews(all_threads),
            degradation=degradation,
        )
