"""Top-level reconstruction API: snaps + mapfiles -> traces.

This is the entry point a user of the library calls.  Reconstruction
requires (1) a trace/snap file, (2) the mapfiles of the instrumented
modules — matched by checksum — exactly the paper's input list (§4),
with debug information embedded in the mapfiles.

Both strict and salvage disciplines are offered, on one path.  Salvage
mode reconstructs whatever the damage left behind — wrapped buffers,
torn archives, ``kill -9``'d processes, whole machines missing — and
names each loss (a distributed trace's
:class:`~repro.reconstruct.model.DegradationSummary`), which is the
paper's actual field regime (§2.1, §4.1).  Strict (the default) is that
reconstruction refusing its first loss.
"""

from __future__ import annotations

from itertools import combinations

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

        Each snap is reconstructed the salvage way.  The trace's
        :class:`~repro.reconstruct.model.DegradationSummary` names every
        loss: damaged buffers, ``salvage_notes`` (machine name -> loss
        lines, e.g. from archive salvage), machines in
        ``expected_machines`` with no snap, ``None`` snaps none of them
        accounts for, duplicated SYNC records.  Strict mode (the
        default) refuses its first missing machine or loss as a
        :class:`~repro.reconstruct.recovery.RecoveryError`.
        """
        processes = [
            self.reconstruct(snap, strict=False)
            for snap in snaps
            if snap is not None
        ]
        losses: list[str] = []
        notes: list[str] = []
        for process in processes:
            machine = process.machine_name
            for report in process.salvage:
                if report.loss is not None:
                    losses.append(f"machine {machine}: {report.summary()}")
                elif report.damaged:  # a used shared buffer loses nothing
                    notes.append(f"machine {machine}: {report.problems[0]}")
        for machine, lines in (salvage_notes or {}).items():
            losses.extend(f"machine {machine}: {line}" for line in lines)
        all_threads = [t for p in processes for t in p.threads]
        logical = stitch_logical_threads(all_threads, losses, notes)

        # Which machine pairs lack any surviving SYNC anchor?  Their
        # relative order in a merged view is approximate at best.
        seen = {p.machine_name for p in processes}
        missing = [m for m in expected_machines or [] if m not in seen]
        covered = sync_machine_pairs(all_threads)
        approximate = [
            pair
            for pair in combinations(sorted(seen | set(missing)), 2)
            if pair not in covered
        ]
        # A lost snap no expected machine accounts for is still lost;
        # its machine unknown, it goes by its position.
        lost = [i for i, snap in enumerate(snaps) if snap is None]
        missing += [f"<snap {i}>" for i in lost[len(missing) :]]
        degradation = DegradationSummary(
            losses, approximate_pairs=approximate, missing_machines=missing
        )
        if strict and degradation.loss is not None:
            raise RecoveryError(
                f"{degradation.loss}; use salvage mode (strict=False) to "
                "reconstruct around the loss"
            )
        return DistributedTrace(
            processes=processes,
            logical_threads=logical,
            skew_estimates=estimate_skews(all_threads),
            degradation=degradation,
            notes=notes,
        )
