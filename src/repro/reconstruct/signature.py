"""Crash-signature mining: reconstructed evidence -> a stable bucket key.

At fleet scale a diagnosis per incident is useless until identical
faults collapse into ranked buckets — the "top crashers" view every
real crash pipeline converges on.  This module mines the signature
those buckets are keyed by.  Ingest mines it from the records it
already recovered (§4.1), expanding only the faulting thread's span
(§4.2); :func:`signature_of_trace` mines the same one from a whole
reconstruction.  It has two halves:

* the **normalized fault reason** — the snap reason plus the exception
  code *name* (never the raw pc), ``signal:<n>`` for signal snaps,
  bare ``hang``/``post-mortem`` for the others; non-fault snaps
  (``api``, ``external``, ``group`` bystanders) have no signature;
* the **normalized top-of-stack frames** — the faulting line resolved
  through the mapfile (module, function, file, line) plus the open
  enclosing activations (module, function), recovered by a *backward*
  scan from the fault so the signature only depends on the tail of the
  trace.  Wrapped buffers, damage to older history, and damage to
  *other* threads or machines leave the signature unchanged — that is
  what makes it salvage-tolerant.

Everything machine-, run-, or placement-specific is stripped: machine
name, process name, pid, clocks (skew tolerance), ingest seqs, code
addresses, block ids, SYNC logical ids.  Two users hitting the same
bug on different machines with skewed clocks and differently-damaged
evidence produce the same string.

The rendered signature is itself the canonical form (human-readable in
manifests and reports); :attr:`CrashSignature.key` is its short hash
for compact display.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.reconstruct.expand import ModuleIndex, expand_span
from repro.reconstruct.model import LineStep, ProcessTrace, ThreadTrace
from repro.reconstruct.recovery import recover_spans_salvage
from repro.runtime.records import ExtKind, ExtRecord
from repro.vm.errors import ExcCode

#: Snap reasons that describe a fault (and therefore carry a signature).
#: Everything else — ``api``, ``external``, ``group`` fan-out bystanders
#: — is evidence *about* an incident, not the crash itself.
FAULT_REASONS = frozenset(
    {"unhandled", "exception", "signal", "hang", "post-mortem"}
)

#: Cap on stack frames folded into a signature.  Small on purpose: the
#: innermost frames are the stable identity of a crash, while outer
#: frames are the first casualties of buffer wrap/truncation — a deep
#: cap would make signatures *less* stable, not more precise.
MAX_FRAMES = 5


@dataclass(frozen=True)
class CrashSignature:
    """A normalized, comparable identity of one fault."""

    #: Normalized fault class, e.g. ``unhandled:DIVIDE_BY_ZERO``.
    reason: str
    #: ``(module, func, file, line)`` innermost-first; outer frames use
    #: ``("", -1)`` for file/line (call sites are not part of the key —
    #: the open function chain is).
    frames: tuple[tuple[str, str, str, int], ...] = ()

    def render(self) -> str:
        """The canonical string form — what manifests store."""
        parts = []
        for module, func, file, line in self.frames:
            if file:
                parts.append(f"{module}.{func}({file}:{line})")
            else:
                parts.append(f"{module}.{func}")
        if not parts:
            return self.reason
        return f"{self.reason} @ " + " < ".join(parts)

    @property
    def key(self) -> str:
        """Short stable hash of the canonical form (display/report id)."""
        return signature_key(self.render())


def signature_key(sig: str) -> str:
    """Short stable hash of a rendered signature string."""
    return hashlib.sha256(sig.encode()).hexdigest()[:12]


def normalize_reason(reason: str, detail: dict) -> str | None:
    """The fault-class half of the signature, or None for non-faults.

    Address-like detail fields (``pc``) are deliberately ignored; codes
    are rendered by *name* so the class reads in reports and never
    absorbs layout-specific numbering.
    """
    if reason not in FAULT_REASONS:
        return None
    detail = detail if isinstance(detail, dict) else {}
    if reason in ("unhandled", "exception"):
        code = detail.get("code")
        if isinstance(code, int):
            return f"{reason}:{ExcCode.name(code)}"
        return reason
    if reason == "signal":
        signum = detail.get("signum")
        return f"signal:{signum}" if signum is not None else "signal"
    if reason == "post-mortem":
        signum = detail.get("signal")
        return (
            f"post-mortem:signal-{signum}"
            if signum is not None
            else "post-mortem"
        )
    return reason  # hang


def _fault_position(thread: ThreadTrace) -> tuple[int, dict | None]:
    """Index just past the faulting step, plus the exception detail.

    The *last* exception event wins (earlier ones were handled — control
    resumed); a thread with no exception event faults "where it is",
    i.e. at its final step (hangs, post-mortem kills).
    """
    for idx in range(len(thread.steps) - 1, -1, -1):
        step = thread.steps[idx]
        if isinstance(step, LineStep):
            continue
        if step.kind == "exception":
            return idx, step.detail
    return len(thread.steps), None


def _open_activations(
    thread: ThreadTrace, stop: int, limit: int
) -> list[tuple[str, str]]:
    """(module, func) of activations still open at step ``stop``.

    A backward scan: walking toward the front of the trace, a
    ``func_exit`` line marks a *completed* subcall whose matching entry
    must be skipped; a ``func_entry`` line with no pending exit is an
    activation still open at the fault.  Only the tail up to the
    outermost surviving frame is ever read, so truncation of older
    history costs at most outer frames beyond :data:`MAX_FRAMES` —
    never a different signature for the frames that survive.
    """
    frames: list[tuple[str, str]] = []
    balance = 0
    for idx in range(stop - 1, -1, -1):
        step = thread.steps[idx]
        if not isinstance(step, LineStep):
            continue
        if step.is_func_exit:
            balance += 1
        if step.is_func_entry:
            if balance > 0:
                # A single-block leaf function sets both flags on one
                # step; the exit seen first pairs with this entry.
                balance -= 1
            else:
                frames.append((step.module, step.func))
                if len(frames) >= limit:
                    break
    return frames


def _faulting_thread(trace: ProcessTrace) -> ThreadTrace | None:
    """The thread the signature is mined from.

    The last thread carrying an exception event wins (the fault record
    is written before the snap, so it is present in the faulting
    thread's span); otherwise the last thread with any line evidence —
    hangs and post-mortem kills fault wherever they stopped.
    """
    with_exception = [
        t
        for t in trace.threads
        if any(e.kind == "exception" for e in t.events())
    ]
    if with_exception:
        return with_exception[-1]
    with_lines = [t for t in trace.threads if t.line_steps()]
    return with_lines[-1] if with_lines else None


def _faulting_span_thread(snap, mapfiles, spans) -> ThreadTrace | None:
    """The faulting thread of a snap, expanded alone from its span.

    :func:`_faulting_thread`'s rule, read off the recovered spans: the
    last span holding an EXCEPTION record (which expands to an
    ``exception`` event) wins, else the last span whose expansion has
    a line.  A span that fails to expand is skipped, as salvage
    reconstruction skips it.
    """
    index = ModuleIndex.build(snap, mapfiles)

    def expand(span) -> ThreadTrace | None:
        try:
            return expand_span(span, index, snap)
        except Exception:  # noqa: BLE001 — salvage skips the span
            return None

    quiet = []  # spans with no EXCEPTION record, newest first
    for span in reversed(spans):
        if not any(
            isinstance(record, ExtRecord) and record.kind == ExtKind.EXCEPTION
            for record in reversed(span.records)
        ):
            quiet.append(span)
        elif (thread := expand(span)) is not None:
            return thread
    for span in quiet:
        thread = expand(span)
        if thread is not None and thread.line_steps():
            return thread
    return None


def signature_of_trace(trace: ProcessTrace) -> CrashSignature | None:
    """Mine the signature from one reconstructed process trace.

    Returns None for non-fault snaps and for fault snaps whose evidence
    is too damaged to yield even one frame *and* whose reason alone
    would be ambiguous — an unbucketed incident is a recall loss, a
    wrongly-merged one is a precision loss, and triage optimizes for
    precision.
    """
    reason = normalize_reason(trace.reason, trace.detail)
    if reason is None:
        return None
    return _signature_of_thread(reason, _faulting_thread(trace))


def _signature_of_thread(
    reason: str, thread: ThreadTrace | None
) -> CrashSignature | None:
    """The signature of a fault of class ``reason`` in ``thread``."""
    if thread is None:
        return None

    fault_idx, exc_detail = _fault_position(thread)

    # Innermost frame: the exception record resolved through the
    # mapfile when it survived; the last executed line otherwise.
    innermost: tuple[str, str, str, int] | None = None
    if exc_detail is not None and "file" in exc_detail:
        innermost = (
            str(exc_detail.get("module") or ""),
            str(exc_detail.get("func") or ""),
            str(exc_detail["file"]),
            int(exc_detail["line"]),
        )
    else:
        last_line = None
        for idx in range(min(fault_idx, len(thread.steps)) - 1, -1, -1):
            step = thread.steps[idx]
            if isinstance(step, LineStep):
                last_line = step
                break
        if last_line is not None:
            innermost = (
                last_line.module,
                last_line.func,
                last_line.file,
                last_line.line,
            )
    if innermost is None:
        return None  # no frame evidence at all: leave unbucketed

    outer = _open_activations(thread, fault_idx, MAX_FRAMES)
    # The innermost open activation *is* the faulting function; its
    # (module, func) already leads the frame list.
    if outer and outer[0] == innermost[:2]:
        outer = outer[1:]
    frames = [innermost]
    frames.extend(
        (module, func, "", -1)
        for module, func in outer[: MAX_FRAMES - 1]
    )
    return CrashSignature(reason=reason, frames=tuple(frames))


def snap_signature(snap, mapfiles, recovered=None) -> str | None:
    """Rendered signature of one snap, or None — never raises.

    Mined from the salvage span recovery (like SYNC-id mining:
    best-effort metadata; ``recovered`` when the caller already made
    it), so a damaged snap yields whatever signature its surviving
    tail supports: :func:`signature_of_trace` of its salvage
    reconstruction, with only the faulting span expanded.
    """
    if snap.reason not in FAULT_REASONS:
        return None
    try:
        if recovered is None:
            recovered = recover_spans_salvage(snap.buffers)
        signature = _signature_of_thread(
            normalize_reason(snap.reason, snap.detail),
            _faulting_span_thread(snap, mapfiles, recovered.spans),
        )
    except Exception:  # noqa: BLE001 — mining is best-effort metadata
        return None
    return signature.render() if signature is not None else None
