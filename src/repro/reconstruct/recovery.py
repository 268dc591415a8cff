"""Trace record recovery (§4.1): raw buffer words -> per-thread records.

"TraceBack examines the trace file to verify its integrity.  Sub-buffer
boundaries are removed to produce a contiguous span of trace data.  Each
buffer is then mined ... to recover the trace records it contains.
These record sequences are then split up by thread."

Sub-buffer ordering uses the commit bookkeeping of §3.2: the header
names the last committed sub-buffer; the one after it (cyclically) is
currently being filled, making the one after *that* the oldest surviving
data.  Threads are split on THREAD_START / THREAD_END records; a leading
anonymous span (its THREAD_START overwritten by wrap) is attributed to
the closing THREAD_END's tid, or to the buffer's current owner.

Two recovery disciplines coexist, mining with the same resync scan
(:func:`~repro.runtime.records.read_forward_salvage_bulk`):

* **strict** (the default): any integrity violation — including a
  single word the scan could not place in a record — raises
  :class:`RecoveryError`: the right behaviour for tests and for
  pipelines that must not silently accept damaged evidence;
* **salvage**: every buffer yields whatever records survive, plus a
  :class:`SalvageReport` accounting for what was lost and why.  This is
  the paper's actual operating regime — a snap cut by ``kill -9``, a
  trace file torn in transmission, a clobbered header — where a partial
  answer beats a stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.buffers import BufferFlags, HEADER_WORDS, MAGIC
from repro.runtime.records import (
    ExtKind,
    ExtRecord,
    Record,
    read_forward_salvage_bulk,
)
from repro.runtime.snap import BufferDump


class RecoveryError(ValueError):
    """The trace data failed integrity checks."""


#: Reason codes a :class:`SalvageReport` can carry.
REASON_TOO_SHORT = "too-short"
REASON_BAD_MAGIC = "bad-magic"
REASON_BAD_GEOMETRY = "bad-geometry"
REASON_LENGTH_MISMATCH = "length-mismatch"
REASON_BAD_COMMIT = "bad-commit-index"
REASON_GARBAGE_WORDS = "garbage-words"
REASON_SHARED = "shared-buffer"
REASON_EXPAND_FAILED = "expand-failed"


@dataclass
class SalvageReport:
    """What salvage-mode recovery got out of (and lost in) one buffer."""

    buffer_index: int
    records_recovered: int = 0
    words_scanned: int = 0
    words_skipped: int = 0
    #: Reason codes (REASON_*) for each distinct problem found.
    reasons: list[str] = field(default_factory=list)
    #: Human-readable diagnostics matching ``reasons``.
    problems: list[str] = field(default_factory=list)

    def note(self, reason: str, message: str) -> None:
        """Record one problem (reason code + diagnostic)."""
        if reason not in self.reasons:
            self.reasons.append(reason)
        self.problems.append(message)

    @property
    def damaged(self) -> bool:
        """Whether this buffer lost anything."""
        return bool(self.reasons) or self.words_skipped > 0

    def summary(self) -> str:
        """One display line, e.g. ``buffer 2: corrupt, 312/4096 words
        skipped (garbage-words)``."""
        if not self.damaged:
            return (
                f"buffer {self.buffer_index}: intact, "
                f"{self.records_recovered} records"
            )
        codes = ", ".join(self.reasons) or "damaged"
        return (
            f"buffer {self.buffer_index}: corrupt, "
            f"{self.words_skipped}/{self.words_scanned} words skipped "
            f"({codes}); {self.records_recovered} records recovered"
        )


@dataclass
class RecoveryResult:
    """Everything salvage-mode recovery produced from one snap."""

    spans: list[ThreadSpan] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    reports: list[SalvageReport] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return any(r.damaged for r in self.reports)


@dataclass
class ThreadSpan:
    """One thread lifetime's records within one buffer."""

    buffer_index: int
    tid: int | None
    records: list[Record] = field(default_factory=list)
    has_start: bool = False
    has_end: bool = False

    @property
    def truncated(self) -> bool:
        """Whether the front of the history was overwritten."""
        return not self.has_start


def verify_buffer(dump: BufferDump, strict: bool = True) -> list[str]:
    """Integrity checks on a dumped buffer ("verify its integrity").

    In strict mode the first violation raises :class:`RecoveryError`.
    Otherwise every problem is returned as a ``(reason, message)`` pair
    encoded ``"reason: message"`` — the salvage path turns these into
    :class:`SalvageReport` entries.
    """
    problems: list[str] = []

    def fail(reason: str, message: str) -> None:
        if strict:
            raise RecoveryError(message)
        problems.append(f"{reason}: {message}")

    words = dump.words
    if len(words) < HEADER_WORDS:
        fail(REASON_TOO_SHORT, f"buffer {dump.index}: too short")
        return problems  # nothing below is checkable
    if words[0] != MAGIC:
        fail(
            REASON_BAD_MAGIC,
            f"buffer {dump.index}: bad magic {words[0]:#x}",
        )
    if dump.sub_count <= 0 or dump.sub_size <= 1:
        fail(
            REASON_BAD_GEOMETRY,
            f"buffer {dump.index}: bad geometry "
            f"{dump.sub_count}x{dump.sub_size}",
        )
        return problems  # geometry is unusable: stop here
    expected = HEADER_WORDS + dump.sub_count * dump.sub_size
    if len(words) != expected:
        fail(
            REASON_LENGTH_MISMATCH,
            f"buffer {dump.index}: {len(words)} words, header implies {expected}",
        )
    committed = words[4]
    if committed != 0xFFFFFFFF and committed >= dump.sub_count:
        fail(
            REASON_BAD_COMMIT,
            f"buffer {dump.index}: committed index {committed} out of "
            f"range (clobbered header?)",
        )
    return problems


def sub_buffer_order(dump: BufferDump) -> list[int]:
    """Sub-buffer indices oldest -> newest (the current one last)."""
    committed = dump.words[4]
    if committed == 0xFFFFFFFF or committed >= dump.sub_count:
        # No commit yet — or a clobbered header word, which salvage mode
        # treats the same way: start from sub-buffer 0.
        current = 0
    else:
        current = (committed + 1) % dump.sub_count
    return [(current + 1 + i) % dump.sub_count for i in range(dump.sub_count)]


def mine_buffer(dump: BufferDump) -> list[Record]:
    """All records in one buffer, oldest first (§4.1).

    Each sub-buffer is mined by the resync scan
    (:func:`~repro.runtime.records.read_forward_salvage_bulk`) from its
    base to its last non-zero entry; sub-buffers are concatenated in
    commit order.  Strict: a sub-buffer that loses any word — garbage,
    a record whose trailer disagrees, a zeroed hole before written
    data — raises :class:`RecoveryError` naming it.
    """
    verify_buffer(dump)
    records: list[Record] = []
    for sub in sub_buffer_order(dump):
        start = HEADER_WORDS + sub * dump.sub_size
        end = start + dump.sub_size - 1  # exclusive of the sentinel
        sub_records, lost = read_forward_salvage_bulk(dump.words, start, end)
        if lost:
            raise RecoveryError(
                f"buffer {dump.index}: sub-buffer {sub}: {lost} of "
                f"{end - start} words lost (unparseable, or zeroed "
                "before written data)"
            )
        records.extend(sub_records)
    return records


def mine_buffer_salvage(dump: BufferDump) -> tuple[list[Record], SalvageReport]:
    """Best-effort mining of a possibly damaged buffer.

    Every integrity violation is logged to the report instead of
    raising; mining proceeds over whatever words exist, clamped to the
    geometry the snap metadata declares.
    """
    report = SalvageReport(buffer_index=dump.index)
    for problem in verify_buffer(dump, strict=False):
        reason, _, message = problem.partition(": ")
        report.note(reason, message)
    words = dump.words
    if len(words) < HEADER_WORDS or REASON_BAD_GEOMETRY in report.reasons:
        # No mineable data area at all.
        report.words_scanned = max(0, len(words) - HEADER_WORDS)
        report.words_skipped = report.words_scanned
        return [], report

    records: list[Record] = []
    for sub in sub_buffer_order(dump):
        start = HEADER_WORDS + sub * dump.sub_size
        end = min(start + dump.sub_size - 1, len(words))  # sans sentinel
        if start >= len(words):
            # Truncated container: this sub-buffer is simply gone.
            report.words_skipped += dump.sub_size - 1
            report.words_scanned += dump.sub_size - 1
            continue
        sub_records, skipped = read_forward_salvage_bulk(words, start, end)
        records.extend(sub_records)
        report.words_scanned += end - start
        report.words_skipped += skipped
        # Words the truncation cut off count as lost too.
        missing = (start + dump.sub_size - 1) - end
        if missing > 0:
            report.words_skipped += missing
            report.words_scanned += missing
    if report.words_skipped and REASON_GARBAGE_WORDS not in report.reasons:
        report.note(
            REASON_GARBAGE_WORDS,
            f"buffer {dump.index}: {report.words_skipped} words skipped "
            "(unparseable, or zeroed before written data)",
        )
    report.records_recovered = len(records)
    return records, report


def split_by_thread(dump: BufferDump, records: list[Record]) -> list[ThreadSpan]:
    """Split a buffer's record stream into per-thread lifetimes.

    Buffers are reused across threads (§3.1.2), so one buffer can hold
    "several threads' entire lifetimes".
    """
    spans: list[ThreadSpan] = []
    current = ThreadSpan(buffer_index=dump.index, tid=None)

    def close(span: ThreadSpan) -> None:
        if span.records or span.has_start or span.has_end:
            spans.append(span)

    for record in records:
        if isinstance(record, ExtRecord) and record.kind == ExtKind.THREAD_START:
            close(current)
            current = ThreadSpan(
                buffer_index=dump.index,
                tid=record.payload[0] if record.payload else None,
                has_start=True,
            )
            current.records.append(record)
        elif isinstance(record, ExtRecord) and record.kind == ExtKind.THREAD_END:
            current.records.append(record)
            current.has_end = True
            if current.tid is None and record.payload:
                # Anonymous leading span: the END record names the owner.
                current.tid = record.payload[0]
            close(current)
            current = ThreadSpan(buffer_index=dump.index, tid=None)
        else:
            current.records.append(record)
    close(current)

    # A trailing (or only) anonymous span belongs to the current owner:
    # its THREAD_START was overwritten by buffer wrap.
    for span in spans:
        if span.tid is None and not span.has_end:
            span.tid = dump.owner_tid
    return spans


def recover_spans(dumps: list[BufferDump]) -> tuple[list[ThreadSpan], list[str]]:
    """Recover thread spans from every recoverable buffer in a snap.

    Shared (desperation/static) and probation buffers are skipped — by
    design their contents are not reconstructable (§3.1) — with a note.
    """
    spans: list[ThreadSpan] = []
    notes: list[str] = []
    for dump in dumps:
        if dump.flags & BufferFlags.PROBATION:
            continue
        if dump.flags & BufferFlags.SHARED:
            used = any(w not in (0, 0xFFFFFFFF) for w in dump.words[HEADER_WORDS:])
            if used:
                notes.append(
                    f"buffer {dump.index}: shared (desperation) buffer "
                    "contains unsynchronized records; not recovered"
                )
            continue
        records = mine_buffer(dump)
        spans.extend(split_by_thread(dump, records))
    return spans, notes


def recover_spans_salvage(dumps: list[BufferDump]) -> RecoveryResult:
    """Salvage-mode counterpart of :func:`recover_spans`.

    Never raises: every buffer contributes whatever spans survive, and
    each one's :class:`SalvageReport` records what was lost.  Probation
    and shared buffers are skipped exactly as in strict mode.
    """
    result = RecoveryResult()
    for dump in dumps:
        if dump.flags & BufferFlags.PROBATION:
            continue
        if dump.flags & BufferFlags.SHARED:
            used = any(
                w not in (0, 0xFFFFFFFF) for w in dump.words[HEADER_WORDS:]
            )
            if used:
                report = SalvageReport(buffer_index=dump.index)
                report.note(
                    REASON_SHARED,
                    f"buffer {dump.index}: shared (desperation) buffer "
                    "contains unsynchronized records; not recovered",
                )
                result.reports.append(report)
                result.notes.append(report.problems[-1])
            continue
        records, report = mine_buffer_salvage(dump)
        result.reports.append(report)
        if report.damaged:
            result.notes.append(report.summary())
        result.spans.extend(split_by_thread(dump, records))
    return result
