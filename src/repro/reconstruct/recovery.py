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

One miner serves both recovery disciplines: :func:`mine_buffer_salvage`
and :func:`recover_spans_salvage`, built on the resync scan
(:func:`~repro.runtime.records.read_forward_salvage_bulk`):

* **salvage**: every buffer yields whatever records survive, plus a
  :class:`SalvageReport` accounting for what was lost and why.  This is
  the paper's actual operating regime — a snap cut by ``kill -9``, a
  trace file torn in transmission, a clobbered header — where a partial
  answer beats a stack trace;
* **strict** (the default): :func:`mine_buffer` and
  :func:`recover_spans` are the salvage miners refusing the first loss
  they record — an integrity violation, or a single word the scan could
  not place in a record — as :class:`RecoveryError`: the right
  behaviour for tests and for pipelines that must not silently accept
  damaged evidence.  A shared (desperation) buffer is skipped with a
  note, not refused: by design its contents are not reconstructable.
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

    @property
    def loss(self) -> str | None:
        """The first loss this buffer records, which strict mode
        refuses; None when it lost nothing, or is only a shared buffer
        skipped with a note."""
        if self.damaged and self.reasons != [REASON_SHARED]:
            return self.problems[0]
        return None

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

    def refuse_loss(self) -> None:
        """Strict mode: raise :class:`RecoveryError` with the first loss
        any buffer's report records."""
        for report in self.reports:
            if report.loss is not None:
                raise RecoveryError(report.loss)


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


def verify_buffer(dump: BufferDump) -> list[tuple[str, str]]:
    """Integrity checks on a dumped buffer ("verify its integrity"):
    every problem found, as ``(REASON_*, message)``; never raises."""
    words, where = dump.words, f"buffer {dump.index}"
    if len(words) < HEADER_WORDS:
        return [(REASON_TOO_SHORT, f"{where}: too short")]
    problems: list[tuple[str, str]] = []
    if words[0] != MAGIC:
        problems.append((REASON_BAD_MAGIC, f"{where}: bad magic {words[0]:#x}"))
    if dump.sub_count <= 0 or dump.sub_size <= 1:
        geometry = f"{dump.sub_count}x{dump.sub_size}"
        problems.append((REASON_BAD_GEOMETRY, f"{where}: bad geometry {geometry}"))
        return problems  # geometry is unusable: stop here
    expected = HEADER_WORDS + dump.sub_count * dump.sub_size
    if len(words) != expected:
        problems.append(
            (
                REASON_LENGTH_MISMATCH,
                f"{where}: {len(words)} words, header implies {expected}",
            )
        )
    committed = words[4]
    if committed != 0xFFFFFFFF and committed >= dump.sub_count:
        problems.append(
            (
                REASON_BAD_COMMIT,
                f"{where}: committed index {committed} out of range "
                "(clobbered header?)",
            )
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

    Strict: :func:`mine_buffer_salvage` refusing the first loss it
    records as :class:`RecoveryError` — a failed integrity check, or a
    sub-buffer that lost any word (garbage, a record whose trailer
    disagrees, a zeroed hole before written data), named.
    """
    records, report = mine_buffer_salvage(dump)
    if report.loss is not None:
        raise RecoveryError(report.loss)
    return records


def mine_buffer_salvage(dump: BufferDump) -> tuple[list[Record], SalvageReport]:
    """Best-effort mining of a possibly damaged buffer.

    Each sub-buffer is mined by the resync scan
    (:func:`~repro.runtime.records.read_forward_salvage_bulk`) from its
    base to its last non-zero entry; sub-buffers are concatenated in
    commit order.  Every integrity violation, and every sub-buffer that
    loses words, is logged to the report instead of raising; mining
    proceeds over whatever words exist, clamped to the geometry the
    snap metadata declares.
    """
    report = SalvageReport(buffer_index=dump.index)
    for reason, message in verify_buffer(dump):
        report.note(reason, message)
    words = dump.words
    if len(words) < HEADER_WORDS or REASON_BAD_GEOMETRY in report.reasons:
        # No mineable data area at all.
        report.words_scanned = max(0, len(words) - HEADER_WORDS)
        report.words_skipped = report.words_scanned
        return [], report

    records: list[Record] = []
    size = dump.sub_size - 1  # sans sentinel
    for sub in sub_buffer_order(dump):
        start = HEADER_WORDS + sub * dump.sub_size
        # A truncated dump cuts the sub-buffer short, or off entirely.
        end = max(start, min(start + size, len(words)))
        sub_records, lost = read_forward_salvage_bulk(words, start, end)
        records.extend(sub_records)
        lost += start + size - end  # words the truncation cut off
        report.words_scanned += size
        if lost:
            report.words_skipped += lost
            report.note(
                REASON_GARBAGE_WORDS,
                f"buffer {dump.index}: sub-buffer {sub}: {lost} of {size} "
                "words lost (unparseable, or zeroed before written data)",
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
    """Recover thread spans from every buffer in a snap, strictly:
    :func:`recover_spans_salvage` refusing the first loss any buffer
    records as :class:`RecoveryError`.  Returns ``(spans, notes)``."""
    result = recover_spans_salvage(dumps)
    result.refuse_loss()
    return result.spans, result.notes


def recover_spans_salvage(dumps: list[BufferDump]) -> RecoveryResult:
    """Recover thread spans from every recoverable buffer in a snap.

    Never raises: every buffer contributes whatever spans survive, and
    each one's :class:`SalvageReport` records what was lost.  Shared
    (desperation/static) and probation buffers are skipped — by design
    their contents are not reconstructable (§3.1) — a used shared
    buffer with a note.
    """
    result = RecoveryResult()
    for dump in dumps:
        if dump.flags & BufferFlags.PROBATION:
            continue
        if dump.flags & BufferFlags.SHARED:
            # Used unless every data word is still 0 or all-ones.
            data = dump.words[HEADER_WORDS:]
            if data.count(0) + data.count(0xFFFFFFFF) != len(data):
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
