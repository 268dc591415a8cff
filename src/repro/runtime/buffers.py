"""Trace buffers: mapped rings of sub-buffers (paper §3.1–3.2).

Layout of one buffer inside its memory-mapped file (all words)::

    [0]  magic 0x54424246 ("TBBF")
    [1]  buffer index
    [2]  sub-buffer count
    [3]  sub-buffer size in words (including its trailing sentinel)
    [4]  index of the last committed sub-buffer (0xFFFFFFFF = none yet)
    [5]  total commit count (orders sub-buffers across full wraps)
    [6]  owner thread id (0xFFFFFFFF = unowned)
    [7]  flags (shared/probation/static)
    [8]  write cursor (relative index of the last written record word;
         persisted on graceful events only — abrupt kills rely on
         sub-buffer commits, exactly as in the paper)
    [9]  reserved
    [10...]  sub-buffer 0, sub-buffer 1, ...

Each sub-buffer's final word is the ``0xFFFFFFFF`` sentinel.  Probes
pre-increment the thread's buffer pointer and compare against the
sentinel; on a hit they call the runtime's ``buffer_wrap``, which
commits the filled sub-buffer, zeroes the next one (so reconstruction
can find "the last non-zero entry"), and moves the pointer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.records import INVALID, SENTINEL, ExtRecord
from repro.vm.machine import Process
from repro.vm.memory import MappedFile

MAGIC = 0x54424246

HEADER_WORDS = 10

_NO_OWNER = 0xFFFFFFFF
_NO_COMMIT = 0xFFFFFFFF


class BufferFlags:
    """Flag bits in header word 7."""

    SHARED = 1  # desperation buffer: multiple writers, not recoverable
    PROBATION = 2  # sentinel-only buffer that traps the first probe
    STATIC = 4  # statically allocated emergency buffer


@dataclass
class TraceBuffer:
    """One trace buffer mapped into a process."""

    index: int
    base: int  # guest address of the header
    mapped: MappedFile
    sub_count: int
    sub_size: int
    flags: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls,
        process: Process,
        index: int,
        sub_count: int,
        sub_size: int,
        flags: int = 0,
        name: str | None = None,
    ) -> "TraceBuffer":
        """Map and initialize a buffer in ``process``."""
        total = HEADER_WORDS + sub_count * sub_size
        base, mapped = process.map_buffer(
            name or f"tbtrace-{index}", total
        )
        buf = cls(
            index=index,
            base=base,
            mapped=mapped,
            sub_count=sub_count,
            sub_size=sub_size,
            flags=flags,
        )
        words = mapped.words
        words[0] = MAGIC
        words[1] = index
        words[2] = sub_count
        words[3] = sub_size
        words[4] = _NO_COMMIT
        words[5] = 0
        words[6] = _NO_OWNER
        words[7] = flags
        # Canonical "no records yet" cursor: one before the first record
        # slot.  Everything that reads or persists word 8 (graceful
        # detach, buffer reuse, scavenging) uses this convention.
        words[8] = buf.sub_start(0) - 1
        for sub in range(sub_count):
            words[buf.sub_end(sub)] = SENTINEL
        return buf

    @classmethod
    def probation(cls, process: Process) -> "TraceBuffer":
        """The sentinel-only probation buffer (§3.1): any probe on it
        immediately traps into the runtime."""
        return cls.allocate(
            process, index=0xFFFF, sub_count=1, sub_size=1,
            flags=BufferFlags.PROBATION, name="tbtrace-probation",
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def sub_start(self, sub: int) -> int:
        """Relative index of sub-buffer ``sub``'s first data word."""
        return HEADER_WORDS + sub * self.sub_size

    def sub_end(self, sub: int) -> int:
        """Relative index of sub-buffer ``sub``'s sentinel word."""
        return self.sub_start(sub) + self.sub_size - 1

    def sub_of(self, rel: int) -> int:
        """Which sub-buffer a relative data index falls into."""
        return (rel - HEADER_WORDS) // self.sub_size

    def to_rel(self, addr: int) -> int:
        """Guest address -> relative word index."""
        return addr - self.base

    def to_addr(self, rel: int) -> int:
        """Relative word index -> guest address."""
        return self.base + rel

    @property
    def end_addr(self) -> int:
        """One past the buffer's last guest address."""
        return self.base + HEADER_WORDS + self.sub_count * self.sub_size

    def contains_addr(self, addr: int) -> bool:
        """Whether a guest address lies in this buffer's data area."""
        return self.base <= addr < self.end_addr

    # ------------------------------------------------------------------
    # Header fields
    # ------------------------------------------------------------------
    @property
    def owner_tid(self) -> int | None:
        """Current owning thread, or None."""
        value = self.mapped.words[6]
        return None if value == _NO_OWNER else value

    @owner_tid.setter
    def owner_tid(self, tid: int | None) -> None:
        self.mapped.words[6] = _NO_OWNER if tid is None else tid

    @property
    def last_committed(self) -> int | None:
        """Index of the last committed sub-buffer, or None."""
        value = self.mapped.words[4]
        return None if value == _NO_COMMIT else value

    @property
    def commit_count(self) -> int:
        """Total sub-buffer commits over the buffer's lifetime."""
        return self.mapped.words[5]

    @property
    def write_cursor(self) -> int:
        """Persisted relative cursor (graceful events only)."""
        return self.mapped.words[8]

    @write_cursor.setter
    def write_cursor(self, rel: int) -> None:
        self.mapped.words[8] = rel

    # ------------------------------------------------------------------
    # Wrapping machinery
    # ------------------------------------------------------------------
    def commit_sub(self, sub: int) -> None:
        """Record that sub-buffer ``sub`` is complete (§3.2)."""
        self.mapped.words[4] = sub
        self.mapped.words[5] += 1

    def zero_sub(self, sub: int) -> None:
        """Zero a sub-buffer's data words (its sentinel stays)."""
        start, end = self.sub_start(sub), self.sub_end(sub)
        for rel in range(start, end):
            self.mapped.words[rel] = INVALID

    def wrap_from(self, sentinel_rel: int) -> int:
        """Handle a probe hitting the sentinel at ``sentinel_rel``.

        Commits the filled sub-buffer, zeroes the next, and returns the
        relative index of the next record slot.
        """
        sub = self.sub_of(sentinel_rel)
        self.commit_sub(sub)
        nxt = (sub + 1) % self.sub_count
        self.zero_sub(nxt)
        return self.sub_start(nxt)

    # ------------------------------------------------------------------
    # Host-side record writing (runtime events)
    # ------------------------------------------------------------------
    def append(self, cursor_rel: int, record) -> int:
        """Write a record after ``cursor_rel``; returns the new cursor
        (index of the record's last word).

        Accepts extended records and (for tests / synthetic traces) DAG
        records.  Skips to the next sub-buffer when the record wouldn't
        fit before the sentinel, so records never straddle sub-buffer
        boundaries.
        """
        encoded = record.encode()
        words = [encoded] if isinstance(encoded, int) else encoded
        pos = cursor_rel + 1
        sub = self.sub_of(pos) if pos >= HEADER_WORDS else 0
        if pos < HEADER_WORDS:
            pos = self.sub_start(0)
            sub = 0
        if pos + len(words) > self.sub_end(sub):
            pos = self.wrap_from(self.sub_end(sub))
        for offset, word in enumerate(words):
            self.mapped.words[pos + offset] = word
        return pos + len(words) - 1

    # ------------------------------------------------------------------
    def snapshot(self) -> list[int]:
        """Copy of the raw buffer words (what a snap file stores)."""
        return self.mapped.snapshot()
