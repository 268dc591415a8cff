"""Segmented, word-addressed process memory.

Every address names one 32-bit word.  Memory is a set of
:class:`Segment` objects with read/write/execute permissions; any access
outside a segment, or violating its permissions, raises an
``ACCESS_VIOLATION`` fault — this is what makes the paper's failure
scenarios real (the Figure 6 bug is a write through a pointer into
read-only data; the Fidelity bug is ``memcpy`` overruns corrupting
neighbouring structures, which here show up as wild reads/writes).

Segments may be backed by a :class:`MappedFile`, the analog of the
memory-mapped files TraceBack keeps its trace buffers in: the backing
store is owned by the host, so it survives abrupt process termination
and can be read by the reconstruction tooling afterwards.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm.errors import ExcCode, VMError, VMFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.thread import Thread

WORD_MASK = 0xFFFFFFFF


@dataclass
class MappedFile:
    """Host-owned backing store for a mapped segment.

    The TraceBack runtime allocates trace buffers inside one of these so
    that "buffers reside in memory mapped files, so they can be easily
    copied (by another process) if the program terminates or becomes
    unresponsive" (§3.1).
    """

    name: str
    words: list[int] = field(default_factory=list)

    @classmethod
    def zeroed(cls, name: str, size: int) -> "MappedFile":
        """A new mapping of ``size`` zero words."""
        return cls(name=name, words=[0] * size)

    def snapshot(self) -> list[int]:
        """An independent copy of the current contents."""
        return list(self.words)


@dataclass
class Segment:
    """One mapped region: ``[base, base + size)`` words."""

    base: int
    size: int
    name: str
    readable: bool = True
    writable: bool = True
    executable: bool = False
    words: list[int] = field(default_factory=list)
    mapped_file: MappedFile | None = None

    def __post_init__(self) -> None:
        if self.mapped_file is not None:
            self.words = self.mapped_file.words
        elif not self.words:
            self.words = [0] * self.size
        if len(self.words) != self.size:
            raise VMError(
                f"segment {self.name}: backing store has {len(self.words)} "
                f"words, size says {self.size}"
            )

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this segment."""
        return self.base <= addr < self.end


class Memory:
    """The address space of one process."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self._bases: list[int] = []
        # Last-hit caches for the interpreter's load/store hot path:
        # (base, end, words) of the two most recent readable / writable
        # segments (primary + victim — pointer-heavy guests alternate
        # between stack and a data segment, which a single entry would
        # ping-pong on).  Guest locality makes these hit almost always,
        # skipping the bisect + permission check.  Safe because a
        # segment's base, size, backing list, and permissions never
        # change after construction; invalidated on map/unmap.  The
        # write caches hold only segments that are readable too, so a
        # write hit proves a reload of the same word cannot fault (a
        # tier-3 unit's inlined probe call relies on it for the
        # helper's ``RET``).
        #
        # Probe traffic has its own one-entry cache, ``_trace_hit``:
        # tier-3 units send ``ORM``, ``STDAG``, ``BSENT`` and the
        # inlined probe helper through it, so the trace buffer never
        # evicts the guest's segments from the caches above.  One
        # entry serves loads and stores, so only segments both readable
        # and writable enter it, through ``trace_load``/``trace_store``/
        # ``trace_or``, which fault exactly as ``load``/``store``/
        # ``or_word`` do.
        #
        # The entries are per thread: they serve ``_cache_owner``, and
        # ``switch_caches`` parks them on the outgoing thread at a slice
        # start, so threads with their own stacks and trace buffers do
        # not evict each other's segments on every switch.  A parked
        # set is taken back only while ``generation`` (bumped by every
        # map/unmap) still matches, so it never names an unmapped
        # segment.
        self._read_hit: tuple[int, int, list[int] | None] = (1, 0, None)
        self._read_hit2: tuple[int, int, list[int] | None] = (1, 0, None)
        self._write_hit: tuple[int, int, list[int] | None] = (1, 0, None)
        self._write_hit2: tuple[int, int, list[int] | None] = (1, 0, None)
        self._trace_hit: tuple[int, int, list[int] | None] = (1, 0, None)
        self._cache_owner: "Thread | None" = None
        self.generation = 0

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_segment(self, segment: Segment) -> Segment:
        """Insert ``segment``; overlapping an existing segment is a host bug."""
        for existing in self._segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise VMError(
                    f"segment {segment.name} [{segment.base}, {segment.end}) "
                    f"overlaps {existing.name} [{existing.base}, {existing.end})"
                )
        idx = bisect_right(self._bases, segment.base)
        self._segments.insert(idx, segment)
        self._bases.insert(idx, segment.base)
        self._invalidate_caches()
        return segment

    def unmap(self, segment: Segment) -> None:
        """Remove ``segment`` from the address space."""
        idx = self._segments.index(segment)
        del self._segments[idx]
        del self._bases[idx]
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._read_hit = self._read_hit2 = (1, 0, None)
        self._write_hit = self._write_hit2 = (1, 0, None)
        self._trace_hit = (1, 0, None)
        self.generation += 1

    def switch_caches(self, thread: "Thread") -> None:
        """Make the hit caches serve ``thread`` (called at a slice start
        when they serve another thread).

        The current owner keeps its entries, and ``thread`` gets its own
        back if no map/unmap happened since it parked them, else keeps
        the current ones (valid: they are always of the current
        generation).
        """
        owner = self._cache_owner
        if owner is not None:
            owner.hit_caches = (
                self.generation,
                self._read_hit, self._read_hit2,
                self._write_hit, self._write_hit2,
                self._trace_hit,
            )
        parked = thread.hit_caches
        if parked is not None and parked[0] == self.generation:
            (_, self._read_hit, self._read_hit2,
             self._write_hit, self._write_hit2,
             self._trace_hit) = parked
        self._cache_owner = thread

    def segment_at(self, addr: int) -> Segment | None:
        """The segment containing ``addr``, or ``None``."""
        idx = bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        segment = self._segments[idx]
        return segment if segment.contains(addr) else None

    def segments(self) -> list[Segment]:
        """All mapped segments, ascending by base."""
        return list(self._segments)

    def highest_end(self) -> int:
        """One past the highest mapped address (0 when empty)."""
        return max((seg.end for seg in self._segments), default=0)

    # ------------------------------------------------------------------
    # Access (each raises VMFault on violation)
    # ------------------------------------------------------------------
    def load(self, addr: int, pc: int = -1) -> int:
        """Read the word at ``addr``."""
        base, end, words = self._read_hit
        if base <= addr < end:
            return words[addr - base]
        hit2 = self._read_hit2
        if hit2[0] <= addr < hit2[1]:
            self._read_hit2 = self._read_hit
            self._read_hit = hit2
            return hit2[2][addr - hit2[0]]
        segment = self.segment_at(addr)
        if segment is None or not segment.readable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"read of {addr:#x}")
        self._read_hit2 = self._read_hit
        self._read_hit = (segment.base, segment.end, segment.words)
        return segment.words[addr - segment.base]

    def store(self, addr: int, value: int, pc: int = -1) -> None:
        """Write ``value`` to the word at ``addr``."""
        base, end, words = self._write_hit
        if base <= addr < end:
            words[addr - base] = value & WORD_MASK
            return
        hit2 = self._write_hit2
        if hit2[0] <= addr < hit2[1]:
            self._write_hit2 = self._write_hit
            self._write_hit = hit2
            hit2[2][addr - hit2[0]] = value & WORD_MASK
            return
        segment = self.segment_at(addr)
        if segment is None or not segment.writable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"write of {addr:#x}")
        if segment.readable:
            self._write_hit2 = self._write_hit
            self._write_hit = (segment.base, segment.end, segment.words)
        segment.words[addr - segment.base] = value & WORD_MASK

    def or_word(self, addr: int, bits: int, pc: int = -1) -> None:
        """``mem[addr] |= bits`` — the lightweight probe's memory op."""
        base, end, words = self._write_hit
        if base <= addr < end:
            index = addr - base
            words[index] = (words[index] | bits) & WORD_MASK
            return
        segment = self.segment_at(addr)
        if segment is None or not segment.writable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"or-write of {addr:#x}")
        if segment.readable:
            self._write_hit2 = self._write_hit
            self._write_hit = (segment.base, segment.end, segment.words)
        index = addr - segment.base
        segment.words[index] = (segment.words[index] | bits) & WORD_MASK

    # The trace hit cache's slow paths: each faults as its general
    # counterpart does, and caches only a readable and writable segment.
    def trace_load(self, addr: int, pc: int = -1) -> int:
        """``load`` through the trace hit cache's slow path."""
        segment = self.segment_at(addr)
        if segment is None or not segment.readable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"read of {addr:#x}")
        if segment.writable:
            self._trace_hit = (segment.base, segment.end, segment.words)
        return segment.words[addr - segment.base]

    def trace_store(self, addr: int, value: int, pc: int = -1) -> None:
        """``store`` through the trace hit cache's slow path."""
        segment = self.segment_at(addr)
        if segment is None or not segment.writable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"write of {addr:#x}")
        if segment.readable:
            self._trace_hit = (segment.base, segment.end, segment.words)
        segment.words[addr - segment.base] = value & WORD_MASK

    def trace_or(self, addr: int, bits: int, pc: int = -1) -> None:
        """``or_word`` through the trace hit cache's slow path."""
        segment = self.segment_at(addr)
        if segment is None or not segment.writable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, pc, f"or-write of {addr:#x}")
        if segment.readable:
            self._trace_hit = (segment.base, segment.end, segment.words)
        index = addr - segment.base
        segment.words[index] = (segment.words[index] | bits) & WORD_MASK

    def fetch(self, addr: int) -> int:
        """Fetch the instruction word at ``addr`` (requires execute)."""
        segment = self.segment_at(addr)
        if segment is None or not segment.executable:
            raise VMFault(ExcCode.ACCESS_VIOLATION, addr, f"execute of {addr:#x}")
        return segment.words[addr - segment.base]

    # ------------------------------------------------------------------
    # Host-side helpers (no permission checks: the host is the kernel)
    # ------------------------------------------------------------------
    def read_block(self, addr: int, count: int) -> list[int]:
        """Host read of ``count`` words starting at ``addr``."""
        return [self.load(addr + i) for i in range(count)]

    def write_block(self, addr: int, values: list[int]) -> None:
        """Host write of consecutive words; ignores write protection."""
        for i, value in enumerate(values):
            segment = self.segment_at(addr + i)
            if segment is None:
                raise VMError(f"host write outside memory at {addr + i:#x}")
            segment.words[addr + i - segment.base] = value & WORD_MASK

    def read_cstr(self, addr: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string (one char code per word)."""
        chars = []
        for i in range(limit):
            word = self.load(addr + i)
            if word == 0:
                break
            chars.append(chr(word & 0x10FFFF))
        return "".join(chars)
