"""Trace record format — the paper's Figure 1.

Every record is one or more 32-bit words in a trace buffer.

**DAG records** (bit 31 set) are written by instrumentation probes::

    bit  31      1
    bits 30..11  DAG id        (20 bits; ids are pre-shifted by STDAG)
    bits 10..0   path bits     (11 lightweight-probe bits)

The original paper quotes a 21-bit DAG id field with ~10 path bits; TBVM's
``STDAG`` instruction carries a 20-bit immediate, so this implementation
uses 20 id bits and 11 path bits — same structure, one bit traded.

Reserved values:

* ``0xFFFFFFFF`` — **buffer-end sentinel**; DAG id ``0xFFFFF`` is never
  allocated so the sentinel cannot collide with a real record.
* DAG id ``0xFFFFE`` — the **bad DAG id** used when the runtime cannot
  find a free id range for a module (§2.3); such records are discarded
  at reconstruction.
* ``0x00000000`` — **invalid**: the value sub-buffer zeroing writes, so
  the thread's progress is "the last non-zero entry" (§3.2).

**Extended records** (bits 31..30 = ``01``) carry runtime events: SYNC,
timestamps, exceptions, thread lifecycle::

    bits 31..30  01
    bit  29      0 = header, 1 = trailer
    bits 28..24  subtype
    bits 23..16  payload length in words (0 for single-word records)
    bits 15..0   16-bit inline payload

Multi-word extended records are ``header, payload..., trailer`` where
the trailer repeats subtype and length with bit 29 set.  The trailer is
an implementation addition the paper doesn't spell out: it lets the
resync scan (:func:`read_forward_salvage_bulk`) validate a multi-word
record, accepting a header only when the word its length points at is
the matching trailer, so payload words (which can hold arbitrary bit
patterns) and a damaged length field are never mis-parsed as records.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass

WORD = 0xFFFFFFFF

#: The buffer-end sentinel value probes compare against.
SENTINEL = 0xFFFFFFFF

#: The invalid (zeroed) record.
INVALID = 0x00000000

#: Number of path bits available to lightweight probes in one record.
PATH_BITS = 11

#: Width of the DAG id field.
DAG_ID_BITS = 20

#: Reserved id: never allocated (sentinel aliasing guard).
RESERVED_DAG_ID = (1 << DAG_ID_BITS) - 1  # 0xFFFFF

#: Reserved id: the "bad DAG" id for modules that lost the rebasing race.
BAD_DAG_ID = RESERVED_DAG_ID - 1  # 0xFFFFE

#: Highest id instrumentation may assign.
MAX_DAG_ID = BAD_DAG_ID - 1

_DAG_FLAG = 1 << 31
_EXT_FLAG = 1 << 30
_TRAILER_FLAG = 1 << 29
_PATH_MASK = (1 << PATH_BITS) - 1


class ExtKind:
    """Extended-record subtypes."""

    SYNC = 1  # RPC correlation (§5.1)
    TIMESTAMP = 2  # real-time / logical clock sample (§3.5)
    EXCEPTION = 3  # exception: code + faulting address (§2.4)
    EXCEPTION_END = 4  # control resumed after a handled signal (§3.7.3)
    THREAD_START = 5
    THREAD_END = 6
    SNAP_MARK = 7  # a snap was taken here
    MODULE_EVENT = 8  # module load/unload marker

    _NAMES = {
        1: "SYNC", 2: "TIMESTAMP", 3: "EXCEPTION", 4: "EXCEPTION_END",
        5: "THREAD_START", 6: "THREAD_END", 7: "SNAP_MARK", 8: "MODULE_EVENT",
    }

    @classmethod
    def name(cls, kind: int) -> str:
        """Human-readable subtype name."""
        return cls._NAMES.get(kind, f"EXT_{kind}")


class SyncKind:
    """Inline payload of SYNC records: which leg of the RPC this is."""

    CALL_OUT = 1  # caller, before sending
    ENTER = 2  # callee, on entry
    EXIT = 3  # callee, on return
    RETURN = 4  # caller, after receiving the reply


@dataclass(frozen=True)
class DagRecord:
    """A decoded DAG record."""

    dag_id: int
    path_bits: int

    def encode(self) -> int:
        """The 32-bit word form (what ``STDAG`` + ``ORM`` build up)."""
        return _DAG_FLAG | (self.dag_id << PATH_BITS) | self.path_bits

    @property
    def is_bad(self) -> bool:
        """Whether this record uses the reserved bad-DAG id."""
        return self.dag_id == BAD_DAG_ID


@dataclass(frozen=True)
class ExtRecord:
    """A decoded extended record."""

    kind: int
    inline: int
    payload: tuple[int, ...] = ()

    def encode(self) -> list[int]:
        """Word sequence: header [+ payload + trailer]."""
        length = len(self.payload)
        header = _EXT_FLAG | (self.kind << 24) | (length << 16) | (self.inline & 0xFFFF)
        if not length:
            return [header]
        trailer = _EXT_FLAG | _TRAILER_FLAG | (self.kind << 24) | (length << 16)
        return [header, *[w & WORD for w in self.payload], trailer]

    @property
    def size(self) -> int:
        """Total words this record occupies in a buffer."""
        return 1 if not self.payload else len(self.payload) + 2


Record = DagRecord | ExtRecord


def dag_header_word(dag_id: int) -> int:
    """The word a heavyweight probe writes (no path bits set yet)."""
    if not 0 <= dag_id <= RESERVED_DAG_ID:
        raise ValueError(f"DAG id {dag_id} out of range")
    return _DAG_FLAG | (dag_id << PATH_BITS)


def is_dag_word(word: int) -> bool:
    """Whether ``word`` is a DAG record (and not the sentinel)."""
    return bool(word & _DAG_FLAG) and word != SENTINEL


def is_ext_header(word: int) -> bool:
    """Whether ``word`` is an extended-record header."""
    return (word >> 29) == 0b010


def is_ext_trailer(word: int) -> bool:
    """Whether ``word`` is an extended-record trailer."""
    return (word >> 29) == 0b011


def decode_dag(word: int) -> DagRecord:
    """Decode a DAG record word."""
    return DagRecord(dag_id=(word >> PATH_BITS) & RESERVED_DAG_ID,
                     path_bits=word & _PATH_MASK)


# ----------------------------------------------------------------------
# Mining: the resync scan
#
# One scan serves both recovery disciplines.  It walks a sub-buffer's
# span front to back and accounts for every word: each one is part of a
# record, part of the unwritten tail (the zeros after the last non-zero
# word, where the runtime had not written yet), or lost.  A lost word —
# garbage, a trailer in header position, the sentinel, a header whose
# trailer disagrees, or a zero with written data after it (a hole: the
# runtime only ever leaves zeros at a sub-buffer's tail) — is skipped
# and the scan resyncs on the next word.  Strict recovery refuses a span
# that lost any word; salvage keeps the records and reports the count.
# ----------------------------------------------------------------------


def read_forward_salvage(
    words: list[int], start: int, end: int
) -> tuple[list[Record], int]:
    """Scalar reference for :func:`read_forward_salvage_bulk`.

    Returns ``(records, words_lost)`` for ``words[start:end]``.  Kept as
    the plain statement of the scan's rules for the differential tests
    and the decode benchmark; production code runs the bulk scan.
    """
    while end > start and words[end - 1] == INVALID:
        end -= 1  # the unwritten tail
    records: list[Record] = []
    lost = 0
    idx = start
    while idx < end:
        word = words[idx]
        if is_dag_word(word):
            records.append(decode_dag(word))
            idx += 1
            continue
        if is_ext_header(word):
            kind = (word >> 24) & 0x1F
            length = (word >> 16) & 0xFF
            if length == 0:
                records.append(ExtRecord(kind, word & 0xFFFF))
                idx += 1
                continue
            trailer_idx = idx + length + 1
            if trailer_idx < end:
                trailer = words[trailer_idx]
                if (
                    is_ext_trailer(trailer)
                    and (trailer >> 24) & 0x1F == kind
                    and (trailer >> 16) & 0xFF == length
                ):
                    payload = tuple(words[idx + 1 : trailer_idx])
                    records.append(ExtRecord(kind, word & 0xFFFF, payload))
                    idx = trailer_idx + 1
                    continue
        lost += 1
        idx += 1
    return records, lost


# The bulk scan classifies every word of a span at once (array pack ->
# high-byte extraction -> bytes.translate) and then consumes *runs* of
# same-class words with one regex match, touching Python-level control
# flow only at class changes: trace buffers are overwhelmingly one-word
# DAG records, so the per-word dispatch of the scalar reference is what
# it saves (``bench_interpreter.py``'s decode section holds it to >=3x).

#: Byte offset of a word's high byte inside its packed 4-byte cell.
_HB_OFFSET = 3 if sys.byteorder == "little" else 0

#: Word classes by high byte.  ``0xFF`` is ambiguous (a high-id DAG
#: record or the sentinel) and gets its own class so the run decoder
#: never has to check DAG runs word-by-word.
_CLS_DAG = 0x64  # ord('d'): 0x80..0xFE — definitely a DAG record
_CLS_AMB = 0x66  # ord('f'): 0xFF — DAG record or SENTINEL
_CLS_HDR = 0x68  # ord('h'): 0x40..0x5F — extended-record header
_CLS_BAD = 0x67  # ord('g'): anything else — can never start a record

_CLASS_TABLE = bytes(
    _CLS_HDR if 0x40 <= hb <= 0x5F
    else _CLS_AMB if hb == 0xFF
    else _CLS_DAG if hb >= 0x80
    else _CLS_BAD
    for hb in range(256)
)

_DAG_RUN = re.compile(b"d+")
_BAD_RUN = re.compile(b"g+")

#: Decoded-record cache: DAG records are frozen, and hot traces repeat a
#: small working set of (dag id, path bits) words, so decoding becomes a
#: dict hit.  Bounded to keep pathological inputs from hoarding memory.
_DAG_CACHE: dict[int, DagRecord] = {}
_DAG_CACHE_LIMIT = 1 << 16


def _decode_dag_run(arr, lo: int, hi: int, records: list[Record]) -> None:
    """Append decoded DAG records for ``arr[lo:hi]`` (all class 'd')."""
    cache = _DAG_CACHE
    if len(cache) > _DAG_CACHE_LIMIT:
        cache.clear()
    get = cache.get
    append = records.append
    for word in arr[lo:hi]:
        record = get(word)
        if record is None:
            record = cache[word] = DagRecord(
                dag_id=(word >> PATH_BITS) & RESERVED_DAG_ID,
                path_bits=word & _PATH_MASK,
            )
        append(record)


def read_forward_salvage_bulk(
    words: list[int], start: int, end: int
) -> tuple[list[Record], int]:
    """The resync scan of ``words[start:end]``: ``(records, words_lost)``.

    Output-identical to :func:`read_forward_salvage` on every input.
    ``words`` must hold 32-bit words; loading a snap guarantees that
    (:meth:`~repro.runtime.snap.SnapFile.from_dict` refuses anything
    else).
    """
    arr = array("I", words[start:end])
    packed = arr.tobytes()
    n = (len(packed.rstrip(b"\0")) + 3) // 4  # sans the unwritten tail
    classes = packed[_HB_OFFSET : 4 * n : 4].translate(_CLASS_TABLE)
    records: list[Record] = []
    lost = 0
    idx = 0
    while idx < n:
        cls = classes[idx]
        if cls == _CLS_DAG:
            run_end = _DAG_RUN.match(classes, idx).end()
            _decode_dag_run(arr, idx, run_end, records)
            idx = run_end
        elif cls == _CLS_HDR:
            word = arr[idx]
            length = (word >> 16) & 0xFF
            if length == 0:
                records.append(ExtRecord((word >> 24) & 0x1F, word & 0xFFFF))
                idx += 1
                continue
            trailer_idx = idx + length + 1
            # The trailer is the header with the trailer flag set; its
            # inline half is unused.
            if (
                trailer_idx < n
                and arr[trailer_idx] >> 16 == (word | _TRAILER_FLAG) >> 16
            ):
                payload = tuple(arr[idx + 1 : trailer_idx])
                records.append(
                    ExtRecord((word >> 24) & 0x1F, word & 0xFFFF, payload)
                )
                idx = trailer_idx + 1
            else:
                lost += 1
                idx += 1
        elif cls == _CLS_AMB:
            if arr[idx] == SENTINEL:
                lost += 1
            else:
                _decode_dag_run(arr, idx, idx + 1, records)
            idx += 1
        else:
            run_end = _BAD_RUN.match(classes, idx).end()
            lost += run_end - idx
            idx = run_end
    return records, lost
