"""Fault injectors: systematic damage for snaps and archives.

Each injector takes a seeded :class:`random.Random` so every damaged
artifact is reproducible from ``(scenario, seed)``, mutates its target
in place (callers damage *copies* — see :func:`copy_snap`), and returns
a list of ground-truth strings describing exactly what was destroyed.
The test suite asserts salvage-mode reconstruction against that ground
truth: the degradation summary must name the loss the injector caused.

The damage catalogue mirrors the failure modes the paper's anecdotes
exercise (§2.1, §4.1): bit rot and zeroed words in buffer dumps, torn
and truncated archive containers, clobbered header words, whole
machines' snaps missing, dropped/duplicated SYNC records, extreme clock
skew, and abrupt ``kill -9`` mid-run (see :mod:`repro.chaos.scenarios`
for the run-time ones).
"""

from __future__ import annotations

import base64
import random

from repro.runtime.buffers import BufferFlags, HEADER_WORDS
from repro.runtime.records import (
    ExtKind,
    is_ext_header,
    is_ext_trailer,
)
from repro.runtime.snap import BufferDump, SnapFile


def copy_snap(snap: SnapFile) -> SnapFile:
    """A deep, independent copy (damage never touches the original)."""
    return SnapFile.from_dict(snap.to_dict())


def _mineable_buffers(snap: SnapFile) -> list[BufferDump]:
    """Buffers whose contents reconstruction actually reads."""
    skip = BufferFlags.PROBATION | BufferFlags.SHARED
    return [
        b
        for b in snap.buffers
        if not (b.flags & skip) and len(b.words) > HEADER_WORDS
    ]


def _data_indices(buffer: BufferDump) -> range:
    return range(HEADER_WORDS, len(buffer.words))


# ----------------------------------------------------------------------
# Word-level damage
# ----------------------------------------------------------------------
def flip_bits(snap: SnapFile, rng: random.Random, flips: int = 8) -> list[str]:
    """Random single-bit flips in buffer data words (bit rot / DMA
    scribbles)."""
    notes: list[str] = []
    candidates = _mineable_buffers(snap)
    if not candidates:
        return notes
    for _ in range(flips):
        buffer = rng.choice(candidates)
        idx = rng.choice(_data_indices(buffer))
        bit = rng.randrange(32)
        buffer.words[idx] ^= 1 << bit
        notes.append(
            f"flipped bit {bit} of word {idx} in buffer {buffer.index}"
        )
    return notes


def zero_words(
    snap: SnapFile,
    rng: random.Random,
    runs: int = 2,
    run_len: int = 16,
) -> list[str]:
    """Zero out runs of data words (lost pages, partial writes)."""
    notes: list[str] = []
    candidates = _mineable_buffers(snap)
    if not candidates:
        return notes
    for _ in range(runs):
        buffer = rng.choice(candidates)
        data = _data_indices(buffer)
        start = rng.choice(data)
        end = min(start + run_len, len(buffer.words))
        for idx in range(start, end):
            buffer.words[idx] = 0
        notes.append(
            f"zeroed words {start}..{end} in buffer {buffer.index}"
        )
    return notes


def clobber_header(
    snap: SnapFile, rng: random.Random, words: int = 2
) -> list[str]:
    """Scribble over buffer header words (magic, geometry, commit
    bookkeeping) — the classic torn-mmap failure."""
    notes: list[str] = []
    candidates = _mineable_buffers(snap)
    if not candidates:
        return notes
    buffer = rng.choice(candidates)
    for _ in range(words):
        # Target the words integrity checking actually depends on:
        # [0] magic, [4] last-committed index.  (Clobbering the spares
        # is survivable by construction and proves nothing.)
        idx = rng.choice((0, 4))
        value = rng.randrange(1 << 32)
        buffer.words[idx] = value
        notes.append(
            f"clobbered header word {idx} of buffer {buffer.index} "
            f"to {value:#x}"
        )
    return notes


def truncate_buffer(
    snap: SnapFile, rng: random.Random, keep_fraction: float | None = None
) -> list[str]:
    """Cut one buffer's word list short (a snap file torn mid-buffer)."""
    candidates = _mineable_buffers(snap)
    if not candidates:
        return []
    buffer = rng.choice(candidates)
    if keep_fraction is None:
        keep_fraction = rng.uniform(0.0, 0.9)
    keep = int(len(buffer.words) * keep_fraction)
    lost = len(buffer.words) - keep
    del buffer.words[keep:]
    return [
        f"truncated buffer {buffer.index} to {keep} words ({lost} lost)"
    ]


# ----------------------------------------------------------------------
# SYNC-record damage (the distributed substrate)
# ----------------------------------------------------------------------
def _find_sync_records(buffer: BufferDump) -> list[tuple[int, int]]:
    """(start index, total size) of each intact SYNC record."""
    found: list[tuple[int, int]] = []
    words = buffer.words
    idx = HEADER_WORDS
    while idx < len(words):
        word = words[idx]
        if is_ext_header(word) and (word >> 24) & 0x1F == ExtKind.SYNC:
            length = (word >> 16) & 0xFF
            trailer_idx = idx + length + 1
            if (
                length
                and trailer_idx < len(words)
                and is_ext_trailer(words[trailer_idx])
                and (words[trailer_idx] >> 24) & 0x1F == ExtKind.SYNC
            ):
                found.append((idx, length + 2))
                idx = trailer_idx + 1
                continue
        idx += 1
    return found


def drop_sync_records(
    snap: SnapFile, rng: random.Random, count: int = 1
) -> list[str]:
    """Zero out whole SYNC records — an RPC leg's evidence vanishes."""
    notes: list[str] = []
    targets: list[tuple[BufferDump, int, int]] = []
    for buffer in _mineable_buffers(snap):
        for start, size in _find_sync_records(buffer):
            targets.append((buffer, start, size))
    rng.shuffle(targets)
    for buffer, start, size in targets[:count]:
        for idx in range(start, start + size):
            buffer.words[idx] = 0
        notes.append(
            f"dropped SYNC record at words {start}..{start + size} "
            f"in buffer {buffer.index}"
        )
    return notes


def duplicate_sync_records(
    snap: SnapFile, rng: random.Random, count: int = 1
) -> list[str]:
    """Replay SYNC records over the words that follow them — duplicated
    legs plus collateral damage, as a replaying writer would leave."""
    notes: list[str] = []
    targets: list[tuple[BufferDump, int, int]] = []
    for buffer in _mineable_buffers(snap):
        for start, size in _find_sync_records(buffer):
            targets.append((buffer, start, size))
    rng.shuffle(targets)
    for buffer, start, size in targets[:count]:
        end = start + size
        if end + size > len(buffer.words):
            continue
        buffer.words[end : end + size] = buffer.words[start:end]
        notes.append(
            f"duplicated SYNC record at words {start}..{end} "
            f"in buffer {buffer.index}"
        )
    return notes


# ----------------------------------------------------------------------
# Nondeterminism-log damage (the replay substrate)
# ----------------------------------------------------------------------
def damage_ndlog(snap: SnapFile, rng: random.Random) -> list[str]:
    """Hurt the snap's ``tb-ndlog/2`` so replay must refuse, not crash.

    The byte columns get truncated, stuffed with runaway varint
    continuation bytes, or their slice count bumped out of agreement
    with the columns; a rare event or a header field is re-typed as a
    string (torn re-serialization); a required header segment goes
    (salvage dropped it), or the whole log does (the snap degrades to
    seed-only).  Ground truth names the segment a typed
    :class:`~repro.replay.ReplayUnavailable` must report; a snap with
    no packed ndlog is left alone (nothing to damage).

    Mutates in place: callers damage copies (:func:`copy_snap` now
    deep-copies the nested ndlog, so the pristine original is safe).
    """
    if not isinstance(snap.replay, dict) or not isinstance(
        snap.replay.get("ndlog"), dict
    ):
        return []
    ndlog = snap.replay["ndlog"]
    slices = ndlog.get("slices")
    if not isinstance(slices, dict):
        return []
    rare = ndlog.get("rare")
    modes = [
        "drop-log",
        "drop-header-key",
        "poison-header-field",
        "truncate-column",
        "bad-varint",
        "wrong-count",
    ]
    if isinstance(rare, list) and rare:
        modes.append("poison-rare")
    mode = rng.choice(modes)

    def recode(key: str, mutate) -> None:
        raw = bytearray(base64.b64decode(slices[key]))
        slices[key] = base64.b64encode(bytes(mutate(raw))).decode("ascii")

    if mode == "truncate-column":
        key = rng.choice(("tids", "starts", "counts", "end_pcs"))
        chop = rng.randrange(1, 4)
        recode(key, lambda raw: raw[: max(0, len(raw) - chop)])
        return [
            f"ndlog/2: chopped {chop} byte(s) off column {key!r} "
            f"(expect ReplayUnavailable segment 'slices.{key}')"
        ]
    if mode == "bad-varint":
        key = rng.choice(("tids", "starts", "counts", "end_pcs"))
        extra = rng.randrange(1, 11)
        recode(key, lambda raw: raw + b"\x80" * extra)
        return [
            f"ndlog/2: appended {extra} runaway continuation byte(s) to "
            f"column {key!r} "
            f"(expect ReplayUnavailable segment 'slices.{key}')"
        ]
    if mode == "wrong-count":
        slices["count"] = int(slices.get("count", 0)) + rng.randrange(1, 4)
        # The tid column runs out first: its runs no longer cover count.
        return [
            "ndlog/2: slice count disagrees with the packed columns "
            "(expect ReplayUnavailable segment 'slices.tids')"
        ]
    if mode == "poison-rare":
        j = rng.randrange(len(rare))
        rare[j] = [rare[j][0], repr(rare[j][1])]  # event became a string
        return [
            f"ndlog/2: rare event {j} re-serialized as a string "
            f"(expect ReplayUnavailable segment 'rare[{j}]')"
        ]
    if mode == "poison-header-field":
        header = ndlog.get("header", {})
        # Only non-string fields: stringifying the process or machine
        # name (strings already) would leave the header valid.
        key = rng.choice(
            sorted(k for k, v in header.items() if not isinstance(v, str))
        )
        header[key] = str(header[key])  # JSON survives, the type didn't
        return [
            f"ndlog: header field {key!r} re-typed as a string "
            f"(expect ReplayUnavailable segment 'header.{key}')"
        ]
    if mode == "drop-header-key":
        key = rng.choice(("modules", "start_threads", "runtime_id", "config"))
        ndlog.get("header", {}).pop(key, None)
        return [
            f"ndlog: header segment {key!r} lost "
            f"(expect ReplayUnavailable segment 'header.{key}')"
        ]
    del snap.replay["ndlog"]
    return [
        "ndlog: dropped entirely — snap degrades to seed-only "
        "(expect ReplayUnavailable segment 'ndlog')"
    ]


# ----------------------------------------------------------------------
# Snap- and fleet-level damage
# ----------------------------------------------------------------------
def skew_clock(snap: SnapFile, amount: int) -> list[str]:
    """Shift a snap's clock by ``amount`` — post-hoc extreme skew."""
    snap.clock += amount
    return [f"skewed {snap.machine_name} clock by {amount}"]


def drop_machine(
    snaps: list[SnapFile], rng: random.Random
) -> tuple[list[SnapFile], str]:
    """Remove one machine's snap entirely (`kill -9` before any snap,
    disk lost, never transmitted).  Returns (survivors, machine name)."""
    victim = rng.randrange(len(snaps))
    dropped = snaps[victim]
    survivors = snaps[:victim] + snaps[victim + 1 :]
    return survivors, dropped.machine_name


# ----------------------------------------------------------------------
# Archive (container-level) damage
# ----------------------------------------------------------------------
def tear_archive(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """Truncate a compressed container (connection cut mid-transfer)."""
    keep = rng.randrange(8, max(9, len(data)))
    return data[:keep], f"archive torn at byte {keep}/{len(data)}"


def corrupt_archive(
    data: bytes, rng: random.Random, flips: int = 4
) -> tuple[bytes, list[str]]:
    """Flip random bits inside a compressed container's body."""
    out = bytearray(data)
    notes: list[str] = []
    # Skip the magic so format detection still works — damage to the
    # first bytes is covered by tear_archive.
    floor = min(8, len(out) - 1)
    for _ in range(flips):
        idx = rng.randrange(floor, len(out))
        bit = rng.randrange(8)
        out[idx] ^= 1 << bit
        notes.append(f"flipped bit {bit} of archive byte {idx}")
    return bytes(out), notes
