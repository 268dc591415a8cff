"""Snap archiving: compressed snap files.

The paper notes that "trace buffers are themselves readily compressible
by a factor of 10 or more for ease of archiving or transmission"
(§2.1) — DAG records repeat heavily (loops emit identical words), and
zeroed sub-buffer space is pure runs.  This module provides the
compressed snap container the eBay anecdote implies ("sent the trace,
in real time, to another author back at corporate headquarters").

Container format v2 (``TBSZ2``)::

    magic  b"TBSZ2\\n"
    <I>    uncompressed body length        (container-level length check)
    zlib-compressed body:
        <I> header length
        header JSON (buffer word lists replaced by
                     ["blob", index, byte size, crc32] markers)
        blob bytes, concatenated

The CRC32 per blob and the body-length word exist because snaps travel:
a connection cut mid-transfer used to yield a silently short word list
or a raw ``struct.error``.  A blob marker without its CRC is damage like
a CRC mismatch.

One walk reads a container (:func:`_read`), and one parse reads the
snap metadata it restores (:meth:`SnapFile.from_dict_salvage`).
:func:`salvage_decompress` recovers what it can from a torn or
bit-flipped container and notes each loss; :func:`decompress_snap` is
that same read refusing its first loss, and :func:`inspect_container`
reports it.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import zlib
from array import array

from repro.runtime.snap import SnapFile

#: Magic prefix of compressed snap containers.
MAGIC = b"TBSZ2\n"


class ArchiveError(ValueError):
    """The container is damaged: torn, truncated, or checksum-corrupt."""


#: Precompiled length-word codec: building ``f"<{n}I"`` format strings
#: per call made ``struct`` re-parse the format on every buffer; the
#: bulk paths below go through ``array`` instead, and the one-word
#: header fields use this single compiled Struct.
_U32 = struct.Struct("<I")

_NATIVE_IS_LE = sys.byteorder == "little"


def pack_words(words: list[int]) -> bytes:
    """Serialize a word list to little-endian bytes."""
    try:
        packed = array("I", words)
    except (OverflowError, TypeError, ValueError):
        # Out-of-range values (hand-built snaps): mask and retry.
        packed = array("I", [w & 0xFFFFFFFF for w in words])
    if not _NATIVE_IS_LE:
        packed.byteswap()
    return packed.tobytes()


def unpack_words(data: bytes) -> list[int]:
    """Inverse of :func:`pack_words`."""
    count = len(data) // 4
    unpacked = array("I")
    unpacked.frombytes(data[: count * 4])
    if not _NATIVE_IS_LE:
        unpacked.byteswap()
    return unpacked.tolist()


def _pack_body(snap: SnapFile) -> bytes:
    payload = snap.to_dict()
    blobs: list[bytes] = []
    for buffer in payload["buffers"]:
        blob = pack_words(buffer["words"])
        buffer["words"] = ["blob", len(blobs), len(blob), zlib.crc32(blob)]
        blobs.append(blob)
    header = json.dumps(payload).encode()
    return _U32.pack(len(header)) + header + b"".join(blobs)


def compress_snap(snap: SnapFile, level: int = 6) -> bytes:
    """One self-contained compressed artifact for a snap.

    Buffer words are packed as raw little-endian 32-bit data (where the
    repetitive structure lives) and the metadata rides along as JSON;
    the whole payload is deflated.
    """
    body = _pack_body(snap)
    return MAGIC + _U32.pack(len(body)) + zlib.compress(body, level)


def _check_blob(marker: list, blob: bytes) -> tuple[str, str | None]:
    """``(crc state, problem)`` for the blob a ``["blob", index, size,
    crc32]`` marker names: ``"ok"`` with no problem, or ``"truncated"``,
    ``"missing"`` (a marker without its CRC) or ``"mismatch"``."""
    size = marker[2]
    if len(blob) < size:
        return "truncated", f"blob truncated ({len(blob)}/{size} bytes survive)"
    if len(marker) < 4:
        return "missing", "blob marker carries no CRC"
    if zlib.crc32(blob) != marker[3]:
        return "mismatch", "blob CRC mismatch (corrupt words)"
    return "ok", None


def _inflate_partial(compressed: bytes) -> bytes:
    """Inflate as much of a damaged zlib stream as possible.

    The zlib wrapper's trailing adler32 makes *any* corruption fatal to
    ``zlib.decompress`` even when every deflate block inflated fine, so
    strip the 2-byte wrapper and inflate the raw deflate stream in small
    chunks: a mid-stream error then still keeps everything decoded
    before it, and a corrupt checksum costs nothing.
    """
    if len(compressed) < 3:
        return b""
    inflater = zlib.decompressobj(wbits=-zlib.MAX_WBITS)
    chunks: list[bytes] = []
    raw = compressed[2:]  # past the zlib CMF/FLG header
    for start in range(0, len(raw), 1024):
        try:
            chunks.append(inflater.decompress(raw[start : start + 1024]))
        except zlib.error:
            break
    else:
        try:
            chunks.append(inflater.flush())
        except zlib.error:
            pass
    return b"".join(chunks)


def _read(data: bytes) -> tuple[SnapFile | None, dict]:
    """The one reading of a container: magic, length word, inflate
    (falling back to a partial inflate), length check, header, each blob
    with its CRC state, then the snap metadata parse of the header with
    the located blobs' words restored.

    Returns ``(snap, report)``: ``snap`` is None when no header
    survives; the report is :func:`inspect_container`'s, its
    ``"problems"`` every loss in the order met.  Each shape is checked
    before it is used; a buffer entry or blob marker that cannot be
    sized stops the blob walk, since no later blob can be located, and
    the entries it did not reach keep their metadata but no words.  A
    marker whose tag alone is damaged is named, and the walk goes on by
    its size.
    """
    info: dict = {
        "version": None,
        "size": len(data),
        "length_ok": None,
        "blobs": [],
        "crc_ok": None,
        "meta": None,
        "problems": [],
    }
    losses = info["problems"]
    if not data.startswith(MAGIC):
        losses.append("not a compressed snap container")
        return None, info
    info["version"] = 2
    if len(data) < len(MAGIC) + 4:
        losses.append("container truncated before the length word")
        return None, info
    (declared,) = _U32.unpack_from(data, len(MAGIC))
    compressed = data[len(MAGIC) + 4 :]
    try:
        body = zlib.decompress(compressed)
    except zlib.error as exc:
        losses.append(f"deflate stream damaged: {exc}")
        body = _inflate_partial(compressed)
    info["length_ok"] = len(body) == declared
    if not info["length_ok"]:
        losses.append(
            f"length check failed: {len(body)}/{declared} bytes recovered"
        )
    if len(body) < 4:
        losses.append("container body too short for a header")
        return None, info
    (header_len,) = _U32.unpack_from(body)
    if 4 + header_len > len(body):
        losses.append("container torn inside the metadata header")
        return None, info
    try:
        header = json.loads(body[4 : 4 + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        losses.append(f"metadata header unparseable: {exc}")
        return None, info
    if not isinstance(header, dict):
        losses.append(
            f"metadata header is a {type(header).__name__}, not an object"
        )
        return None, info
    info["crc_ok"] = True
    cursor = 4 + header_len
    buffers = header.get("buffers")
    # Not a list: the metadata parse names the field; no blob is read.
    walk = buffers if isinstance(buffers, list) else []
    for i, buffer in enumerate(walk):
        if not isinstance(buffer, dict):
            losses.append(
                f"buffer entry {i} is not an object; "
                "no later blob can be located"
            )
            break
        # _pack_body writes a marker for every buffer entry.
        marker = buffer.get("words")
        name = f"buffer {buffer.get('index', '?')}"
        size = None
        if isinstance(marker, list) and len(marker) > 2:
            size = marker[2]
        if type(size) is not int or size < 0:
            # An entry with no words value at all is the metadata
            # parse's to name, unless later blobs are lost with it.
            if marker is not None or i + 1 < len(walk):
                losses.append(
                    f"{name}: blob marker size {size!r} is not a byte "
                    "count; no later blob can be located"
                )
            break
        if marker[0] != "blob":
            # The walk goes on by the size: the later blobs' CRCs
            # confirm the offsets.
            losses.append(f"{name}: blob marker tag {marker[0]!r} is not 'blob'")
        blob = body[cursor : cursor + size]
        state, problem = _check_blob(marker, blob)
        if problem:
            info["crc_ok"] = False
            losses.append(f"{name}: {problem}")
        info["blobs"].append(
            {
                "index": buffer.get("index"),
                "bytes": size,
                "present": len(blob),
                "crc": state,
            }
        )
        buffer["words"] = unpack_words(blob)
        cursor += size
    else:
        i = len(walk)
    # The entries the walk could not locate lose their words: no marker
    # reaches the metadata parse as words.
    for buffer in walk[i:]:
        if isinstance(buffer, dict) and isinstance(buffer.get("words"), list):
            buffer["words"] = []
    snap, notes = SnapFile.from_dict_salvage(header)
    losses.extend(notes)
    return snap, info


def decompress_snap(data: bytes) -> SnapFile:
    """Inverse of :func:`compress_snap`: :func:`salvage_decompress`
    that refuses its first note (a torn, truncated or checksum-corrupt
    container, or damaged snap metadata) as :class:`ArchiveError`."""
    snap, notes = salvage_decompress(data)
    if notes:
        raise ArchiveError(notes[0])
    return snap


def salvage_decompress(data: bytes) -> tuple[SnapFile | None, list[str]]:
    """Best-effort read of a damaged container.

    Returns ``(snap, notes)``: ``snap`` is None only when nothing at all
    is recoverable (no readable metadata header); otherwise it carries
    every buffer whose bytes survive, with each loss — container and
    snap metadata alike — one of the ``notes``.  Never raises on damage.
    """
    snap, info = _read(data)
    return snap, info["problems"]


def compression_ratio(snap: SnapFile, level: int = 6) -> float:
    """Raw-buffer bytes vs compressed container bytes."""
    raw = sum(len(b.words) * 4 for b in snap.buffers)
    packed = len(compress_snap(snap, level))
    return raw / packed if packed else 0.0


def save_compressed(snap: SnapFile, path: str, level: int = 6) -> None:
    """Write a compressed snap container to disk, atomically.

    The bytes land in a sibling temp file first and are moved into
    place with :func:`os.replace`, so an abrupt kill mid-write (the
    exact tear ``repro.chaos`` injects) can never leave a torn
    container at ``path``: readers see the old content or the new,
    never a prefix.
    """
    data = compress_snap(snap, level)
    write_atomic(data, path)


def write_atomic(data: bytes, path: str, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via temp file + ``os.replace``.

    ``fsync=False`` skips the per-file flush-to-disk: callers doing
    group commit (the vault's batched ingest) write many blobs first
    and issue one sync point for the whole batch before recording any
    of them in a manifest, amortising what is otherwise the dominant
    per-snap cost.  The rename is atomic either way — readers see the
    old bytes or the new, never a prefix.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_compressed(path: str) -> SnapFile:
    """Read a container written by :func:`save_compressed`."""
    with open(path, "rb") as fh:
        return decompress_snap(fh.read())


def inspect_container(data: bytes) -> dict:
    """Cheap structural report on a container, without reconstruction.

    Backs ``tbtrace info``: version, body-length check, blob census and
    per-blob CRC status, and the snap metadata (reason, process,
    machine, clock, module/thread counts).  It reads the container as
    :func:`salvage_decompress` does, so ``"problems"`` are exactly that
    function's notes.  Never raises on damage.
    """
    snap, info = _read(data)
    if snap is not None:
        ndlog = snap.replay.get("ndlog")
        info["meta"] = {
            "reason": snap.reason,
            "detail": snap.detail,
            "process_name": snap.process_name,
            "machine_name": snap.machine_name,
            "clock": snap.clock,
            "modules": len(snap.modules),
            "threads": len(snap.threads),
            "buffers": len(snap.buffers),
            "replayable": snap.replayable,
            # Format tag of the embedded nondeterminism log, when any
            # ("tb-ndlog/2"; replay refuses any other).
            "ndlog_format": (
                ndlog.get("format") if isinstance(ndlog, dict) else None
            ),
        }
    return info
