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
a CRC mismatch.  :func:`salvage_decompress` recovers what it can from a
torn or bit-flipped container instead of raising.
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


def _parse_body(
    body: bytes, strict: bool, notes: list[str]
) -> SnapFile | None:
    """Body parser shared by :func:`decompress_snap` and
    :func:`salvage_decompress`.

    In strict mode any damage raises :class:`ArchiveError`; otherwise
    problems land in ``notes`` and damaged blobs are recovered as far as
    the surviving bytes allow.
    """
    if len(body) < 4:
        if strict:
            raise ArchiveError("container body too short for a header")
        notes.append("container body too short for a header")
        return None
    (header_len,) = _U32.unpack(body[:4])
    if 4 + header_len > len(body):
        if strict:
            raise ArchiveError(
                f"container torn inside the metadata header "
                f"({header_len} bytes declared, {len(body) - 4} present)"
            )
        notes.append("container torn inside the metadata header")
        return None
    try:
        payload = json.loads(body[4 : 4 + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        if strict:
            raise ArchiveError(f"metadata header unparseable: {exc}") from exc
        notes.append(f"metadata header unparseable: {exc}")
        return None
    cursor = 4 + header_len
    for buffer in payload.get("buffers", []):
        marker = buffer.get("words")
        if not (isinstance(marker, list) and marker and marker[0] == "blob"):
            continue
        blob = body[cursor : cursor + marker[2]]
        _, problem = _check_blob(marker, blob)
        if problem:
            message = f"buffer {buffer.get('index', '?')}: {problem}"
            if strict:
                raise ArchiveError(message)
            notes.append(message)
        buffer["words"] = unpack_words(blob)
        cursor += marker[2]
    if strict:
        return SnapFile.from_dict(payload)
    snap, field_notes = SnapFile.from_dict_salvage(payload)
    notes.extend(field_notes)
    return snap


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


def decompress_snap(data: bytes) -> SnapFile:
    """Inverse of :func:`compress_snap`.  Raises :class:`ArchiveError`
    on any damage (truncation, tearing, a missing or mismatched CRC)."""
    if not data.startswith(MAGIC):
        raise ArchiveError("not a compressed snap container")
    if len(data) < len(MAGIC) + 4:
        raise ArchiveError("container truncated before the length word")
    (body_len,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
    try:
        body = zlib.decompress(data[len(MAGIC) + 4 :])
    except zlib.error as exc:
        raise ArchiveError(f"container deflate stream damaged: {exc}") from exc
    if len(body) != body_len:
        raise ArchiveError(
            f"container length check failed: {len(body)} bytes inflate, "
            f"{body_len} declared (truncated in transit?)"
        )
    return _parse_body(body, strict=True, notes=[])


def salvage_decompress(data: bytes) -> tuple[SnapFile | None, list[str]]:
    """Best-effort read of a damaged container.

    Returns ``(snap, notes)``: ``snap`` is None only when nothing at all
    is recoverable (unreadable metadata); otherwise it carries every
    buffer whose bytes survive, with damage described in ``notes``.
    Never raises on damage.
    """
    notes: list[str] = []
    if not data.startswith(MAGIC):
        return None, ["not a compressed snap container"]
    if len(data) < len(MAGIC) + 4:
        return None, ["container truncated before the length word"]
    (declared,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
    compressed = data[len(MAGIC) + 4 :]
    try:
        body = zlib.decompress(compressed)
    except zlib.error as exc:
        notes.append(f"deflate stream damaged: {exc}")
        body = _inflate_partial(compressed)
    if len(body) != declared:
        notes.append(
            f"length check failed: {len(body)}/{declared} bytes recovered"
        )
    snap = _parse_body(body, strict=False, notes=notes)
    return snap, notes


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
    machine, clock, module/thread counts) straight from the header
    JSON.  Never raises on damage — problems land in ``"problems"``.
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
    if not data.startswith(MAGIC):
        info["problems"].append("not a compressed snap container")
        return info
    info["version"] = 2
    if len(data) < len(MAGIC) + 4:
        info["problems"].append("container truncated before the length word")
        return info
    (declared,) = _U32.unpack(data[len(MAGIC) : len(MAGIC) + 4])
    compressed = data[len(MAGIC) + 4 :]
    try:
        body = zlib.decompress(compressed)
    except zlib.error as exc:
        info["problems"].append(f"deflate stream damaged: {exc}")
        body = _inflate_partial(compressed)
    info["length_ok"] = len(body) == declared
    if not info["length_ok"]:
        info["problems"].append(
            f"length check failed: {len(body)}/{declared} bytes"
        )
    if len(body) < 4:
        info["problems"].append("container body too short for a header")
        return info
    (header_len,) = _U32.unpack(body[:4])
    if 4 + header_len > len(body):
        info["problems"].append("container torn inside the metadata header")
        return info
    try:
        payload = json.loads(body[4 : 4 + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        info["problems"].append(f"metadata header unparseable: {exc}")
        return info
    from repro.replay.ndlog import replayable_status

    replay = payload.get("replay") or {}
    ndlog = replay.get("ndlog") if isinstance(replay, dict) else None
    info["meta"] = {
        "reason": payload.get("reason"),
        "detail": payload.get("detail"),
        "process_name": payload.get("process_name"),
        "machine_name": payload.get("machine_name"),
        "clock": payload.get("clock"),
        "modules": len(payload.get("modules", [])),
        "threads": len(payload.get("threads", [])),
        "buffers": len(payload.get("buffers", [])),
        "replayable": replayable_status(replay if isinstance(replay, dict) else {}),
        # Format tag of the embedded nondeterminism log, when any
        # ("tb-ndlog/2"; replay refuses any other).
        "ndlog_format": (
            ndlog.get("format") if isinstance(ndlog, dict) else None
        ),
    }
    cursor = 4 + header_len
    info["crc_ok"] = True
    for buffer in payload.get("buffers", []):
        marker = buffer.get("words")
        if not (isinstance(marker, list) and marker and marker[0] == "blob"):
            continue
        blob = body[cursor : cursor + marker[2]]
        state, problem = _check_blob(marker, blob)
        if problem:
            info["crc_ok"] = False
            info["problems"].append(
                f"buffer {buffer.get('index', '?')}: {problem}"
            )
        info["blobs"].append(
            {
                "index": buffer.get("index"),
                "bytes": marker[2],
                "present": len(blob),
                "crc": state,
            }
        )
        cursor += marker[2]
    return info
