"""The nondeterminism log (``tb-ndlog/2``) in snaps.

The TBVM is deterministic almost everywhere: the per-process PRNG is
seeded from the pid, allocation addresses and thread ids are assigned
sequentially, and every instruction/cycle charge is a pure function of
the executed stream.  What a single process cannot re-derive is the
*environment*: which thread the scheduler ran when (other processes on
the machine advance the shared cycle counter between slices), signals
posted from outside, replies to RPCs served elsewhere, inbound RPC
requests, host-initiated snaps, and ``kill -9``.  The ndlog records
exactly that — nothing else — so replaying a snap is "re-execute the
instruction stream, forcing each recorded decision at its recorded
point" (the execution-replay-via-VM idea of Oppitz, AADEBUG 2003).

The recorder sees a chronological stream of compact tagged event
records — the form :func:`decode_events` hands the replay engine:

``["s", tid, start_cycle, n, end_pc, partial?]``
    One scheduler slice: thread ``tid`` ran ``n`` instructions starting
    at machine cycle ``start_cycle`` and stopped with ``pc == end_pc``.
    A trailing ``1`` marks the partial slice open when the snap was
    serialized (the fault point): its end pc is where the *hook* saw the
    thread, which a whole-instruction replay may legitimately pass.
``["sig", signum]``
    An externally posted signal, recorded at delivery (always
    immediately before the slice that delivers it).
``["rr", seq, cycle, status, result_words, reply_triple]``
    Completion of the ``seq``-th outbound RPC, served outside this
    process (remote machine, sibling process, or no server at all).
``["rs", cycle, service, args, ret_cap, triple]``
    An inbound RPC request from outside this process.
``["x", cycle, reason, detail]``
    A host-initiated snap (external snap utility, hang detector, group
    snap fan-out).
``["k", cycle]``
    ``kill -9``.

On long runs the stream is >99% scheduler slices, and serializing each
as a five-element JSON list costs ~4 compressed bytes per event.  So
the log splits the slice stream into per-field byte columns
(base64-strings in the JSON, so the container stays a plain-JSON snap)
and keeps only the other events as JSON::

    {"format": "tb-ndlog/2",
     "header": {pid, process_name, machine, clock_skew, io_latency,
                runtime_id, config, modules, start_threads,
                rpc_services, loopback_seqs, dagbase},
     "n_events": N,                  # decoded event count
     "slices": {"count": S,
                "tids":    <b64>,   # run-length pairs (tid, run)
                "starts":  <b64>,   # zigzag varint deltas, 1st absolute
                "counts":  <b64>,   # zigzag varint deltas, 1st absolute
                "end_pcs": <b64>,   # zigzag varint deltas, 1st absolute
                "partial": [i, ...]},  # indices of partial slices
     "rare": [[pos, event], ...]}   # non-slice events, still JSON,
                                    # pos = slices preceding the event

Scheduler slices are near-periodic (round-robin quanta, loop-heavy end
pcs), so the delta/RLE columns are extremely low-entropy and the
archive's deflate layer erases them almost entirely.  The encoder also
**coalesces** adjacent slices of the same thread whose machine cycles
are contiguous — the stretches in which one thread is the only
runnable one, so round-robin picks it slice after slice — which is
replay-equivalent: cycle charging is deterministic per instruction, so
replaying the merged run of instructions passes through exactly the
recorded intermediate cycle values.  Rare events (signals, RPC legs,
host snaps, kill) always break a coalescing run, preserving their
position in the forced-event stream.

:func:`decode_events` is the one reader and its decode is the
validation: a log in any other format, a wrong-typed header field, and
any malformed byte range in a column are refused with a
:class:`ReplayUnavailable` naming the segment (``format``,
``header.config.sub_buffers``, ``slices.starts``, ``rare[3]``, ...)
instead of surfacing as a ``TypeError`` deep inside the replay engine.
``n_events`` double-checks the decoded event count so chaos-damaged
logs are refused rather than silently diverging mid-replay.
"""

from __future__ import annotations

import base64
import binascii
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import RuntimeConfig
    from repro.runtime.snap import SnapPolicy

#: Version tag of the log format, the only one replay reads.
NDLOG_FORMAT_V2 = "tb-ndlog/2"


class ReplayUnavailable(ValueError):
    """A snap cannot be replayed; ``segment`` names what is missing.

    Raised for legacy snaps recorded without an ndlog, for salvage-mode
    snaps whose log was damaged, and for runs using features the replay
    engine does not force (e.g. a dagbase file).
    """

    def __init__(self, segment: str, message: str | None = None):
        self.segment = segment
        super().__init__(message or f"replay unavailable: missing {segment}")


class ReplayDivergence(RuntimeError):
    """Replayed execution departed from the recorded run."""


# ----------------------------------------------------------------------
# Replayability status (satellite: always derivable from a snap header)
# ----------------------------------------------------------------------
def replayable_status(replay: dict | None) -> str:
    """Classify a snap's ``replay`` dict: ``full``/``seed-only``/``none``.

    The one implementation of the status ladder — vault manifests,
    ``tbtrace info``, and :attr:`SnapFile.replayable` all delegate here,
    so "full" cannot drift between local snaps and fleet metadata.  Any
    ndlog *mapping* counts as full; its format and any damage are
    checked (and named) at decode.
    """
    if not isinstance(replay, dict) or not replay:
        return "none"
    if isinstance(replay.get("ndlog"), dict):
        return "full"
    if isinstance(replay.get("seed"), dict):
        return "seed-only"
    return "none"


# ----------------------------------------------------------------------
# Field types: damaged JSON may carry wrong-typed fields that explode as
# TypeError deep inside the engine — the tables below refuse them at
# decode, by name, instead
# ----------------------------------------------------------------------
def _is_int(value) -> bool:
    return type(value) is int


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_flag(value) -> bool:
    return type(value) in (int, bool)


def _is_mapping(value) -> bool:
    return isinstance(value, dict)


def _is_word_list(value) -> bool:
    return isinstance(value, list) and all(type(w) is int for w in value)


def _is_doc_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(d, dict) for d in value)


def _optional(check):
    """``check``, or None."""
    return lambda value: value is None or check(value)


def _is_services(value) -> bool:
    """RPC service id (a decimal JSON key) -> exported function name."""
    return isinstance(value, dict) and all(
        isinstance(k, str) and k.isdecimal() and isinstance(v, str)
        for k, v in value.items()
    )


# ----------------------------------------------------------------------
# Config / policy serialization
# ----------------------------------------------------------------------
def policy_to_dict(policy: "SnapPolicy") -> dict:
    """Plain-data form of a snap policy (sets become sorted lists)."""
    return {
        "exception_codes": (
            None
            if policy.exception_codes is None
            else sorted(policy.exception_codes)
        ),
        "unhandled": policy.unhandled,
        "signals": None if policy.signals is None else sorted(policy.signals),
        "api": policy.api,
        "hang": policy.hang,
        "suppress_duplicates": policy.suppress_duplicates,
        "max_snaps": policy.max_snaps,
        "include_memory": policy.include_memory,
    }


def policy_from_dict(d: dict) -> "SnapPolicy":
    """Inverse of :func:`policy_to_dict`."""
    from repro.runtime.snap import SnapPolicy

    return SnapPolicy(
        exception_codes=(
            None
            if d.get("exception_codes") is None
            else {int(c) for c in d["exception_codes"]}
        ),
        unhandled=bool(d.get("unhandled", True)),
        signals=None if d.get("signals") is None else {int(s) for s in d["signals"]},
        api=bool(d.get("api", True)),
        hang=bool(d.get("hang", True)),
        suppress_duplicates=bool(d.get("suppress_duplicates", True)),
        max_snaps=int(d.get("max_snaps", 100)),
        include_memory=bool(d.get("include_memory", False)),
    )


#: RuntimeConfig scalar fields carried through the log verbatim, with
#: the type each must decode to.
_CONFIG_FIELDS = {
    "sub_buffer_words": _is_int,
    "sub_buffers": _is_int,
    "main_buffers": _is_int,
    "max_buffers": _is_int,
    "clock": _is_str,
    "timestamp_syscalls": _is_flag,
    "trace_slot": _is_int,
    "spill_slot": _is_int,
    "fail_dynamic_buffers": _is_flag,
    "static_buffer_words": _is_int,
    "max_dag_id": _is_int,
    "scavenge_interval": _is_int,
    "include_memory": _optional(_is_flag),
}

#: ``policy_to_dict`` fields and the type each must decode to.
_POLICY_FIELDS = {
    "exception_codes": _optional(_is_word_list),
    "unhandled": _is_flag,
    "signals": _optional(_is_word_list),
    "api": _is_flag,
    "hang": _is_flag,
    "suppress_duplicates": _is_flag,
    "max_snaps": _is_int,
    "include_memory": _is_flag,
}


def config_to_dict(config: "RuntimeConfig") -> dict:
    """Serializable subset of a runtime config (no store, no dagbase)."""
    d = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    d["policy"] = policy_to_dict(config.policy)
    return d


def config_from_dict(d: dict) -> "RuntimeConfig":
    """Rebuild a runtime config for replay (fresh snap store, no
    re-recording)."""
    from repro.runtime.runtime import RuntimeConfig

    config = RuntimeConfig(policy=policy_from_dict(d.get("policy", {})))
    for name in _CONFIG_FIELDS:
        if name in d:
            setattr(config, name, d[name])
    config.snap_store = None
    config.record_replay = False
    return config


# ----------------------------------------------------------------------
# Varint / zigzag codec (the byte columns)
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    """LEB128: 7 value bits per byte, high bit = continuation."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


class _ColumnReader:
    """Strict varint reader over one decoded column.

    Every malformed byte range — truncated varint, >64-bit overrun,
    trailing garbage — becomes a :class:`ReplayUnavailable` naming this
    column's segment, never a raw exception.
    """

    def __init__(self, segment: str, data: bytes):
        self.segment = segment
        self.data = data
        self.pos = 0

    def uvarint(self) -> int:
        data, start = self.data, self.pos
        shift = 0
        value = 0
        while True:
            if self.pos >= len(data):
                raise ReplayUnavailable(
                    self.segment,
                    f"{self.segment}: varint truncated at byte {start}",
                )
            byte = data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise ReplayUnavailable(
                    self.segment,
                    f"{self.segment}: varint at byte {start} overruns 64 bits",
                )

    def svarint(self) -> int:
        return _unzigzag(self.uvarint())

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ReplayUnavailable(
                self.segment,
                f"{self.segment}: {len(self.data) - self.pos} trailing "
                "byte(s) after the last value",
            )


def _column_bytes(slices: dict, key: str) -> bytes:
    raw = slices.get(key)
    segment = f"slices.{key}"
    if not isinstance(raw, str):
        raise ReplayUnavailable(segment, f"{segment} column missing or not a string")
    try:
        return base64.b64decode(raw.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise ReplayUnavailable(
            segment, f"{segment}: not valid base64 ({exc})"
        ) from exc


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _coalesce(
    events: list, end_cycles: list | None
) -> tuple[list[list], list[list]]:
    """Split a raw event stream into (slices, rare).

    ``slices`` entries are ``[tid, start, n, end_pc, partial]``; ``rare``
    entries are ``[pos, event]`` with ``pos`` the number of slices
    preceding the event.  When ``end_cycles`` (machine cycles at each
    slice's end, parallel to ``events``, None for non-slices) is
    available, adjacent same-thread slices with contiguous cycles merge
    into one — replay-equivalent because per-instruction cycle charging
    re-derives the intermediate boundary exactly.  A rare event, a
    prologue-only slice (n == 0), or a partial slice always breaks the
    run.
    """
    slices: list[list] = []
    rare: list[list] = []
    last_end: int | None = None
    for idx, event in enumerate(events):
        if event[0] == "s":
            tid = int(event[1])
            start = int(event[2])
            n = int(event[3])
            end_pc = int(event[4])
            partial = len(event) > 5 and bool(event[5])
            prev = slices[-1] if slices else None
            if (
                prev is not None
                and last_end is not None
                and prev[0] == tid
                and not prev[4]
                and prev[2] > 0
                and n > 0
                and start == last_end
            ):
                prev[2] += n
                prev[3] = end_pc
                prev[4] = partial
            else:
                slices.append([tid, start, n, end_pc, partial])
            last_end = (
                end_cycles[idx]
                if end_cycles is not None and idx < len(end_cycles)
                else None
            )
        else:
            rare.append([len(slices), list(event)])
            last_end = None
    return slices, rare


def encode_ndlog(
    header: dict, events: list, end_cycles: list | None = None
) -> dict:
    """Pack a raw event stream into a ``tb-ndlog/2`` dict.

    ``end_cycles`` enables slice coalescing (see :func:`_coalesce`);
    without it the encoding is a pure columnar re-layout and
    ``decode_events`` round-trips the stream exactly.
    """
    slices, rare = _coalesce(events, end_cycles)
    tids = bytearray()
    starts = bytearray()
    counts = bytearray()
    end_pcs = bytearray()
    i = 0
    while i < len(slices):
        tid = slices[i][0]
        j = i
        while j < len(slices) and slices[j][0] == tid:
            j += 1
        _write_uvarint(tids, tid)
        _write_uvarint(tids, j - i)
        i = j
    prev_start = prev_n = prev_pc = 0
    for tid, start, n, end_pc, _partial in slices:
        _write_uvarint(starts, _zigzag(start - prev_start))
        _write_uvarint(counts, _zigzag(n - prev_n))
        _write_uvarint(end_pcs, _zigzag(end_pc - prev_pc))
        prev_start, prev_n, prev_pc = start, n, end_pc

    def b64(column: bytearray) -> str:
        return base64.b64encode(bytes(column)).decode("ascii")

    return {
        "format": NDLOG_FORMAT_V2,
        "header": header,
        "n_events": len(slices) + len(rare),
        "slices": {
            "count": len(slices),
            "tids": b64(tids),
            "starts": b64(starts),
            "counts": b64(counts),
            "end_pcs": b64(end_pcs),
            "partial": [i for i, s in enumerate(slices) if s[4]],
        },
        "rare": rare,
    }


#: Rare-event tag -> its named per-field predicates, positions 1..n of
#: the event list (the arity is one more).  Slices have no row: they
#: live only in the columns.
_EVENT_FIELDS = {
    "sig": (("signum", _is_int),),
    "rr": (
        ("seq", _is_int),
        ("cycle", _is_int),
        ("status", _is_int),
        ("result_words", _is_word_list),
        ("reply_triple", _optional(_is_mapping)),
    ),
    "rs": (
        ("cycle", _is_int),
        ("service", _is_int),
        ("args", _is_word_list),
        ("ret_cap", _is_int),
        ("triple", _optional(_is_mapping)),
    ),
    "x": (
        ("cycle", _is_int),
        ("reason", _is_str),
        ("detail", _is_mapping),
    ),
    "k": (("cycle", _is_int),),
}

#: Header key -> its type check.  A nested table checks a nested
#: mapping whose keys may each be absent (``config_from_dict`` and
#: ``policy_from_dict`` default them).
_HEADER_FIELDS = {
    "pid": _is_int,
    "process_name": _is_str,
    "machine": _is_str,
    "clock_skew": _is_int,
    "io_latency": _is_int,
    "runtime_id": _is_int,
    "config": {**_CONFIG_FIELDS, "policy": _POLICY_FIELDS},
    "modules": _is_doc_list,
    "start_threads": _is_doc_list,
    "rpc_services": _is_services,
    "loopback_seqs": _is_word_list,
    "dagbase": _is_flag,
}

#: Header keys a log may lack (replay defaults them); the rest are
#: required.
_HEADER_OPTIONAL = ("loopback_seqs", "dagbase")


def _check_fields(segment: str, doc: dict, fields: dict, optional) -> None:
    """Refuse the first of ``fields`` that ``doc`` lacks (unless it is
    ``optional``) or holds with the wrong type."""
    for key, check in fields.items():
        if key not in doc:
            if key in optional:
                continue
            raise ReplayUnavailable(f"{segment}.{key}")
        value = doc[key]
        nested = type(check) is dict
        if nested and type(value) is dict:
            _check_fields(f"{segment}.{key}", value, check, optional=check)
        elif nested or not check(value):
            where = f"{segment}.{key}"
            raise ReplayUnavailable(
                where,
                f"{where}: wrong type {type(value).__name__} ({value!r:.60})",
            )


def _check_event(segment: str, event) -> None:
    """Structural + per-field check of one rare event record."""
    if not isinstance(event, (list, tuple)) or not event:
        raise ReplayUnavailable(segment, f"{segment}: event malformed")
    tag = event[0]
    if tag == "s":
        raise ReplayUnavailable(
            segment, f"{segment}: scheduler slices belong in the columns"
        )
    fields = _EVENT_FIELDS.get(tag)
    if fields is None:
        raise ReplayUnavailable(segment, f"{segment}: unknown tag {tag!r}")
    if len(event) != 1 + len(fields):
        raise ReplayUnavailable(
            segment,
            f"{segment} ({tag!r}): expected {1 + len(fields)} fields, "
            f"got {len(event)}",
        )
    for (name, check), value in zip(fields, event[1:]):
        if not check(value):
            raise ReplayUnavailable(
                segment,
                f"{segment} ({tag!r}): field {name!r} has wrong type "
                f"{type(value).__name__} ({value!r})",
            )


# ----------------------------------------------------------------------
# Validation and decoding
# ----------------------------------------------------------------------
def _decode_v2(ndlog: dict) -> dict:
    """Strict decode of a ``tb-ndlog/2``'s slice columns and rare events
    into one chronological event stream.

    Decoding *is* the validation: every malformed byte range maps to a
    :class:`ReplayUnavailable` naming the damaged segment.
    """
    slices_meta = ndlog.get("slices")
    if not isinstance(slices_meta, dict):
        raise ReplayUnavailable("slices", "packed slice columns missing")
    count = slices_meta.get("count")
    if type(count) is not int or count < 0:
        raise ReplayUnavailable(
            "slices.count", f"slice count missing or malformed ({count!r})"
        )

    reader = _ColumnReader("slices.tids", _column_bytes(slices_meta, "tids"))
    tids: list[int] = []
    while len(tids) < count:
        tid = reader.uvarint()
        run = reader.uvarint()
        if run <= 0 or len(tids) + run > count:
            raise ReplayUnavailable(
                "slices.tids",
                f"slices.tids: run of {run} at byte {reader.pos} "
                f"overflows {count} slices",
            )
        tids.extend([tid] * run)
    reader.finish()

    def delta_column(key: str, floor_name: str) -> list[int]:
        col = _ColumnReader(f"slices.{key}", _column_bytes(slices_meta, key))
        values: list[int] = []
        level = 0
        for _ in range(count):
            level += col.svarint()
            if level < 0:
                raise ReplayUnavailable(
                    f"slices.{key}",
                    f"slices.{key}: delta stream drives {floor_name} "
                    f"negative ({level})",
                )
            values.append(level)
        col.finish()
        return values

    starts = delta_column("starts", "a start cycle")
    counts = delta_column("counts", "an instruction count")
    end_pcs = delta_column("end_pcs", "an end pc")

    partial = slices_meta.get("partial")
    if not isinstance(partial, list) or not all(
        type(i) is int and 0 <= i < count for i in partial
    ):
        raise ReplayUnavailable(
            "slices.partial", "partial-slice index list malformed"
        )
    partial_set = set(partial)

    rare = ndlog.get("rare")
    if not isinstance(rare, list):
        raise ReplayUnavailable("rare", "rare-event side list missing")
    last_pos = 0
    for j, entry in enumerate(rare):
        segment = f"rare[{j}]"
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or type(entry[0]) is not int
        ):
            raise ReplayUnavailable(
                segment, f"{segment}: expected [position, event] pair"
            )
        pos = entry[0]
        if pos < last_pos or pos > count:
            raise ReplayUnavailable(
                segment,
                f"{segment}: position {pos} out of order "
                f"(previous {last_pos}, {count} slices)",
            )
        last_pos = pos
        _check_event(segment, entry[1])

    declared = ndlog.get("n_events")
    if declared != count + len(rare):
        raise ReplayUnavailable(
            "events",
            f"ndlog declares {declared} events but carries "
            f"{count + len(rare)} (truncated or damaged log)",
        )

    events: list[list] = []
    ri = 0
    for i in range(count):
        while ri < len(rare) and rare[ri][0] <= i:
            events.append(list(rare[ri][1]))
            ri += 1
        event = [
            "s",
            tids[i],
            starts[i],
            counts[i],
            end_pcs[i],
        ]
        if i in partial_set:
            event.append(1)
        events.append(event)
    for entry in rare[ri:]:
        events.append(list(entry[1]))
    return {
        "header": ndlog.get("header"),
        "events": events,
        "n_events": len(events),
    }


def decode_events(ndlog: dict) -> dict:
    """Validate a ``tb-ndlog/2`` and return its chronological event
    stream as ``{"header", "events", "n_events"}``.

    The columns are strictly decoded and the rare events re-merged at
    their slice positions.  Raises :class:`ReplayUnavailable` naming
    the first missing or damaged segment; any other format, the
    recorder's raw stream included, is refused as ``format``.
    """
    if not isinstance(ndlog, dict):
        raise ReplayUnavailable("ndlog", "nondeterminism log is not a mapping")
    fmt = ndlog.get("format")
    if fmt != NDLOG_FORMAT_V2:
        raise ReplayUnavailable(
            "format",
            f"unsupported ndlog format {fmt!r} "
            f"(replay reads only {NDLOG_FORMAT_V2!r})",
        )
    header = ndlog.get("header")
    if not isinstance(header, dict):
        raise ReplayUnavailable("header", "ndlog header missing or malformed")
    _check_fields("header", header, _HEADER_FIELDS, _HEADER_OPTIONAL)
    return _decode_v2(ndlog)


def validate_ndlog(ndlog: dict) -> None:
    """Check structural integrity; raise :class:`ReplayUnavailable`
    naming the first missing/damaged segment.  This fully decodes the
    packed columns — decoding is the only complete check of a
    byte-packed stream."""
    decode_events(ndlog)
