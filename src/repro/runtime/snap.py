"""Snapshots: triggers, policy files, suppression, snap artifacts (§3.6).

"A TraceBack snapshot (or snap) is a collection of execution histories
and metadata from which TraceBack reconstructs program state. ...
Triggers are controlled by entries in a textual policy file that the
runtime reads as it starts up."

Policy file grammar (one directive per line, ``#`` comments)::

    snap on exception [CODE...]    # first-chance; no codes = all
    snap on unhandled              # unhandled exceptions
    snap on signal [SIGNUM...]     # no numbers = all fatal signals
    snap on api                    # the guest SNAP syscall
    snap on hang                   # service-process heartbeat timeout
    suppress duplicates on|off     # §3.6.2 snap suppression
    max snaps N
    include memory on|off

Suppression dedupes on "the same exception coming from the same program
location" — keyed by (trigger kind, detail code, module checksum, code
offset) — and is "a key factor in producing a usable system": useless
snaps cost runtime, disk, and attention.
"""

from __future__ import annotations

import copy
import json
import os
from array import array
from dataclasses import MISSING, dataclass, field, fields


class PolicyError(ValueError):
    """Malformed policy file."""


class SnapMetadataError(ValueError):
    """Snap metadata lacks a field, holds one with the wrong type, or
    carries a malformed entry; the message is the first such loss."""


@dataclass
class SnapPolicy:
    """Parsed snap policy."""

    #: None = never; empty set = every exception; else specific codes.
    exception_codes: set[int] | None = None
    unhandled: bool = True
    #: None = never; empty set = every fatal signal; else specific ones.
    signals: set[int] | None = field(default_factory=set)
    api: bool = True
    hang: bool = True
    suppress_duplicates: bool = True
    max_snaps: int = 100
    include_memory: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "SnapPolicy":
        """Parse the textual policy format."""
        policy = cls(
            exception_codes=None,
            unhandled=False,
            signals=None,
            api=False,
            hang=False,
        )
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip().lower()
            if not line:
                continue
            words = line.split()
            if words[:2] == ["snap", "on"] and len(words) >= 3:
                kind = words[2]
                args = words[3:]
                if kind == "exception":
                    policy.exception_codes = {int(a, 0) for a in args}
                elif kind == "unhandled":
                    policy.unhandled = True
                elif kind == "signal":
                    policy.signals = {int(a, 0) for a in args}
                elif kind == "api":
                    policy.api = True
                elif kind == "hang":
                    policy.hang = True
                else:
                    raise PolicyError(f"line {lineno}: unknown trigger {kind!r}")
            elif words[0] == "suppress" and len(words) == 3:
                policy.suppress_duplicates = words[2] == "on"
            elif words[0] == "max" and words[1] == "snaps":
                policy.max_snaps = int(words[2])
            elif words[0] == "include" and words[1] == "memory":
                policy.include_memory = words[2] == "on"
            else:
                raise PolicyError(f"line {lineno}: unparseable {raw!r}")
        return policy

    @classmethod
    def load(cls, path: str) -> "SnapPolicy":
        """Read and parse a policy file."""
        with open(path) as fh:
            return cls.parse(fh.read())

    # ------------------------------------------------------------------
    def wants_exception(self, code: int) -> bool:
        """First-chance exception trigger check."""
        if self.exception_codes is None:
            return False
        return not self.exception_codes or code in self.exception_codes

    def wants_signal(self, signum: int) -> bool:
        """Signal trigger check."""
        if self.signals is None:
            return False
        return not self.signals or signum in self.signals


class Suppressor:
    """Duplicate-snap suppression (§3.6.2)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._seen: set[tuple] = set()
        self.suppressed_count = 0

    def should_snap(self, key: tuple) -> bool:
        """True if a snap with this key should proceed."""
        if not self.enabled:
            return True
        if key in self._seen:
            self.suppressed_count += 1
            return False
        self._seen.add(key)
        return True


def _is_word(value) -> bool:
    """Whether ``value`` is an int in [0, 2**32)."""
    return isinstance(value, int) and 0 <= value <= 0xFFFFFFFF


def _first_non_word(words: list) -> int | None:
    """Position of the first value in ``words`` that is not a 32-bit
    word, or None when there is none."""
    try:
        array("I", words)  # the fast check: packs only 32-bit words
        return None
    except (OverflowError, TypeError):
        return next(pos for pos, w in enumerate(words) if not _is_word(w))


@dataclass
class BufferDump:
    """One trace buffer's raw contents inside a snap."""

    index: int
    flags: int
    base: int
    sub_count: int
    sub_size: int
    owner_tid: int | None
    words: list[int]


@dataclass
class ThreadDump:
    """One thread's state at snap time."""

    tid: int
    name: str
    state: str
    pc: int
    trace_ptr: int
    block_reason: str | None


@dataclass
class ModuleDump:
    """Per-module metadata a snap carries (drives mapfile matching)."""

    name: str
    checksum: str
    dag_base_default: int
    dag_base_actual: int
    dag_count: int
    code_base: int
    loaded: bool
    #: Section bases, for resolving data symbols against memory dumps.
    data_base: int = -1
    rodata_base: int = -1


#: Marks a field a document lacks.
_MISSING = object()

#: Field annotation of a dump dataclass -> the types that may hold it.
_ANNOTATION_TYPES = {
    "int": int,
    "str": str,
    "bool": bool,
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
    "list[int]": list,
}


def _entry_table(cls) -> tuple:
    """``(names, types, rows)`` of a dump dataclass, ``rows`` holding
    ``(name, types, annotation, required)`` per field, derived from its
    annotations; a field with a default may be absent."""
    rows = tuple(
        (f.name, _ANNOTATION_TYPES[f.type], f.type, f.default is MISSING)
        for f in fields(cls)
    )
    return tuple(row[0] for row in rows), tuple(row[1] for row in rows), rows


#: Dump dataclass -> its :func:`_entry_table`.
_ENTRY_FIELDS = {
    cls: _entry_table(cls) for cls in (ModuleDump, BufferDump, ThreadDump)
}


def _malformed(item, rows: tuple) -> str | None:
    """Why ``item`` cannot be the entry whose fields are ``rows``: its
    first missing, wrongly typed or unknown field; None when it can."""
    if not isinstance(item, dict):
        return "not an object"
    for name, types, annotation, required in rows:
        value = item.get(name, _MISSING)
        if value is _MISSING:
            if required:
                return f"missing {name!r}"
        elif not isinstance(value, types):
            return f"{name!r} is {type(value).__name__}, not {annotation}"
    unknown = set(item) - {row[0] for row in rows}
    return f"unknown field {min(unknown)!r}" if unknown else None


def _entries(cls, kind: str, items: list, notes: list[str]) -> list:
    """``items`` built as ``cls``; a malformed one is dropped, with a
    note naming its first bad field."""
    names, types, rows = _ENTRY_FIELDS[cls]
    kept = []
    for i, item in enumerate(items):
        # The common case, every field present and well typed, is
        # checked without a Python-level loop.
        if not (
            type(item) is dict
            and item.keys() == set(names)
            and all(map(isinstance, map(item.get, names), types))
        ):
            why = _malformed(item, rows)
            if why is not None:
                notes.append(f"{kind} entry {i}: malformed metadata dropped ({why})")
                continue
        kept.append(cls(**item))
    return kept


#: Top-level snap field -> (type, salvage stand-in, required).  Only
#: ``replay`` may be absent (legacy snaps carry none).
_SNAP_FIELDS = (
    ("reason", str, "unknown", True),
    ("detail", dict, {}, True),
    ("process_name", str, "<unknown>", True),
    ("pid", int, -1, True),
    ("machine_name", str, "<unknown>", True),
    ("clock", int, 0, True),
    ("modules", list, (), True),
    ("buffers", list, (), True),
    ("threads", list, (), True),
    ("memory", dict, {}, True),
    ("replay", dict, {}, False),
)


@dataclass
class SnapFile:
    """A complete snap: the unit handed to reconstruction."""

    reason: str
    detail: dict
    process_name: str
    pid: int
    machine_name: str
    clock: int
    modules: list[ModuleDump]
    buffers: list[BufferDump]
    threads: list[ThreadDump]
    #: Optional memory dump: segment name -> (base, words).
    memory: dict[str, tuple[int, list[int]]] = field(default_factory=dict)
    #: Reproducibility metadata: ``{"seed": {...}}`` for any snap taken
    #: by a runtime, plus ``{"ndlog": {...}}`` (the ``tb-ndlog/2``
    #: nondeterminism log) when the run recorded for replay.  Legacy
    #: snaps carry an empty dict.
    replay: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def replayable(self) -> str:
        """``"full"`` (ndlog present), ``"seed-only"``, or ``"none"``.

        Delegates to :func:`repro.replay.ndlog.replayable_status` — the
        single implementation of the status ladder — so local snaps and
        vault manifests can never classify the same replay dict
        differently.
        """
        # Deferred import: repro.replay imports the runtime package.
        from repro.replay.ndlog import replayable_status

        return replayable_status(self.replay)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = {
            "reason": self.reason,
            # Copied, not aliased: round-tripping through to_dict/from_dict
            # is how copy_snap builds independent copies, and callers
            # mutate detail (group linkage, chaos injection) after the fact.
            "detail": dict(self.detail),
            "process_name": self.process_name,
            "pid": self.pid,
            "machine_name": self.machine_name,
            "clock": self.clock,
            "modules": [dict(vars(m)) for m in self.modules],
            "buffers": [
                {**vars(b), "words": list(b.words)} for b in self.buffers
            ],
            "threads": [dict(vars(t)) for t in self.threads],
            "memory": {k: [v[0], list(v[1])] for k, v in self.memory.items()},
        }
        if self.replay:
            # Emitted only when present so legacy artifacts (and their
            # content digests) are byte-for-byte unchanged.
            d["replay"] = dict(self.replay)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SnapFile":
        """Strict load: :meth:`from_dict_salvage` that refuses its first
        note, as :class:`SnapMetadataError`."""
        snap, notes = cls.from_dict_salvage(d)
        if notes:
            raise SnapMetadataError(notes[0])
        return snap

    @classmethod
    def from_dict_salvage(cls, d: dict) -> tuple["SnapFile", list[str]]:
        """Load snap metadata, noting every loss by name.

        A top-level field (:data:`_SNAP_FIELDS`) that is missing or
        wrongly typed takes its stand-in.  A module, buffer or thread
        entry with a missing, wrongly typed or unknown field, and a
        memory segment that is not a ``[base, words]`` pair, is
        dropped.  A buffer value that is not a 32-bit word is zeroed in
        place, so every word after it keeps its sub-buffer position.
        """
        notes: list[str] = []
        if not isinstance(d, dict):
            notes.append("snap metadata is not a mapping; starting empty")
            d = {}
        values = {}
        for name, kind, stand_in, required in _SNAP_FIELDS:
            value = d.get(name, _MISSING)
            if not isinstance(value, kind):
                if value is not _MISSING:
                    notes.append(
                        f"snap metadata {name!r} is "
                        f"{type(value).__name__}, not {kind.__name__}"
                    )
                elif required:
                    notes.append(f"snap metadata missing {name!r}")
                value = stand_in
            values[name] = value
        modules = _entries(ModuleDump, "module", values["modules"], notes)
        buffers = _entries(BufferDump, "buffer", values["buffers"], notes)
        for buffer in buffers:
            words = buffer.words
            pos = _first_non_word(words)
            if pos is not None:
                bad = sum(not _is_word(w) for w in words)
                notes.append(
                    f"buffer {buffer.index}: {bad} of {len(words)} values "
                    f"are not 32-bit words (the first is word {pos}, "
                    f"{words[pos]!r})"
                )
                buffer.words = [w if _is_word(w) else 0 for w in words]
        threads = _entries(ThreadDump, "thread", values["threads"], notes)
        memory = {}
        for key, value in values["memory"].items():
            if (
                isinstance(value, (list, tuple))
                and len(value) == 2
                and isinstance(value[0], int)
                and isinstance(value[1], list)
            ):
                memory[key] = (value[0], value[1])
            else:
                notes.append(f"memory segment {key!r}: malformed, dropped")
        return cls(
            reason=values["reason"],
            # Copied, not aliased: callers mutate detail (group linkage,
            # chaos injection) after the fact.
            detail=dict(values["detail"]),
            process_name=values["process_name"],
            pid=values["pid"],
            machine_name=values["machine_name"],
            clock=values["clock"],
            modules=modules,
            buffers=buffers,
            threads=threads,
            memory=memory,
            # Deep, not shallow: the nested ndlog is mutated by chaos
            # injection and must stay independent of the source dict
            # (the copy_snap contract).
            replay=copy.deepcopy(values["replay"]),
        ), notes

    def save(self, path: str) -> None:
        """Persist as JSON (the on-disk snap artifact)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path: str) -> "SnapFile":
        """Read a snap written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class SnapStore:
    """Where snaps land: an in-memory list plus an optional directory."""

    def __init__(self, directory: str | None = None):
        self.snaps: list[SnapFile] = []
        self.directory = directory

    def add(self, snap: SnapFile) -> None:
        """Record (and optionally persist) a snap."""
        self.snaps.append(snap)
        if self.directory is not None:
            name = f"snap-{len(self.snaps):04d}-{snap.process_name}.json"
            snap.save(os.path.join(self.directory, name))

    def latest(self) -> SnapFile | None:
        """The most recent snap, or None."""
        return self.snaps[-1] if self.snaps else None

    def __len__(self) -> int:
        return len(self.snaps)
