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
from dataclasses import dataclass, field


class PolicyError(ValueError):
    """Malformed policy file."""


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
        """Strict load: a missing field raises ``KeyError``/``TypeError``,
        and a buffer word that is not a 32-bit word raises ``ValueError``
        naming the buffer and the position (the record miner takes
        buffer words as packed 32-bit data)."""
        buffers = [BufferDump(**b) for b in d["buffers"]]
        for buffer in buffers:
            pos = _first_non_word(buffer.words)
            if pos is not None:
                raise ValueError(
                    f"buffer {buffer.index}: word {pos} is "
                    f"{buffer.words[pos]!r}, not a 32-bit word"
                )
        return cls(
            reason=d["reason"],
            detail=dict(d["detail"]),
            process_name=d["process_name"],
            pid=d["pid"],
            machine_name=d["machine_name"],
            clock=d["clock"],
            modules=[ModuleDump(**m) for m in d["modules"]],
            buffers=buffers,
            threads=[ThreadDump(**t) for t in d["threads"]],
            memory={k: (v[0], v[1]) for k, v in d["memory"].items()},
            # Deep, not shallow: the nested ndlog is mutated by chaos
            # injection and must stay independent of the source dict
            # (the copy_snap contract).
            replay=copy.deepcopy(d.get("replay") or {}),
        )

    @classmethod
    def from_dict_salvage(cls, d: dict) -> tuple["SnapFile", list[str]]:
        """Tolerant counterpart of :meth:`from_dict`.

        Damaged snap artifacts (torn JSON re-serialized, containers with
        lost blobs) may be missing fields or carry malformed entries;
        every such loss becomes a note instead of a ``KeyError``, so the
        reconstruction pipeline always gets *a* snap to work on.
        """
        notes: list[str] = []

        def pick(items: list, kind: str, build) -> list:
            kept = []
            for i, item in enumerate(items if isinstance(items, list) else []):
                try:
                    kept.append(build(item))
                except (TypeError, KeyError, ValueError):
                    notes.append(f"{kind} entry {i}: malformed metadata dropped")
            return kept

        def build_buffer(b: dict) -> BufferDump:
            # Coerce aggressively: a buffer whose geometry fields are
            # garbage is dropped (int() raises), but a value that is not
            # a 32-bit word is zeroed in place, so every word after it
            # keeps its sub-buffer position and the rest stays mineable.
            owner = b.get("owner_tid")
            buffer = BufferDump(
                index=int(b["index"]),
                flags=int(b["flags"]),
                base=int(b["base"]),
                sub_count=int(b["sub_count"]),
                sub_size=int(b["sub_size"]),
                owner_tid=None if owner is None else int(owner),
                words=list(b.get("words", [])),
            )
            if _first_non_word(buffer.words) is not None:
                bad = sum(not _is_word(w) for w in buffer.words)
                buffer.words = [w if _is_word(w) else 0 for w in buffer.words]
                notes.append(
                    f"buffer {buffer.index}: {bad} of {len(buffer.words)} "
                    "values zeroed (not 32-bit words)"
                )
            return buffer

        if not isinstance(d, dict):
            d = {}
            notes.append("snap metadata is not a mapping; starting empty")
        snap = cls(
            reason=d.get("reason", "unknown"),
            detail=d.get("detail") if isinstance(d.get("detail"), dict) else {},
            process_name=str(d.get("process_name", "<unknown>")),
            pid=d.get("pid", -1),
            machine_name=str(d.get("machine_name", "<unknown>")),
            clock=d.get("clock", 0),
            modules=pick(d.get("modules", []), "module", lambda m: ModuleDump(**m)),
            buffers=pick(d.get("buffers", []), "buffer", build_buffer),
            threads=pick(d.get("threads", []), "thread", lambda t: ThreadDump(**t)),
            memory={},
            # Copied like from_dict (a salvaged snap must never alias
            # the caller's dict — mutations leaked into the source).
            replay=(
                copy.deepcopy(d.get("replay"))
                if isinstance(d.get("replay"), dict)
                else {}
            ),
        )
        memory = d.get("memory")
        if isinstance(memory, dict):
            for key, value in memory.items():
                try:
                    snap.memory[key] = (value[0], value[1])
                except (TypeError, IndexError, KeyError):
                    notes.append(f"memory segment {key!r}: malformed, dropped")
        for field_name in ("reason", "process_name", "machine_name"):
            if field_name not in d:
                notes.append(f"snap metadata missing {field_name!r}")
        return snap, notes

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
