"""The mapfile: instrumentation-time metadata for reconstruction (§2.1).

"The instrumentation process needs to build a table to translate block
addresses to DAG ids, and a table to map DAG bits to successor blocks.
This information is saved out alongside the instrumented executable in a
file called the mapfile."

Our mapfile additionally embeds the (rewritten) source line table and
function extents, so reconstruction needs only the mapfile plus the raw
trace — matching the paper's list of reconstruction inputs (mapfile +
debug information), just bundled into one artifact.  Blocks carry the
§4.3.1 annotations (procedure entry/exit, call with callee name, handler
entry) that drive the call-hierarchy display.

All offsets in a mapfile are *instrumented-module* code offsets.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.instrument.tiling import DagPlan, decode_path


@dataclass
class BlockMap:
    """One block of one DAG, in instrumented coordinates.

    ``id`` is the block's first word (probe included) — branch targets
    land here.  ``body_start`` is the first *original* instruction after
    any probe words; lines are attributed from ``id`` so probe words
    inherit the block's source line.
    """

    id: int
    end: int
    body_start: int
    bit: int | None
    succs: list[int] = field(default_factory=list)
    func_entry: str | None = None
    func_exit: bool = False
    call: str | None = None
    handler_entry: bool = False

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "end": self.end,
            "body_start": self.body_start,
            "bit": self.bit,
            "succs": list(self.succs),
            "func_entry": self.func_entry,
            "func_exit": self.func_exit,
            "call": self.call,
            "handler_entry": self.handler_entry,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockMap":
        return cls(**d)


@dataclass
class DagMap:
    """One DAG: entry block plus members in topological order."""

    index: int
    func: str
    entry: int
    blocks: list[BlockMap]
    #: ``path_bits -> decoded block sequence`` memo.  Hot traces replay
    #: a small set of paths per DAG (loop bodies), and the blocks are
    #: immutable once reconstruction starts, so re-walking the plan per
    #: record is pure waste.  Excluded from equality/repr: a cache is
    #: not part of the DAG's identity.
    _decode_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def _plan(self) -> DagPlan:
        plan = DagPlan(index=self.index, entry=self.entry)
        for block in self.blocks:
            plan.add_member(block.id, block.bit)
        return plan

    def decode(self, path_bits: int) -> list[BlockMap]:
        """Expand a record's path bits into the executed block sequence."""
        cached = self._decode_cache.get(path_bits)
        if cached is not None:
            return list(cached)
        succs = {block.id: block.succs for block in self.blocks}
        ids = decode_path(self._plan(), path_bits, succs)
        by_id = {block.id: block for block in self.blocks}
        decoded = [by_id[i] for i in ids]
        self._decode_cache[path_bits] = decoded
        return list(decoded)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "func": self.func,
            "entry": self.entry,
            "blocks": [b.to_dict() for b in self.blocks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DagMap":
        return cls(
            index=d["index"],
            func=d["func"],
            entry=d["entry"],
            blocks=[BlockMap.from_dict(b) for b in d["blocks"]],
        )


@dataclass
class Mapfile:
    """Everything reconstruction needs about one instrumented module."""

    module_name: str
    checksum: str  # of the instrumented module (keys runtime state)
    original_checksum: str
    dag_base: int  # default DAG id range start (before any rebasing)
    dag_count: int
    mode: str  # "native" or "il"
    dags: list[DagMap]
    #: (start_offset, file, line) in instrumented coordinates.
    lines: list[tuple[int, str, int]]
    #: (name, start, end) function extents in instrumented coordinates.
    funcs: list[tuple[str, int, int]]
    #: Global data symbols: name -> (section, offset, size_in_words).
    #: Lets reconstruction "display the values of variables at the point
    #: of the snap" (§3.6) from a snap's memory dump.
    data_symbols: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    #: Lazily built bisect key for ``line_at`` (the line table is fixed
    #: after construction) and a ``(start, end) -> lines`` memo for
    #: ``lines_in_range`` — expansion asks for the same block ranges on
    #: every loop iteration of a hot trace.
    _line_starts: list[int] | None = field(
        default=None, compare=False, repr=False
    )
    _range_cache: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------
    def dag_by_local_index(self, index: int) -> DagMap | None:
        """DAG ``index`` (0-based within this module), or None."""
        if 0 <= index < len(self.dags):
            return self.dags[index]
        return None

    def line_at(self, offset: int) -> tuple[str, int] | None:
        """Source location covering instrumented code ``offset``."""
        if not self.lines:
            return None
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [entry[0] for entry in self.lines]
        idx = bisect_right(starts, offset) - 1
        if idx < 0:
            return None
        _, file, line = self.lines[idx]
        return file, line

    def func_at(self, offset: int) -> str | None:
        """Function containing instrumented code ``offset``."""
        for name, start, end in self.funcs:
            if start <= offset < end:
                return name
        return None

    def lines_in_range(self, start: int, end: int) -> list[tuple[str, int]]:
        """Distinct source lines covered by ``[start, end)``, in order."""
        cached = self._range_cache.get((start, end))
        if cached is not None:
            return list(cached)
        out: list[tuple[str, int]] = []
        for offset in range(start, end):
            loc = self.line_at(offset)
            if loc is not None and (not out or out[-1] != loc):
                out.append(loc)
        self._range_cache[(start, end)] = out
        return list(out)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "module_name": self.module_name,
            "checksum": self.checksum,
            "original_checksum": self.original_checksum,
            "dag_base": self.dag_base,
            "dag_count": self.dag_count,
            "mode": self.mode,
            "dags": [d.to_dict() for d in self.dags],
            "lines": [list(entry) for entry in self.lines],
            "funcs": [list(entry) for entry in self.funcs],
            "data_symbols": {k: list(v) for k, v in self.data_symbols.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mapfile":
        return cls(
            module_name=d["module_name"],
            checksum=d["checksum"],
            original_checksum=d["original_checksum"],
            dag_base=d["dag_base"],
            dag_count=d["dag_count"],
            mode=d["mode"],
            dags=[DagMap.from_dict(x) for x in d["dags"]],
            lines=[(e[0], e[1], e[2]) for e in d["lines"]],
            funcs=[(e[0], e[1], e[2]) for e in d["funcs"]],
            data_symbols={
                k: (v[0], v[1], v[2])
                for k, v in d.get("data_symbols", {}).items()
            },
        )

    def save(self, path: str) -> None:
        """Write the mapfile as JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "Mapfile":
        """Read a mapfile written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
