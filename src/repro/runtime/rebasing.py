"""DAG rebasing: giving each loaded module a distinct DAG id range (§2.3).

"Every module is compiled with a default DAG ID range.  The runtime
checks whether the default range conflicts with any existing module.  If
there is a conflict, the runtime uses an instrumentation-produced fixup
table within the module to rewrite all DAG ID references, so the inlined
probe instructions end up using a distinct range of ids."

Policies implemented here, all from the paper:

* same-checksum modules get the *same* range every (re)load, so a
  long-running server that loads/unloads a module repeatedly does not
  leak id space;
* if no free range exists, the module's probes are rewritten to the
  reserved **bad DAG id** — the module runs fine but its trace is not
  recoverable (and other modules' traces still are);
* a user-supplied DAG base file can pre-assign ranges to avoid the
  load-time rewriting cost entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.isa.encoding import decode, encode
from repro.isa.instructions import Op
from repro.runtime.records import BAD_DAG_ID, MAX_DAG_ID
from repro.vm.loader import LoadedModule

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.instrument.dagbase import DagBaseFile


@dataclass
class DagRange:
    """One module's assigned DAG id range."""

    base: int
    count: int
    checksum: str
    module_name: str
    bad: bool = False

    @property
    def end(self) -> int:
        return self.base + self.count

    def contains(self, dag_id: int) -> bool:
        """Whether ``dag_id`` belongs to this range."""
        return self.base <= dag_id < self.end


class DagAllocator:
    """Allocates DAG id ranges within one runtime (= one process)."""

    def __init__(
        self,
        max_dag_id: int = MAX_DAG_ID,
        dagbase: "DagBaseFile | None" = None,
    ):
        self.max_dag_id = max_dag_id
        self.dagbase = dagbase
        #: checksum -> assigned range (persists across unload/reload).
        self.by_checksum: dict[str, DagRange] = {}
        self.rebase_count = 0
        self.bad_count = 0

    # ------------------------------------------------------------------
    def _conflicts(self, base: int, count: int) -> bool:
        for other in self.by_checksum.values():
            if other.bad:
                continue
            if base < other.end and other.base < base + count:
                return True
        return False

    def _first_fit(self, count: int) -> int | None:
        """Lowest base where ``count`` ids fit, or None if exhausted."""
        taken = sorted(
            (r.base, r.end) for r in self.by_checksum.values() if not r.bad
        )
        candidate = 0
        for start, end in taken:
            if candidate + count <= start:
                return candidate
            candidate = max(candidate, end)
        if candidate + count <= self.max_dag_id:
            return candidate
        return None

    # ------------------------------------------------------------------
    def assign(self, loaded: LoadedModule) -> DagRange:
        """Choose (and apply) a DAG range for a freshly loaded module.

        Rewrites the loaded code segment through the module's fixup
        table when the assigned base differs from the compiled default.
        """
        module = loaded.module
        if module.dag_base is None:
            raise ValueError(f"module {module.name!r} is not instrumented")
        checksum = module.checksum()

        previous = self.by_checksum.get(checksum)
        if previous is not None:
            # Same module as before: reuse its range (no id-space leak).
            self._apply(loaded, previous.base if not previous.bad else None)
            return previous

        count = module.dag_count
        base: int | None = None
        if self.dagbase is not None:
            base = self.dagbase.base_for(module.name)
            if base is not None and self._conflicts(base, count):
                base = None  # stale dagbase file: fall through
        if base is None:
            default = module.dag_base
            if default + count <= self.max_dag_id and not self._conflicts(
                default, count
            ):
                base = default
            else:
                base = self._first_fit(count)

        if base is None:
            rng = DagRange(
                base=BAD_DAG_ID, count=count, checksum=checksum,
                module_name=module.name, bad=True,
            )
            self.by_checksum[checksum] = rng
            self.bad_count += 1
            self._apply(loaded, None)
            return rng

        rng = DagRange(
            base=base, count=count, checksum=checksum, module_name=module.name
        )
        self.by_checksum[checksum] = rng
        if base != module.dag_base:
            self.rebase_count += 1
        self._apply(loaded, base)
        return rng

    # ------------------------------------------------------------------
    def _apply(self, loaded: LoadedModule, new_base: int | None) -> None:
        """Rewrite the loaded code's STDAG immediates.

        ``new_base`` of None means "use the bad DAG id everywhere".
        """
        module = loaded.module
        default = module.dag_base or 0
        if new_base == default:
            return  # compiled-in ids are already correct
        code_seg = loaded.segments[0]
        for offset in module.dag_fixups:
            instr = decode(code_seg.words[offset])
            if instr.op is not Op.STDAG:
                raise ValueError(
                    f"{module.name}: DAG fixup at {offset} is not STDAG"
                )
            if new_base is None:
                new_id = BAD_DAG_ID
            else:
                new_id = instr.imm - default + new_base
            code_seg.words[offset] = encode(instr.with_imm(new_id))


def rewrite_tls_slots(
    loaded: LoadedModule,
    trace_slot: int,
    spill_slot: int,
    compiled_trace_slot: int,
    compiled_spill_slot: int,
) -> int:
    """Rewrite probe TLS indices via the module's fixup table (§2.5).

    "If this TLS index is not available, the runtime rewrites all the
    TLS indices in the inline probes using a fixup table, in a fashion
    similar to the DAG rebasing."  Returns the number of rewritten
    instructions.
    """
    if (trace_slot, spill_slot) == (compiled_trace_slot, compiled_spill_slot):
        return 0
    code_seg = loaded.segments[0]
    mapping = {compiled_trace_slot: trace_slot, compiled_spill_slot: spill_slot}
    rewritten = 0
    for offset in loaded.module.tls_fixups:
        instr = decode(code_seg.words[offset])
        if instr.op not in (Op.TLSLD, Op.TLSST):
            raise ValueError(
                f"{loaded.module.name}: TLS fixup at {offset} is not a TLS op"
            )
        if instr.imm in mapping:
            code_seg.words[offset] = encode(instr.with_imm(mapping[instr.imm]))
            rewritten += 1
    return rewritten
