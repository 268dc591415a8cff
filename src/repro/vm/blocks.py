"""Tier-3 block-compiled execution engine for TBVM.

The reference interpreter (:meth:`repro.vm.machine.Machine.step`) pays
one decode lookup, one ~30-arm ``if/elif`` walk, and three counter
increments *per instruction*.  For straight-line code that overhead
dominates: a basic block's worth of ALU/memory traffic is a handful of
arithmetic operations wrapped in a dozen dispatch steps each.  This
module removes the per-instruction costs the way block-translating DBI
engines do — by fusing each straight-line run into a *unit*, one
compiled Python function:

* **registers live in locals** for the duration of the run (loaded from
  ``thread.regs`` once, written back once at the exit);
* **so do the memory's segment hit caches** (read and write, primary
  and victim, and the one-entry trace cache that probe traffic —
  ``ORM``, ``STDAG``, ``BSENT`` — goes through, so the trace buffer
  never evicts the guest's segments), so most loads and stores are an
  inline range check;
* **one clock/trace-counter update per unit** — ``machine.cycles``,
  ``process.cycles_used`` and ``thread.instructions`` are pre-charged
  with the unit's full instruction count in three additions;
* **inline terminators** — every non-fusible instruction is compiled
  into the function.  Branches, ``JMP``/``JTAB``/``BSENT``/``THROW``/
  ``CALL``/``RET`` are folded in, so a hot loop body is one table lookup
  + one call per iteration; ``SYS``/``CALLR``/``CALLX``/``HALT`` run
  *after* register write-back and call the runtime methods the reference
  engine uses (``Machine._syscall``, ``Machine._do_call``, the import's
  host callable, ``Process.exit_normally``), so syscalls, host calls,
  and the unwinder see ordinary architectural state;
* **inline probe helpers** — a unit ending in a ``CALL`` to code shaped
  like the probe helper (``TLSLD r,s; ADDI r,r,1; BSENT r; TLSST r,s;
  RET``, matched on the live decoded words) runs the helper's fast path
  in its whole run: the return address is stored as ``CALL`` stores
  it, ``r`` and TLS slot ``s`` get the bumped pointer, the five helper
  instructions are charged, and the run lands on the return point.  It
  leaves by the plain ``CALL`` (frame pushed, pc at the helper, whose
  own units then run) when the new slot holds the sentinel or is not in
  the trace cache, or the return-address store missed the write caches,
  which hold only readable segments, so a hit proves ``RET``'s reload.
  So the helper's own code runs on wraps, and a heavyweight probe no
  longer costs the two unit dispatches of the helper's fast path.

Every code word of a module belongs to exactly one unit, so the engine
never dispatches instruction by instruction.  A unit can be entered at
any of its instructions and stopped after any of them — a *partial
run*, compiled beside the whole-run function as ``part(machine, thread,
start, stop)``.  A slice that ends mid-unit stops with a partial run,
and the next slice of that thread starts with one.  Per-quantum slices
(several runnable threads, a replay recorder, replay's forced slices)
end wherever their quantum runs out, so they split a unit at most
boundaries.  A lone runnable thread's quanta run back to back in one
slice that runs a unit straddling a quantum boundary whole
(``Machine._run_slice_block``), so a single-threaded run splits units
only where it stops: at ``max_cycles``, a wake, or a change of runnable
threads.  Where units start is a performance choice, not a correctness
one: CFG leaders (``repro.analysis.cfg``) make branch targets, return
points and handler entries start whole units, and nothing else depends
on them.

Bit-identity with the reference interpreter is non-negotiable (the
differential suite in ``tests/vm/test_differential.py`` runs both
engines against each other).  The subtle cases:

* **faults inside a run** — every faultable operation passes its own
  absolute pc to its ``Memory`` slow path or ``_div``/``_mod``, so the
  recovery path reads the faulting index straight off ``VMFault.pc``:
  it writes the register locals back (instructions *before* the fault
  completed; partial side effects like ``PUSH``'s sp decrement persist,
  exactly as in the reference engine), restores ``thread.pc`` to the
  faulting instruction, and rolls the pre-charged counters back by the
  instructions that never ran.  The faulting instruction itself stays
  charged.  Partial runs roll back the same way.
* **slice boundaries** — a unit's table entry carries its *span*, the
  most instructions its whole run can retire (its length, plus five for
  an inlined probe call), and a whole run returns how many it retired.
  A slice retires exactly its quantum, because a unit whose span does
  not fit runs partially, and partial runs always keep the plain
  ``CALL``; replay's forced slices and ``chunk=1`` breakpoint stepping
  land on exact instruction boundaries.  A merged slice runs a unit
  through a boundary only where the scheduler would cross it: the unit
  ends by the slice's cycle horizon and the boundary falls in its fused
  part or the inlined helper, which charge one cycle per instruction
  and run no hooks.  It keeps counting quanta through the unit, so it
  stops on the boundary a per-quantum run would stop on.
* **code rewriting** — units are compiled from the *live* decode cache
  (``loaded.decoded``) and looked up by the code image it was decoded
  from, and ``LoadedModule.refresh_decode_cache`` drops the bound table,
  so DAG rebasing and TLS fixups bind freshly compiled units.

Compiled code depends only on the code base and the live code words, so
it is cached process-wide under that key (:data:`UNIT_CACHE`, an LRU
bounded by :data:`CACHE_UNITS` units).  A second load of the same image
— the next process running the same program, or a replay of it —
compiles nothing: it binds the cached code objects to its own memory
and import bindings in fresh globals.
"""

from __future__ import annotations

from collections import OrderedDict
from types import CodeType
from typing import TYPE_CHECKING, Callable

from repro.analysis.cfg import build_all_cfgs
from repro.isa.instructions import SP, Instr, Op
from repro.vm.errors import ExcCode, VMFault
from repro.vm.thread import SIGRET_RA, TLS_SLOTS, TRAMPOLINE_RA, Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.loader import LoadedModule

#: Longest unit emitted.  Any length is correct (a unit that does not
#: fit the rest of a slice runs partially).  A lone thread's merged
#: slices run units through quantum boundaries whole whatever their
#: length, but per-quantum slices (several runnable threads, recording,
#: replay) run a unit whole only if it fits the rest of the quantum: at
#: 20, two whole units fit the default QUANTUM=40.
MAX_UNIT = 20

#: Most compiled units :data:`UNIT_CACHE` holds.  A unit's code objects
#: retain about 7.5 KB (crash-triage's set-up: 723 units, 5.4 MB), so
#: the cache stays under ~16 MB; that workload is the largest binder.
CACHE_UNITS = 2048

_M = 0xFFFFFFFF
_H = 0x80000000

#: Cycles charged for a host-function CALLX when the host fn returns None.
HOST_CALL_COST = 25


# ----------------------------------------------------------------------
# ISA arithmetic both engines share (the reference interpreter imports
# these; compiled units call ``_div``/``_mod`` through their globals)
# ----------------------------------------------------------------------
def _s32(value: int) -> int:
    """Interpret a 32-bit word as signed."""
    value &= _M
    return value - (1 << 32) if value >= (1 << 31) else value


def _div(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise VMFault(ExcCode.DIVIDE_BY_ZERO, pc, "DIV")
    q = abs(_s32(a)) // abs(_s32(b))
    if (_s32(a) < 0) != (_s32(b) < 0):
        q = -q
    return q & _M


def _mod(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise VMFault(ExcCode.DIVIDE_BY_ZERO, pc, "MOD")
    sa = _s32(a)
    r = abs(sa) % abs(_s32(b))
    return (-r if sa < 0 else r) & _M

#: Straight-line opcodes a unit may fuse: they always fall through, read
#: no clock, and run no hooks (memory access has none).  Everything else
#: — including ``BSENT``, which can branch out mid-block — terminates
#: the unit.
FUSIBLE = frozenset(
    {
        Op.ADDI, Op.LDW, Op.STW, Op.MOVI, Op.MOV, Op.MOVHI,
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
        Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
        Op.SLT, Op.SLE, Op.SEQ, Op.SNE,
        Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.SLTI, Op.MULI,
        Op.PUSH, Op.POP, Op.NOP, Op.TLSLD, Op.TLSST,
        Op.ORM, Op.STDAG,
    }
)

_SIGNED_CMP = {Op.SLT: "<", Op.SLE: "<="}
_ALU_R_EXPR = {
    Op.ADD: "({a} + {b}) & 4294967295",
    Op.SUB: "({a} - {b}) & 4294967295",
    Op.MUL: "({a} * {b}) & 4294967295",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SHL: "({a} << ({b} & 31)) & 4294967295",
    Op.SHR: "({a} & 4294967295) >> ({b} & 31)",
    Op.SEQ: "1 if {a} == {b} else 0",
    Op.SNE: "1 if {a} != {b} else 0",
}


def _signed(expr: str) -> str:
    """An order-preserving unsigned image of the signed value: for
    32-bit ``x``, ``s32(a) < s32(b)`` iff ``(a^H) < (b^H)``."""
    return f"(({expr} & 4294967295) ^ 2147483648)"


#: The unit's local copies of the memory's segment hit caches, (re-)read
#: in the prologue and after every miss.  No host call (hence no
#: map/unmap) can happen mid-unit, so they stay valid for the whole run.
_READ_CACHES = (
    "    _rb, _re, _rw = _mem._read_hit",
    "    _qb, _qe, _qw = _mem._read_hit2",
)
_WRITE_CACHES = (
    "    _wb, _we, _ww = _mem._write_hit",
    "    _vb, _ve, _vw = _mem._write_hit2",
)
_TRACE_CACHE = "    _tb, _te, _tw = _mem._trace_hit"


def _load(dst: str, addr: str, pc: int, refresh: bool = True) -> list[str]:
    """``dst = mem[addr]`` through the unit's local copies of the memory's
    read hit caches (primary, then victim: ``(base, end, words)``), else
    through ``Memory.load`` — which faults exactly as the reference
    engine's loads do and refreshes the shared caches, re-read into the
    locals."""
    lines = [
        f"if _rb <= {addr} < _re:",
        f"    {dst} = _rw[{addr} - _rb]",
        f"elif _qb <= {addr} < _qe:",
        f"    {dst} = _qw[{addr} - _qb]",
        "else:",
        f"    {dst} = _ld({addr}, {pc})",
    ]
    return lines + list(_READ_CACHES) if refresh else lines


def _store(addr: str, value: str, slow: str, refresh: bool = True) -> list[str]:
    """``mem[addr] = value`` through the write hit caches, else the
    ``slow`` line (a ``Memory.store`` call); lines indented by four
    after these run on that slow path too."""
    lines = [
        f"if _wb <= {addr} < _we:",
        f"    _ww[{addr} - _wb] = {value}",
        f"elif _vb <= {addr} < _ve:",
        f"    _vw[{addr} - _vb] = {value}",
        "else:",
        f"    {slow}",
    ]
    return lines + list(_WRITE_CACHES) if refresh else lines


def _trace(hit: str, addr: str, slow: str, refresh: bool = True) -> list[str]:
    """``hit`` (naming the word at ``addr`` as ``{w}``) through the
    unit's local copy of the memory's trace hit cache, else the ``slow``
    trace call (``_tl``/``_ts``/``_to``), which faults exactly as
    ``load``/``store``/``or_word`` do and refreshes the shared entry,
    re-read into the locals.  The probe ops go this way, so the trace
    buffer never evicts the guest's segments from the other caches."""
    lines = [
        f"if _tb <= {addr} < _te:",
        f"    {hit.format(w=f'_tw[{addr} - _tb]')}",
        "else:",
        f"    {slow}",
    ]
    return lines + [_TRACE_CACHE] if refresh else lines


def _emit_fused(instr: Instr, pc: int) -> tuple[list[str], set[int], set[int]]:
    """Source lines for one fused instruction, plus its register
    read/write sets.  Mirrors its arm of ``Machine._exec`` exactly,
    including fault ordering (``PUSH`` moves sp before the store that
    may fault) and masking discipline."""
    op, rd, rs, rt, imm = instr.op, instr.rd, instr.rs, instr.rt, instr.imm
    if op is Op.ADDI:
        return [f"r{rd} = (r{rs} + {imm}) & 4294967295"], {rs}, {rd}
    if op is Op.LDW:
        return (
            [f"_a = (r{rs} + {imm}) & 4294967295", *_load(f"r{rd}", "_a", pc)],
            {rs}, {rd},
        )
    if op is Op.STW:
        return (
            [
                f"_a = (r{rs} + {imm}) & 4294967295",
                *_store("_a", f"r{rd} & 4294967295", f"_st(_a, r{rd}, {pc})"),
            ],
            {rs, rd}, set(),
        )
    if op is Op.MOVI:
        return [f"r{rd} = {imm & _M}"], set(), {rd}
    if op is Op.MOV:
        return [f"r{rd} = r{rs}"], {rs}, {rd}
    if op is Op.MOVHI:
        return [f"r{rd} = {(imm & 0xFFFF) << 16}"], set(), {rd}
    if op in _ALU_R_EXPR:
        expr = _ALU_R_EXPR[op].format(a=f"r{rs}", b=f"r{rt}")
        return [f"r{rd} = {expr}"], {rs, rt}, {rd}
    if op in _SIGNED_CMP:
        cmp = _SIGNED_CMP[op]
        cond = f"{_signed(f'r{rs}')} {cmp} {_signed(f'r{rt}')}"
        return [f"r{rd} = 1 if {cond} else 0"], {rs, rt}, {rd}
    if op is Op.DIV:
        return [f"r{rd} = _div(r{rs}, r{rt}, {pc})"], {rs, rt}, {rd}
    if op is Op.MOD:
        return [f"r{rd} = _mod(r{rs}, r{rt}, {pc})"], {rs, rt}, {rd}
    if op is Op.ANDI:
        return [f"r{rd} = r{rs} & {imm & 0xFFFF}"], {rs}, {rd}
    if op is Op.ORI:
        return [f"r{rd} = r{rs} | {imm & 0xFFFF}"], {rs}, {rd}
    if op is Op.XORI:
        return [f"r{rd} = r{rs} ^ {imm & 0xFFFF}"], {rs}, {rd}
    if op is Op.SHLI:
        return [f"r{rd} = (r{rs} << {imm & 31}) & 4294967295"], {rs}, {rd}
    if op is Op.SHRI:
        return [f"r{rd} = (r{rs} & 4294967295) >> {imm & 31}"], {rs}, {rd}
    if op is Op.SLTI:
        return (
            [f"r{rd} = 1 if {_signed(f'r{rs}')} < {imm + _H} else 0"],
            {rs}, {rd},
        )
    if op is Op.MULI:
        return [f"r{rd} = (r{rs} * {imm}) & 4294967295"], {rs}, {rd}
    if op is Op.PUSH:
        return (
            [
                "r12 = (r12 - 1) & 4294967295",
                *_store("r12", f"r{rd} & 4294967295", f"_st(r12, r{rd}, {pc})"),
            ],
            {rd, 12}, {12},
        )
    if op is Op.POP:
        # rd == 12 composes correctly: load into r12, then increment.
        return (
            [*_load(f"r{rd}", "r12", pc), "r12 = (r12 + 1) & 4294967295"],
            {12}, {rd, 12},
        )
    if op is Op.NOP:
        return [], set(), set()
    if op is Op.TLSLD:
        return [f"r{rd} = tls[{imm}]"], set(), {rd}
    if op is Op.TLSST:
        return [f"tls[{imm}] = r{rd}"], {rd}, set()
    if op is Op.ORM:
        bits = imm & 0xFFFF
        return (
            _trace(
                f"{{w}} = ({{w}} | {bits}) & 4294967295", f"r{rd}",
                f"_to(r{rd}, {bits}, {pc})",
            ),
            {rd}, set(),
        )
    if op is Op.STDAG:
        header = 0x80000000 | ((imm & 0xFFFFF) << 11)
        return (
            _trace(f"{{w}} = {header}", f"r{rd}", f"_ts(r{rd}, {header}, {pc})"),
            {rd}, set(),
        )
    raise AssertionError(f"non-fusible op {op!r} in fused run")


#: Fused opcodes that can raise VMFault (everything touching memory or
#: dividing).  Units without any of these skip the try/except entirely.
_FAULTABLE = frozenset(
    {Op.LDW, Op.STW, Op.PUSH, Op.POP, Op.ORM, Op.STDAG, Op.DIV, Op.MOD}
)


def _emit_terminator(instr: Instr, pc: int) -> tuple[list[str], set[int]]:
    """Source lines for a unit's terminator and its register reads.
    Every line runs after register write-back; the ones that can fault
    or call out first set ``thread.pc`` to the terminator, as the
    reference engine has it."""
    op, rd, rs, imm = instr.op, instr.rd, instr.rs, instr.imm
    nxt = pc + 1
    if op is Op.BR:
        return [f"thread.pc = {nxt + imm}"], set()
    if op is Op.BZ:
        return [f"thread.pc = {nxt + imm} if r{rd} == 0 else {nxt}"], {rd}
    if op is Op.BNZ:
        return [f"thread.pc = {nxt + imm} if r{rd} != 0 else {nxt}"], {rd}
    if op is Op.BEQ:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} == r{rs} else {nxt}"],
            {rd, rs},
        )
    if op is Op.BNE:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} != r{rs} else {nxt}"],
            {rd, rs},
        )
    if op is Op.BLT:
        cond = f"{_signed(f'r{rd}')} < {_signed(f'r{rs}')}"
        return [f"thread.pc = {nxt + imm} if {cond} else {nxt}"], {rd, rs}
    if op is Op.BGE:
        cond = f"{_signed(f'r{rd}')} >= {_signed(f'r{rs}')}"
        return [f"thread.pc = {nxt + imm} if {cond} else {nxt}"], {rd, rs}
    if op is Op.JMP:
        return [f"thread.pc = r{rd}"], {rd}
    if op is Op.JTAB:
        # The table load may fault: thread.pc must already point at the
        # terminator, and the unit is fully charged (it is the last
        # instruction), so the raise propagates with no rollback.
        return (
            [
                f"thread.pc = {pc}",
                f"_a = (r{rs} + r{rd}) & 4294967295",
                *_load("thread.pc", "_a", pc, refresh=False),
            ],
            {rd, rs},
        )
    if op is Op.BSENT:
        return (
            [
                f"thread.pc = {pc}",
                *_trace(
                    "_a = {w}", f"r{rd}", f"_a = _tl(r{rd}, {pc})", refresh=False
                ),
                f"thread.pc = {nxt + imm} if _a == 4294967295 else {nxt}",
            ],
            {rd},
        )
    if op is Op.THROW:
        return [f"thread.pc = {pc}", f"raise _F(r{rd}, {pc}, 'THROW')"], {rd}
    if op is Op.CALL:
        # Mirrors Machine._do_call: sp moves before the store that may
        # fault (partial effect persists), the frame is pushed only on
        # success.  Runs on regs directly.
        target = nxt + imm
        return (
            [
                f"thread.pc = {pc}",
                "_sp = (regs[12] - 1) & 4294967295",
                "regs[12] = _sp",
                *_store("_sp", str(nxt), f"_st(_sp, {nxt}, {pc})", refresh=False),
                "thread.frames.append("
                f"_Fr(entry_pc={target}, return_pc={nxt}, entry_sp=_sp))",
                f"thread.pc = {target}",
            ],
            set(),
        )
    if op is Op.CALLR:
        return (
            [f"thread.pc = {pc}", f"machine._do_call(thread, _mem, r{rd}, {pc})"],
            {rd},
        )
    if op is Op.CALLX:
        # The binding is per load (host callables are per process), so
        # it is read from the bound globals, never compiled in.
        return (
            [
                f"thread.pc = {pc}",
                f"_b = _imports[{imm}]",
                "if callable(_b):",
                "    _c = _b(thread)",
                f"    machine.cycles += {HOST_CALL_COST} if _c is None else _c",
                f"    thread.pc = {nxt}",
                "else:",
                f"    machine._do_call(thread, _mem, _b, {pc})",
            ],
            set(),
        )
    if op is Op.RET:
        return (
            [
                f"thread.pc = {pc}",
                "_a = regs[12]",
                *_load("_ra", "_a", pc, refresh=False),
                "regs[12] = (_a + 1) & 4294967295",
                "if thread.frames:",
                "    thread.frames.pop()",
                f"if _ra == {TRAMPOLINE_RA}:",
                "    thread.process.thread_finished(thread, regs[0])",
                f"elif _ra == {SIGRET_RA}:",
                "    _sig = getattr(thread, 'current_signum', 0)",
                "    thread.process.hooks.signal_return(thread, _sig)",
                "    assert thread.interrupted_pc is not None",
                "    thread.pc = thread.interrupted_pc",
                "    thread.interrupted_pc = None",
                "else:",
                "    thread.pc = _ra",
            ],
            set(),
        )
    if op is Op.SYS:
        # Machine._syscall moves the pc past the SYS itself, unless the
        # call ended the thread or faulted.
        return (
            [f"thread.pc = {pc}", f"machine._syscall(thread, process, {imm})"],
            set(),
        )
    if op is Op.HALT:
        return [f"thread.pc = {pc}", "process.exit_normally(r0)"], {0}
    raise AssertionError(f"no terminator emitter for {op!r}")


#: Instructions of the probe helper's fast path (``TLSLD``, ``ADDI``,
#: ``BSENT``, ``TLSST``, ``RET``), which an inlined probe call retires
#: beside its own unit's.
HELPER_FAST = 5


def _probe_helper(decoded: list[Instr], call: int, code_base: int):
    """``(r, s)`` when the ``CALL`` at offset ``call`` enters code shaped
    like :func:`repro.instrument.probes.helper_body`'s fast path —
    ``TLSLD r,s; ADDI r,r,1; BSENT r; TLSST r,s; RET`` — in the live
    decoded words, else None.  ``r`` is not sp (which ``CALL`` and
    ``RET`` move), ``s`` names a TLS slot, and the return address is no
    sentinel ``RET`` would act on, so the fast path inlines exactly."""
    at = call + 1 + decoded[call].imm
    if not 0 <= at <= len(decoded) - HELPER_FAST or code_base + call + 1 in (
        TRAMPOLINE_RA, SIGRET_RA
    ):
        return None
    load, bump, check, save, ret = decoded[at : at + HELPER_FAST]
    r, slot = load.rd, load.imm
    if (
        load.op is Op.TLSLD and r != SP and 0 <= slot < TLS_SLOTS
        and bump.op is Op.ADDI and bump.rd == bump.rs == r and bump.imm == 1
        and check.op is Op.BSENT and check.rd == r
        and save.op is Op.TLSST and save.rd == r and save.imm == slot
        and ret.op is Op.RET
    ):
        return r, slot
    return None


def _emit_probe_call(
    instr: Instr, pc: int, helper: tuple[int, int], count: int
) -> list[str]:
    """A whole run's ``CALL`` to the probe helper, its fast path inline.

    The return address is stored as ``CALL`` stores it.  When that store
    hits a write cache (whose segments are readable too, so the helper's
    ``RET`` reloads it without a fault) and the bumped trace pointer hits
    the trace cache on a word that is not the sentinel, the helper's five
    instructions retire here: ``r`` and TLS slot ``s`` hold the bumped
    pointer, sp is back, and the run lands on the return point.  Else it
    leaves by the plain ``CALL`` — frame pushed, pc at the helper, whose
    own units then run: the wrap, a fault, or a trace buffer not cached
    yet."""
    r, slot = helper
    nxt = pc + 1
    target = nxt + instr.imm
    return [
        "_sp = (regs[12] - 1) & 4294967295",
        "regs[12] = _sp",
        *_store("_sp", str(nxt), f"thread.pc = {pc}", refresh=False),
        f"    _st(_sp, {nxt}, {pc})",
        "    _te = 0  # no cache proved the reload: take the plain CALL",
        f"_a = (tls[{slot}] + 1) & 4294967295",
        "if _tb <= _a < _te and _tw[_a - _tb] != 4294967295:",
        f"    tls[{slot}] = regs[{r}] = _a",
        "    regs[12] = (_sp + 1) & 4294967295",
        f"    machine.cycles += {HELPER_FAST}",
        f"    process.cycles_used += {HELPER_FAST}",
        f"    thread.instructions += {HELPER_FAST}",
        f"    thread.pc = {nxt}",
        f"    return {count + HELPER_FAST}",
        "thread.frames.append("
        f"_Fr(entry_pc={target}, return_pc={nxt}, entry_sp=_sp))",
        f"thread.pc = {target}",
    ]


#: A bound unit, shared by every table slot it covers: (module-relative
#: start offset, instruction count, span — the most instructions its
#: whole run can retire: the count, plus :data:`HELPER_FAST` for an
#: inlined probe call —, whole-run function ``fn(machine, thread)``,
#: which returns the instructions it retired, partial-run function
#: ``fn(machine, thread, start, stop)`` or None for a span of one,
#: which always runs whole).
Unit = tuple[int, int, int, Callable, "Callable | None"]


def _unit_source(
    offset: int,
    instrs: list[Instr],
    base_pc: int,
    helper: tuple[int, int] | None = None,
) -> str:
    """Source of one unit's whole-run function (``_u<offset>``) and, when
    that can retire more than one instruction, its partial-run function
    (``_p<offset>``).  With a ``helper`` (:func:`_probe_helper`) the
    whole run inlines the helper's fast path at its ``CALL``; partial
    runs keep the plain ``CALL``."""
    count = len(instrs)
    fused = instrs if instrs[-1].op in FUSIBLE else instrs[:-1]
    term = instrs[-1] if len(fused) != count else None

    bodies: list[list[str]] = []
    touched: set[int] = set()
    writes: set[int] = set()
    faultable = False
    for k, instr in enumerate(fused):
        lines, r, w = _emit_fused(instr, base_pc + k)
        bodies.append(lines)
        touched |= r | w
        writes |= w
        faultable = faultable or instr.op in _FAULTABLE
    flat = [line for lines in bodies for line in lines]

    exit_part = exit_whole = [f"thread.pc = {base_pc + count}"]
    if term is not None:
        term_pc = base_pc + len(fused)
        exit_part, term_reads = _emit_terminator(term, term_pc)
        touched |= term_reads
        exit_whole = exit_part
        if helper is not None:
            exit_whole = _emit_probe_call(term, term_pc, helper, count)

    def prologue(lines: list[str]) -> list[str]:
        """Load what ``lines`` use.  Every touched register is loaded,
        so the fault path can write all of them back whichever
        instruction faulted."""
        out = ["    process = thread.process"]
        if touched or any("regs[" in line for line in lines):
            out.append("    regs = thread.regs")
        if any("tls[" in line for line in lines):
            out.append("    tls = thread.tls")
        out.extend(f"    r{r} = regs[{r}]" for r in sorted(touched))
        for marker, caches in (
            ("_rb", _READ_CACHES), ("_wb", _WRITE_CACHES), ("_tb", [_TRACE_CACHE])
        ):
            if any(marker in line for line in lines):
                out.extend(caches)
        return out

    writeback = [f"regs[{r}] = r{r}" for r in sorted(writes)]

    def charged(n: str, body: list[str], last: str) -> list[str]:
        """Pre-charge ``n`` instructions around ``body``; on a fault,
        un-charge those after the faulting pc up to the ``last`` one."""
        out = [
            f"    machine.cycles += {n}",
            f"    process.cycles_used += {n}",
            f"    thread.instructions += {n}",
        ]
        if not faultable:
            return out + [f"    {line}" for line in body]
        out.append("    try:")
        out.extend(f"        {line}" for line in body)
        out.append("    except _F as _x:")
        out.extend(f"        {line}" for line in writeback)
        # VMFault.pc identifies the faulting index: restore the pc and
        # un-charge the instructions that never ran.
        out.append("        thread.pc = _x.pc")
        out.append(f"        _n = {last} - _x.pc")
        out.append("        machine.cycles -= _n")
        out.append("        process.cycles_used -= _n")
        out.append("        thread.instructions -= _n")
        out.append("        raise")
        return out

    src = [f"def _u{offset}(machine, thread):", *prologue(flat + exit_whole)]
    src += charged(str(count), flat, str(base_pc + count - 1))
    src.extend(f"    {line}" for line in writeback)
    src.extend(f"    {line}" for line in exit_whole)
    src.append(f"    return {count}")
    if count == 1 and helper is None:
        return "\n".join(src)

    # The partial run executes instructions [s, e): each fused
    # instruction is guarded by its index, and the single-pass loop
    # breaks out after instruction e - 1.
    steps = ["while 1:"]
    for k, lines in enumerate(bodies):
        steps.append(f"    if s <= {k}:")
        steps.extend(f"        {line}" for line in lines or ["pass"])
        if k < len(bodies) - 1:
            steps.append(f"        if e == {k + 1}: break")
    steps.append("    break")
    src += ["", f"def _p{offset}(machine, thread, s, e):", *prologue(flat + exit_part)]
    src.append("    _n = e - s")
    src += charged("_n", steps, f"{base_pc - 1} + e")
    src.extend(f"    {line}" for line in writeback)
    if term is None:
        src.append(f"    thread.pc = {base_pc} + e")
    else:
        src.append(f"    if e < {count}:")
        src.append(f"        thread.pc = {base_pc} + e")
        src.append("        return")
        src.extend(f"    {line}" for line in exit_part)
    return "\n".join(src)


#: The compiled units of one code image, in code order: (offset,
#: instruction count, span, the code object defining the unit's
#: functions).
Image = list[tuple[int, int, int, CodeType]]


def _leaders(module) -> set[int]:
    """Offsets where whole units start: every CFG block start."""
    try:
        cfgs = build_all_cfgs(module)
    except Exception:
        # A static image that defeats CFG recovery still runs compiled:
        # its units just start wherever the previous one ended.
        return set()
    return {start for cfg in cfgs.values() for start in cfg.blocks}


def _compile_image(loaded: "LoadedModule") -> Image:
    """Split the live decode cache into units and compile them.

    Units cover every code word: a unit ends after a non-fusible
    instruction (its terminator), before a leader, or at
    :data:`MAX_UNIT` instructions.  Each unit is compiled on its own:
    the compiler's transient memory grows with its input (about 1 MB per
    unit), so one ``compile()`` per module would peak at over 10 MB for
    a 250-word kernel.
    """
    decoded = loaded.decoded
    leaders = _leaders(loaded.module)
    name = f"<units:{loaded.module.name}>"
    image: Image = []
    limit = len(decoded)
    offset = 0
    while offset < limit:
        scan = offset
        while True:
            op = decoded[scan].op
            scan += 1
            if (
                op not in FUSIBLE
                or scan >= limit
                or scan - offset >= MAX_UNIT
                or scan in leaders
            ):
                break
        helper = None
        if decoded[scan - 1].op is Op.CALL:
            helper = _probe_helper(decoded, scan - 1, loaded.code_base)
        source = _unit_source(
            offset, decoded[offset:scan], loaded.code_base + offset, helper
        )
        count = scan - offset
        span = count if helper is None else count + HELPER_FAST
        image.append((offset, count, span, compile(source, name, "exec")))
        offset = scan
    return image


class UnitCache:
    """Process-wide LRU of compiled code images.

    Keyed by :attr:`LoadedModule.image_key` — the code base plus the
    code words the decode cache was built from — because that is all
    compiled code depends on.  Holds at most :data:`CACHE_UNITS` units,
    evicting least recently bound images first (the image just compiled
    always stays).
    """

    def __init__(self) -> None:
        self._images: OrderedDict[tuple, Image] = OrderedDict()
        #: Units currently held.
        self.units = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._images)

    def image(self, loaded: "LoadedModule") -> Image:
        """The compiled image of ``loaded``, compiling it on a miss."""
        key = loaded.image_key
        image = self._images.get(key)
        if image is not None:
            self._images.move_to_end(key)
            self.hits += 1
            return image
        self.misses += 1
        image = _compile_image(loaded)
        self._images[key] = image
        self.units += len(image)
        while self.units > CACHE_UNITS and len(self._images) > 1:
            _, old = self._images.popitem(last=False)
            self.units -= len(old)
            self.evictions += 1
        return image


#: The one unit cache every Machine shares.
UNIT_CACHE = UnitCache()


def bind_units(loaded: "LoadedModule") -> list[Unit]:
    """Bind ``loaded``'s compiled units and store the table on it.

    The table is parallel to ``loaded.decoded``: slot ``i`` holds the
    :data:`Unit` covering code offset ``i``.  The cached code objects
    run in fresh globals holding this load's memory and import
    bindings, so no two loads share state.
    """
    image = UNIT_CACHE.image(loaded)
    memory = loaded.memory
    glb: dict = {
        "_mem": memory,
        "_imports": loaded.import_bindings,
        "_ld": memory.load,
        "_st": memory.store,
        "_tl": memory.trace_load,
        "_ts": memory.trace_store,
        "_to": memory.trace_or,
        "_div": _div,
        "_mod": _mod,
        "_F": VMFault,
        "_Fr": Frame,
    }
    table: list[Unit] = []
    for off, count, span, code in image:
        exec(code, glb)
        # Popped, so the functions' globals do not refer back to them.
        unit = (off, count, span, glb.pop(f"_u{off}"), glb.pop(f"_p{off}", None))
        table += [unit] * count
    loaded.block_table = table
    return table
