"""Tier-3 block-compiled execution engine for TBVM.

Per-instruction dispatch (:mod:`repro.vm.dispatch`) pays one Python
call, one handler fetch, and three counter increments *per
instruction*.  For straight-line code that overhead dominates: a basic
block's worth of ALU/memory traffic is a handful of arithmetic
operations wrapped in a dozen dispatch steps each.  This module removes
the per-instruction costs the way block-translating DBI engines do — by
fusing each straight-line run into a *unit*, one compiled Python
function:

* **registers live in locals** for the duration of the run (loaded from
  ``thread.regs`` once, written back once at the exit);
* **so do the memory's segment hit caches** (read and write, primary
  and victim), so most loads and stores are an inline range check;
* **one clock/trace-counter update per unit** — ``machine.cycles``,
  ``process.cycles_used`` and ``thread.instructions`` are pre-charged
  with the unit's full instruction count in three additions;
* **inline terminators** — conditional branches, ``BR``/``JMP``/
  ``JTAB``/``BSENT``/``THROW``/``CALL``/``RET`` are folded into the
  function, so a hot loop body is one table lookup + one call per
  iteration;
* **handler terminators** — ``SYS``/``CALLR``/``CALLX``/``HALT`` call
  the tier-2 predecoded handler *after* register write-back, so
  syscalls, host calls, and the unwinder see ordinary architectural
  state.

Every code word of a module belongs to exactly one unit, so the engine
never dispatches instruction by instruction.  A unit can be entered at
any of its instructions and stopped after any of them — a *partial
run*, compiled beside the whole-run function as ``part(machine, thread,
start, stop)``.  Scheduler slices end wherever their quantum runs out,
so the next slice usually starts mid-unit; it runs the rest of that unit
as a partial run, and a unit longer than the remaining quantum runs only
its first instructions the same way.  Where units start is a
performance choice, not a correctness one: CFG leaders
(``repro.analysis.cfg``) make branch targets, return points and handler
entries start whole units, and nothing else depends on them.

Bit-identity with the reference interpreter is non-negotiable (the
differential suite in ``tests/vm/test_differential.py`` runs both tiers
against each other).  The subtle cases:

* **faults inside a run** — every faultable operation passes its own
  absolute pc to ``load``/``store``/``_div``, so the recovery path reads
  the faulting index straight off ``VMFault.pc``: it writes the register
  locals back (instructions *before* the fault completed; partial side
  effects like ``PUSH``'s sp decrement persist, exactly as in the
  reference engine), restores ``thread.pc`` to the faulting
  instruction, and rolls the pre-charged counters back by the
  instructions that never ran.  The faulting instruction itself stays
  charged.  Partial runs roll back the same way.
* **slice boundaries** — a slice retires exactly its quantum, because a
  unit that does not fit runs partially; replay's forced slices and
  ``chunk=1`` breakpoint stepping land on exact instruction boundaries.
* **code rewriting** — units are compiled from the *live* decode cache
  (``loaded.decoded``) and looked up by the code image it was decoded
  from, and ``LoadedModule.refresh_decode_cache`` drops the bound table,
  so DAG rebasing and TLS fixups bind freshly compiled units.

Compiled code depends only on the code base and the live code words, so
it is cached process-wide under that key (:data:`UNIT_CACHE`, an LRU
bounded by :data:`CACHE_UNITS` units).  A second load of the same image
— the next process running the same program, or a replay of it —
compiles nothing: it binds the cached code objects to its own memory
and tier-2 handlers in fresh globals.
"""

from __future__ import annotations

from collections import OrderedDict
from types import CodeType
from typing import TYPE_CHECKING, Callable

from repro.analysis.cfg import build_all_cfgs
from repro.isa.instructions import Instr, Op
from repro.vm.dispatch import _div, _mod
from repro.vm.errors import VMFault
from repro.vm.thread import SIGRET_RA, TRAMPOLINE_RA, Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.loader import LoadedModule

#: Longest unit emitted.  Any length is correct (a unit that does not
#: fit the rest of a slice runs partially); at 20, two whole units fit
#: the default QUANTUM=40.
MAX_UNIT = 20

#: Most compiled units :data:`UNIT_CACHE` holds.  A unit's code objects
#: retain about 7 KB, so the cache stays under ~15 MB; the largest
#: benchmark workload (crash-triage) binds ~720 units.
CACHE_UNITS = 2048

_M = 0xFFFFFFFF
_H = 0x80000000

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


def _load(dst: str, addr: str, pc: int, refresh: bool = True) -> list[str]:
    """``dst = mem[addr]`` through the unit's local copies of the memory's
    read hit caches (primary, then victim: ``(base, end, words)``), else
    through ``Memory.load`` — which faults exactly as tier 2 does and
    refreshes the shared caches, re-read into the locals."""
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
    ``slow`` Memory call (``_st``/``_om``); ``value`` may name the old
    word as ``{w}``."""
    lines = [
        f"if _wb <= {addr} < _we:",
        f"    _ww[{addr} - _wb] = {value.format(w=f'_ww[{addr} - _wb]')}",
        f"elif _vb <= {addr} < _ve:",
        f"    _vw[{addr} - _vb] = {value.format(w=f'_vw[{addr} - _vb]')}",
        "else:",
        f"    {slow}",
    ]
    return lines + list(_WRITE_CACHES) if refresh else lines


def _emit_fused(instr: Instr, pc: int) -> tuple[list[str], set[int], set[int]]:
    """Source lines for one fused instruction, plus its register
    read/write sets.  Mirrors :func:`repro.vm.dispatch._build_one`
    exactly, including fault ordering (``PUSH`` moves sp before the
    store that may fault) and masking discipline."""
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
            _store(
                f"r{rd}", f"({{w}} | {bits}) & 4294967295",
                f"_om(r{rd}, {bits}, {pc})",
            ),
            {rd}, set(),
        )
    if op is Op.STDAG:
        header = 0x80000000 | ((imm & 0xFFFFF) << 11)
        return (
            _store(f"r{rd}", str(header), f"_st(r{rd}, {header}, {pc})"),
            {rd}, set(),
        )
    raise AssertionError(f"non-fusible op {op!r} in fused run")


#: Fused opcodes that can raise VMFault (everything touching memory or
#: dividing).  Units without any of these skip the try/except entirely.
_FAULTABLE = frozenset(
    {Op.LDW, Op.STW, Op.PUSH, Op.POP, Op.ORM, Op.STDAG, Op.DIV, Op.MOD}
)


def _emit_terminator(
    instr: Instr, pc: int
) -> tuple[list[str], set[int], bool, bool]:
    """Source lines for an inline terminator, its register reads,
    whether it could be inlined (``False`` = use the tier-2 handler),
    and whether the lines touch ``regs`` directly."""
    op, rd, rs, imm = instr.op, instr.rd, instr.rs, instr.imm
    nxt = pc + 1
    if op is Op.BR:
        return [f"thread.pc = {nxt + imm}"], set(), True, False
    if op is Op.BZ:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} == 0 else {nxt}"],
            {rd}, True, False,
        )
    if op is Op.BNZ:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} != 0 else {nxt}"],
            {rd}, True, False,
        )
    if op is Op.BEQ:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} == r{rs} else {nxt}"],
            {rd, rs}, True, False,
        )
    if op is Op.BNE:
        return (
            [f"thread.pc = {nxt + imm} if r{rd} != r{rs} else {nxt}"],
            {rd, rs}, True, False,
        )
    if op is Op.BLT:
        cond = f"{_signed(f'r{rd}')} < {_signed(f'r{rs}')}"
        return (
            [f"thread.pc = {nxt + imm} if {cond} else {nxt}"],
            {rd, rs}, True, False,
        )
    if op is Op.BGE:
        cond = f"{_signed(f'r{rd}')} >= {_signed(f'r{rs}')}"
        return (
            [f"thread.pc = {nxt + imm} if {cond} else {nxt}"],
            {rd, rs}, True, False,
        )
    if op is Op.JMP:
        return [f"thread.pc = r{rd}"], {rd}, True, False
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
            {rd, rs}, True, False,
        )
    if op is Op.BSENT:
        return (
            [
                f"thread.pc = {pc}",
                *_load("_a", f"r{rd}", pc, refresh=False),
                f"thread.pc = {nxt + imm} if _a == 4294967295 else {nxt}",
            ],
            {rd}, True, False,
        )
    if op is Op.THROW:
        return (
            [
                f"thread.pc = {pc}",
                f"raise _F(r{rd}, {pc}, 'THROW')",
            ],
            {rd}, True, False,
        )
    if op is Op.CALL:
        # Mirrors the tier-2 handler exactly: sp moves before the store
        # that may fault (partial effect persists), the frame is pushed
        # only on success.  Runs after write-back, on regs directly.
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
            set(), True, True,
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
            set(), True, True,
        )
    return [], set(), False, False


#: A bound unit, shared by every table slot it covers: (module-relative
#: start offset, instruction count, whole-run function
#: ``fn(machine, thread)``, partial-run function
#: ``fn(machine, thread, start, stop)`` or None for one-instruction
#: units, which always run whole).
Unit = tuple[int, int, Callable, "Callable | None"]


def _unit_source(
    offset: int, instrs: list[Instr], base_pc: int
) -> tuple[str, int]:
    """Source of one unit's whole-run function (``_u<offset>``) and, for
    units longer than one instruction, its partial-run function
    (``_p<offset>``); plus the offset of the handler terminator the
    functions call as ``_h<offset>``, or -1."""
    count = len(instrs)
    fused = instrs if instrs[-1].op in FUSIBLE else instrs[:-1]
    term = instrs[-1] if len(fused) != count else None

    bodies: list[list[str]] = []
    touched: set[int] = set()
    writes: set[int] = set()
    uses_tls = False
    faultable = False
    for k, instr in enumerate(fused):
        lines, r, w = _emit_fused(instr, base_pc + k)
        bodies.append(lines)
        touched |= r | w
        writes |= w
        uses_tls = uses_tls or instr.op in (Op.TLSLD, Op.TLSST)
        faultable = faultable or instr.op in _FAULTABLE

    term_lines: list[str] = []
    term_regs = False
    hoff = -1
    if term is not None:
        term_pc = base_pc + len(fused)
        lines, term_reads, inline, term_regs = _emit_terminator(term, term_pc)
        if inline:
            term_lines = lines
            touched |= term_reads
        else:
            hoff = offset + len(fused)
            term_lines = [f"thread.pc = {term_pc}", f"_h{hoff}(machine, thread)"]

    # Every touched register is loaded, so the fault path can write all
    # of them back whichever instruction faulted.
    prologue = ["    process = thread.process"]
    if touched or term_regs:
        prologue.append("    regs = thread.regs")
    if uses_tls:
        prologue.append("    tls = thread.tls")
    prologue.extend(f"    r{r} = regs[{r}]" for r in sorted(touched))
    flat = [line for lines in bodies for line in lines]
    if any("_rb" in line for line in flat + term_lines):
        prologue.extend(_READ_CACHES)
    if any("_wb" in line for line in flat + term_lines):
        prologue.extend(_WRITE_CACHES)
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

    src = [f"def _u{offset}(machine, thread):", *prologue]
    src += charged(str(count), flat, str(base_pc + count - 1))
    src.extend(f"    {line}" for line in writeback)
    if term is None:
        src.append(f"    thread.pc = {base_pc + count}")
    else:
        src.extend(f"    {line}" for line in term_lines)
    if count == 1:
        return "\n".join(src), hoff

    # The partial run executes instructions [s, e): each fused
    # instruction is guarded by its index, and the single-pass loop
    # breaks out after instruction e - 1.
    steps = ["while 1:"]
    for k, lines in enumerate(bodies):
        steps.append(f"    if s <= {k}:")
        steps.extend(f"        {line}" for line in lines)
        if k < len(bodies) - 1:
            steps.append(f"        if e == {k + 1}: break")
    steps.append("    break")
    src += ["", f"def _p{offset}(machine, thread, s, e):", *prologue]
    src.append("    _n = e - s")
    src += charged("_n", steps, f"{base_pc - 1} + e")
    src.extend(f"    {line}" for line in writeback)
    if term is None:
        src.append(f"    thread.pc = {base_pc} + e")
    else:
        src.append(f"    if e < {count}:")
        src.append(f"        thread.pc = {base_pc} + e")
        src.append("        return")
        src.extend(f"    {line}" for line in term_lines)
    return "\n".join(src), hoff


#: The compiled units of one code image, in code order: (offset,
#: instruction count, offset of the handler terminator or -1, the code
#: object defining the unit's functions).
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
        source, hoff = _unit_source(
            offset, decoded[offset:scan], loaded.code_base + offset
        )
        image.append((offset, scan - offset, hoff, compile(source, name, "exec")))
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
    run in fresh globals holding this load's memory and tier-2
    handlers, so no two loads share state.
    """
    image = UNIT_CACHE.image(loaded)
    memory = loaded.memory
    handlers = loaded.handlers
    glb: dict = {
        "_mem": memory,
        "_ld": memory.load,
        "_st": memory.store,
        "_om": memory.or_word,
        "_div": _div,
        "_mod": _mod,
        "_F": VMFault,
        "_Fr": Frame,
    }
    table: list[Unit] = []
    for off, count, hoff, code in image:
        if hoff >= 0:
            glb[f"_h{hoff}"] = handlers[hoff]
        exec(code, glb)
        # Popped, so the functions' globals do not refer back to them.
        unit = (off, count, glb.pop(f"_u{off}"), glb.pop(f"_p{off}", None))
        table += [unit] * count
    loaded.block_table = table
    return table
