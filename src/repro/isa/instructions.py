"""Instruction set definition for the TBVM virtual architecture.

TBVM is the 32-bit RISC-like instruction set that stands in for the x86 /
SPARC machine code instrumented by the original TraceBack system.  Every
instruction encodes into exactly one 32-bit word, which keeps binary
rewriting honest: the instrumenter must re-encode code, fix up
pc-relative branch offsets that moved, and never confuse code for data.

Registers
---------
There are 16 word-sized registers.  ``r0`` .. ``r11`` are general
purpose; ``sp`` (= ``r12``) is the stack pointer.  Registers ``r13`` and
``r15`` are reserved for future use, and ``r14`` is conventionally the
assembler temporary.  By software convention, arguments are passed in
``r0`` .. ``r5``, the result is returned in ``r0``, and all registers are
caller-saved.  The TraceBack probe register is ``r11`` (the analog of
``EAX`` in the paper's x86 probes): probe code uses it freely, spilling
and restoring it via a TLS scratch slot when liveness analysis says it is
live across the probe site.

Encodings
---------
All instructions are one word.  The generic field layout is::

    bits 31..24   opcode
    bits 23..20   rd
    bits 19..16   rs
    bits 15..12   rt           (R-type only)
    bits 15..0    imm16        (I-type; signed unless noted)
    bits 19..0    imm20        (STDAG only; unsigned)

Branch and call offsets are *word* offsets relative to the address of the
following instruction (``target = pc + 1 + offset``).

Probe-support instructions
--------------------------
The original probes exploit x86 CISC memory operands (``or [eax], 2``,
``cmp [eax], -1``).  TBVM is a RISC load/store machine, so three fused
opcodes exist purely so the instrumented probe sequences have the same
shape and dynamic cost as the paper's:

``ORM rd, imm16``
    ``mem[rd] |= zero_extend(imm16)`` — the lightweight probe body.
``STDAG rd, imm20``
    ``mem[rd] = 0x80000000 | (imm20 << 11)`` — writes a DAG header trace
    record in one instruction, mirroring x86's 32-bit store-immediate.
``BSENT rd, off``
    branch if ``mem[rd] == 0xFFFFFFFF`` — the sentinel check inside the
    heavyweight-probe helper subroutine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Number of architectural registers.
NUM_REGS = 16

#: Index of the stack pointer register.
SP = 12

#: Index of the assembler-temporary register.
AT = 14

#: Index of the register probes are written against (the "EAX" of TBVM).
PROBE_REG = 11

#: Word size of immediate fields.
IMM16_MIN = -(1 << 15)
IMM16_MAX = (1 << 15) - 1
IMM20_MAX = (1 << 20) - 1

#: Mask for 32-bit word arithmetic.
WORD_MASK = 0xFFFFFFFF


class Fmt(enum.Enum):
    """Operand format of an opcode, used by the encoder and disassembler."""

    R3 = "rd, rs, rt"  # three-register ALU op
    R2 = "rd, rs"  # two-register op (MOV, JTAB)
    R1 = "rd"  # single register (PUSH, POP, JMP, CALLR, THROW)
    RI = "rd, imm16"  # register + 16-bit immediate
    RRI = "rd, rs, imm16"  # two registers + 16-bit immediate
    I16 = "imm16"  # bare immediate (BR, CALL, SYS)
    RI20 = "rd, imm20"  # STDAG
    RB = "rd, off16"  # register + branch offset (BZ, BNZ, BSENT)
    RRB = "rd, rs, off16"  # compare-and-branch (BEQ, BNE, BLT, BGE)
    NONE = ""  # no operands (RET, HALT, NOP)


class Op(enum.IntEnum):
    """TBVM opcodes.

    The numeric values are part of the binary format: they are what
    :mod:`repro.isa.encoding` writes into bits 31..24 of each word, and
    changing them invalidates every encoded module and checksum.
    """

    # ALU, register-register.
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04  # traps with DivideByZero fault when rt == 0
    MOD = 0x05  # traps with DivideByZero fault when rt == 0
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    SHL = 0x09
    SHR = 0x0A
    SLT = 0x0B  # rd = (rs < rt) signed
    SLE = 0x0C
    SEQ = 0x0D
    SNE = 0x0E

    # ALU, register-immediate.
    ADDI = 0x10
    ANDI = 0x11
    ORI = 0x12  # zero-extended immediate
    XORI = 0x13
    SHLI = 0x14
    SHRI = 0x15
    SLTI = 0x16
    MULI = 0x17

    # Data movement.
    MOVI = 0x18  # rd = sign_extend(imm16)
    MOVHI = 0x19  # rd = imm16 << 16 (zero-extended immediate)
    MOV = 0x1A  # rd = rs

    # Memory.
    LDW = 0x20  # rd = mem[rs + imm16]
    STW = 0x21  # mem[rs + imm16] = rd
    PUSH = 0x22  # sp -= 1; mem[sp] = rd
    POP = 0x23  # rd = mem[sp]; sp += 1

    # Control flow.
    BR = 0x30  # unconditional pc-relative branch
    BZ = 0x31  # branch if rd == 0
    BNZ = 0x32  # branch if rd != 0
    BEQ = 0x33  # branch if rd == rs
    BNE = 0x34
    BLT = 0x35  # signed rd < rs
    BGE = 0x36
    JMP = 0x37  # indirect jump to address in rd
    JTAB = 0x38  # multiway: pc = mem[rs + rd] (rd is the scaled index)
    CALL = 0x39  # push return address; pc-relative call
    CALLR = 0x3A  # indirect call through rd
    CALLX = 0x3B  # cross-module call through import slot imm16
    RET = 0x3C  # pop return address into pc

    # System.
    SYS = 0x40  # syscall, number in imm16; args r0..r5, result r0
    THROW = 0x41  # raise software exception with code in rd
    HALT = 0x42  # terminate the process normally
    NOP = 0x43

    # Thread-local storage (the FS-segment analog).
    TLSLD = 0x48  # rd = tls[imm16]
    TLSST = 0x49  # tls[imm16] = rd

    # Probe support (see module docstring).
    ORM = 0x50  # mem[rd] |= zero_extend(imm16)
    STDAG = 0x51  # mem[rd] = 0x80000000 | (imm20 << 11)
    BSENT = 0x52  # branch if mem[rd] == 0xFFFFFFFF


#: Format of each opcode, consulted by encoder, decoder, and assembler.
FORMATS: dict[Op, Fmt] = {
    Op.ADD: Fmt.R3,
    Op.SUB: Fmt.R3,
    Op.MUL: Fmt.R3,
    Op.DIV: Fmt.R3,
    Op.MOD: Fmt.R3,
    Op.AND: Fmt.R3,
    Op.OR: Fmt.R3,
    Op.XOR: Fmt.R3,
    Op.SHL: Fmt.R3,
    Op.SHR: Fmt.R3,
    Op.SLT: Fmt.R3,
    Op.SLE: Fmt.R3,
    Op.SEQ: Fmt.R3,
    Op.SNE: Fmt.R3,
    Op.ADDI: Fmt.RRI,
    Op.ANDI: Fmt.RRI,
    Op.ORI: Fmt.RRI,
    Op.XORI: Fmt.RRI,
    Op.SHLI: Fmt.RRI,
    Op.SHRI: Fmt.RRI,
    Op.SLTI: Fmt.RRI,
    Op.MULI: Fmt.RRI,
    Op.MOVI: Fmt.RI,
    Op.MOVHI: Fmt.RI,
    Op.MOV: Fmt.R2,
    Op.LDW: Fmt.RRI,
    Op.STW: Fmt.RRI,
    Op.PUSH: Fmt.R1,
    Op.POP: Fmt.R1,
    Op.BR: Fmt.I16,
    Op.BZ: Fmt.RB,
    Op.BNZ: Fmt.RB,
    Op.BEQ: Fmt.RRB,
    Op.BNE: Fmt.RRB,
    Op.BLT: Fmt.RRB,
    Op.BGE: Fmt.RRB,
    Op.JMP: Fmt.R1,
    Op.JTAB: Fmt.R2,
    Op.CALL: Fmt.I16,
    Op.CALLR: Fmt.R1,
    Op.CALLX: Fmt.I16,
    Op.RET: Fmt.NONE,
    Op.SYS: Fmt.I16,
    Op.THROW: Fmt.R1,
    Op.HALT: Fmt.NONE,
    Op.NOP: Fmt.NONE,
    Op.TLSLD: Fmt.RI,
    Op.TLSST: Fmt.RI,
    Op.ORM: Fmt.RI,
    Op.STDAG: Fmt.RI20,
    Op.BSENT: Fmt.RB,
}

#: Opcodes that end a basic block (control may not fall through normally,
#: or may transfer elsewhere).  CALL-family opcodes end blocks because
#: TraceBack places a heavyweight probe at every call return point.
#: SYS ends blocks because the runtime may append event records
#: (timestamps, exception records) at syscalls — the paper's "inserts
#: timestamp probes at synchronization / OS-service artifacts" (§3.5) —
#: and the current DAG record must be complete before that happens.
BLOCK_ENDERS = frozenset(
    {
        Op.BR,
        Op.BZ,
        Op.BNZ,
        Op.BEQ,
        Op.BNE,
        Op.BLT,
        Op.BGE,
        Op.JMP,
        Op.JTAB,
        Op.CALL,
        Op.CALLR,
        Op.CALLX,
        Op.RET,
        Op.HALT,
        Op.THROW,
        Op.SYS,
    }
)

#: Opcodes with a pc-relative offset that the rewriter must fix up when
#: instructions are inserted between the branch and its target.
RELATIVE_BRANCHES = frozenset(
    {Op.BR, Op.BZ, Op.BNZ, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.CALL, Op.BSENT}
)

#: Conditional branches: two successors (taken target + fall-through).
CONDITIONAL_BRANCHES = frozenset(
    {Op.BZ, Op.BNZ, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BSENT}
)

#: Opcodes that transfer control without falling through.
UNCONDITIONAL_TRANSFERS = frozenset(
    {Op.BR, Op.JMP, Op.JTAB, Op.RET, Op.HALT, Op.THROW}
)

#: Opcodes that call (control returns to the following instruction).
CALLS = frozenset({Op.CALL, Op.CALLR, Op.CALLX})


@dataclass(frozen=True)
class Instr:
    """A decoded TBVM instruction.

    ``rd``, ``rs``, ``rt`` are register indexes and ``imm`` is the signed
    immediate / branch offset (or the unsigned imm20 for ``STDAG``).
    Fields that an opcode's format does not use are zero.
    """

    op: Op
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0

    @property
    def fmt(self) -> Fmt:
        """Operand format of this instruction's opcode."""
        return FORMATS[self.op]

    def ends_block(self) -> bool:
        """Whether this instruction terminates a basic block."""
        return self.op in BLOCK_ENDERS

    def with_imm(self, imm: int) -> "Instr":
        """Return a copy of this instruction with a different immediate."""
        return Instr(self.op, self.rd, self.rs, self.rt, imm)


def reg_name(index: int) -> str:
    """Human-readable name of register ``index`` (``r3``, ``sp``, ...)."""
    if index == SP:
        return "sp"
    return f"r{index}"


def parse_reg(name: str) -> int:
    """Parse a register name produced by :func:`reg_name`.

    Raises :class:`ValueError` for anything that is not a register.
    """
    name = name.strip().lower()
    if name == "sp":
        return SP
    if name.startswith("r") and name[1:].isdigit():
        index = int(name[1:])
        if 0 <= index < NUM_REGS:
            return index
    raise ValueError(f"not a register: {name!r}")
