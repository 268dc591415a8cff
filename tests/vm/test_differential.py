"""Differential execution: the tier-3 block engine must be bit-identical
to the reference interpreter.

The block engine (:mod:`repro.vm.blocks`, with the predecoded handlers
of :mod:`repro.vm.dispatch` as its terminators) is only admissible if
no program can tell it apart from ``Machine.step()``.  These tests run
the same module under both engines and compare the
*complete* architectural outcome: final registers, TLS, memory contents,
trace-buffer words, exception codes and PCs, cycle and instruction
counts, and program output.

Coverage comes from two directions:

* every MiniC example/scenario program in the repo, bare and
  instrumented (probes, runtime host calls, buffer wraps, exception
  upcalls);
* seeded random instruction sequences that deliberately wander into
  fault paths (divide by zero, wild loads, THROW, stack over-pop) so the
  faulting side effects and unwinder entry points are compared too.
"""

from __future__ import annotations

import random

import pytest

from repro.instrument import InstrumentConfig, instrument_module
from repro.isa.encoding import encode_all
from repro.isa.instructions import Instr, Op
from repro.isa.module import FuncInfo, HandlerRange, Module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import ENGINES, Machine, Sys

# ----------------------------------------------------------------------
# State capture and comparison
# ----------------------------------------------------------------------


def _capture(machine, process, status, runtime=None):
    """Everything observable about a finished (or stopped) run."""
    state = {
        "status": status,
        "cycles": machine.cycles,
        "exit_state": process.exit_state,
        "exit_code": process.exit_code,
        "output": list(process.output),
        "fault": (
            (process.fault.code, process.fault.pc, process.fault.detail)
            if process.fault
            else None
        ),
        "threads": {
            tid: {
                "state": thread.state,
                "pc": thread.pc,
                "regs": list(thread.regs),
                "tls": list(thread.tls),
                "instructions": thread.instructions,
                "frames": [
                    (f.entry_pc, f.return_pc, f.entry_sp) for f in thread.frames
                ],
            }
            for tid, thread in process.threads.items()
        },
        "memory": {
            seg.name: list(seg.words) for seg in process.memory.segments()
        },
    }
    if runtime is not None:
        state["buffers"] = [
            buf.mapped.snapshot() for buf in runtime._all_buffers
        ]
        state["records_written"] = runtime.stats.records_written
        state["wraps"] = runtime.stats.wraps
    return state


def _run_module(make_module, engine, *, instrument=None, max_cycles=5_000_000):
    """Build a fresh module, run it on ``engine``, capture final state."""
    machine = Machine(engine=engine)
    process = machine.create_process("diff")
    runtime = None
    module = make_module()
    if instrument is not None:
        runtime = TraceBackRuntime(process, RuntimeConfig())
        module = instrument_module(module, InstrumentConfig(mode=instrument)).module
    process.load_module(module)
    process.start()
    status = machine.run(max_cycles=max_cycles)
    return _capture(machine, process, status, runtime)


def assert_engines_agree(make_module, *, instrument=None, max_cycles=5_000_000):
    """Run under every engine and require identical captured state."""
    states = {
        engine: _run_module(
            make_module, engine, instrument=instrument, max_cycles=max_cycles
        )
        for engine in ENGINES
    }
    reference = states["reference"]
    for engine, state in states.items():
        assert state == reference, f"engine {engine!r} diverged from reference"
    return reference


# ----------------------------------------------------------------------
# MiniC example and scenario programs
# ----------------------------------------------------------------------


def _example_sources():
    """Every self-contained MiniC program shipped with the repo."""
    import importlib.util
    from pathlib import Path

    examples = Path(__file__).resolve().parents[2] / "examples"

    def load(name):
        spec = importlib.util.spec_from_file_location(name, examples / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    from repro.workloads import scenarios

    return {
        "quickstart": load("quickstart").SOURCE,
        "multithreaded": load("multithreaded_crash").SERVER,
        "deadlock": load("hang_diagnosis").DEADLOCK,
        "fidelity": scenarios.FIDELITY_C,
        "oracle": scenarios.ORACLE_C,
    }


SOURCES = _example_sources()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_examples_bare(name):
    """Each example program, uninstrumented, is engine-independent."""
    source = SOURCES[name]
    assert_engines_agree(
        lambda: compile_source(source, name), max_cycles=500_000
    )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_examples_instrumented(name):
    """Each example under full tracing: probes, host calls, wraps,
    exception upcalls, and the trace-buffer words themselves match."""
    source = SOURCES[name]
    assert_engines_agree(
        lambda: compile_source(source, name),
        instrument="native",
        max_cycles=500_000,
    )


def test_quickstart_il_mode():
    """IL mode adds bounds checks and the CATCH import path."""
    assert_engines_agree(
        lambda: compile_source(SOURCES["quickstart"], "qs-il", bounds_checks=True),
        instrument="il",
        max_cycles=500_000,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "bench", [b.name for b in __import__("repro.workloads.specint", fromlist=["suite"]).suite()]
)
def test_specint_differential(bench):
    """The full specint workload suite agrees across engines (slow lane)."""
    from repro.workloads.specint import suite

    source = next(b for b in suite() if b.name == bench).source
    assert_engines_agree(lambda: compile_source(source, bench))


# ----------------------------------------------------------------------
# Seeded random instruction sequences
# ----------------------------------------------------------------------

_ALU_R3 = [
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHR, Op.SLT, Op.SLE, Op.SEQ, Op.SNE,
]
_ALU_SIGNED_I = [Op.ADDI, Op.MULI, Op.SLTI, Op.SHLI, Op.SHRI]
_ALU_UNSIGNED_I = [Op.ANDI, Op.ORI, Op.XORI]
_COND_BRANCH_1 = [Op.BZ, Op.BNZ]
_COND_BRANCH_2 = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE]
_SAFE_SYS = [Sys.PRINT_INT, Sys.CLOCK, Sys.RAND, Sys.GETTID, Sys.YIELD]

_N_INIT = 8  # MOVI r0..r7 seeds the register file


def _random_body(rng, n_body, body_start, body_end):
    """One random instruction for each body slot.

    Branches are forward-only (into ``(here, body_end]``) so every
    program terminates without needing a cycle cap; fault opportunities
    (DIV by zero, wild loads, THROW, over-POP) are deliberately common
    so the comparison exercises the unwinder and faulting side-effect
    order, not just straight-line arithmetic.
    """
    body = []
    for i in range(n_body):
        here = body_start + i
        kind = rng.choices(
            [
                "alu_r", "alu_si", "alu_ui", "movi", "movhi", "mov",
                "div", "push", "pop", "stack_st", "stack_ld",
                "wild_ld", "branch1", "branch2", "br", "call",
                "tls", "sys", "throw",
            ],
            weights=[
                18, 10, 6, 8, 3, 5,
                5, 6, 5, 4, 4,
                2, 5, 5, 3, 4,
                4, 4, 1,
            ],
        )[0]
        reg = lambda: rng.randrange(0, 11)  # r11/r12 reserved (probe/sp)
        if kind == "alu_r":
            body.append(Instr(rng.choice(_ALU_R3), rd=reg(), rs=reg(), rt=reg()))
        elif kind == "alu_si":
            body.append(
                Instr(rng.choice(_ALU_SIGNED_I), rd=reg(), rs=reg(),
                      imm=rng.randint(-512, 512))
            )
        elif kind == "alu_ui":
            body.append(
                Instr(rng.choice(_ALU_UNSIGNED_I), rd=reg(), rs=reg(),
                      imm=rng.randint(0, 0xFFFF))
            )
        elif kind == "movi":
            body.append(Instr(Op.MOVI, rd=reg(), imm=rng.randint(-32768, 32767)))
        elif kind == "movhi":
            body.append(Instr(Op.MOVHI, rd=reg(), imm=rng.randint(0, 0xFFFF)))
        elif kind == "mov":
            body.append(Instr(Op.MOV, rd=reg(), rs=reg()))
        elif kind == "div":
            # rt is often zero-valued: DIVIDE_BY_ZERO -> handler.
            body.append(
                Instr(rng.choice([Op.DIV, Op.MOD]), rd=reg(), rs=reg(), rt=reg())
            )
        elif kind == "push":
            body.append(Instr(Op.PUSH, rd=reg()))
        elif kind == "pop":
            # May over-pop past the trampoline RA and eventually walk off
            # the stack segment -> ACCESS_VIOLATION -> handler.
            body.append(Instr(Op.POP, rd=reg()))
        elif kind == "stack_st":
            body.append(Instr(Op.STW, rd=reg(), rs=12, imm=-rng.randint(1, 4)))
        elif kind == "stack_ld":
            body.append(Instr(Op.LDW, rd=reg(), rs=12, imm=-rng.randint(1, 4)))
        elif kind == "wild_ld":
            # Address from a data register: usually unmapped -> fault.
            body.append(Instr(Op.LDW, rd=reg(), rs=reg(), imm=rng.randint(-8, 8)))
        elif kind == "branch1":
            target = rng.randint(here + 1, body_end)
            body.append(
                Instr(rng.choice(_COND_BRANCH_1), rd=reg(), imm=target - (here + 1))
            )
        elif kind == "branch2":
            target = rng.randint(here + 1, body_end)
            body.append(
                Instr(rng.choice(_COND_BRANCH_2), rd=reg(), rs=reg(),
                      imm=target - (here + 1))
            )
        elif kind == "br":
            target = rng.randint(here + 1, body_end)
            body.append(Instr(Op.BR, imm=target - (here + 1)))
        elif kind == "call":
            body.append(Instr(Op.CALL, imm=0))  # patched to leaf below
        elif kind == "tls":
            op = rng.choice([Op.TLSST, Op.TLSLD])
            body.append(Instr(op, rd=reg(), imm=rng.randrange(0, 8)))
        elif kind == "sys":
            body.append(Instr(Op.SYS, imm=rng.choice(_SAFE_SYS)))
        elif kind == "throw":
            body.append(Instr(Op.THROW, rd=reg()))
    return body


def random_program(seed: int) -> Module:
    """A terminating random module: register init, random body, an
    epilogue that prints live registers, a catch-all handler, and a leaf
    function reachable by CALL."""
    rng = random.Random(seed)
    n_body = rng.randint(24, 72)
    body_end = _N_INIT + n_body  # epilogue offset

    instrs = [
        Instr(Op.MOVI, rd=r, imm=rng.randint(-300, 300)) for r in range(_N_INIT)
    ]
    instrs += _random_body(rng, n_body, _N_INIT, body_end)

    # Epilogue: print r1..r3 (data flow check), exit with r0's low bits.
    for r in (1, 2, 3):
        instrs.append(Instr(Op.MOV, rd=0, rs=r))
        instrs.append(Instr(Op.SYS, imm=Sys.PRINT_INT))
    instrs.append(Instr(Op.ANDI, rd=0, rs=0, imm=0xFF))
    instrs.append(Instr(Op.HALT))

    handler = len(instrs)  # catch-all: print the code, halt with it.
    instrs.append(Instr(Op.SYS, imm=Sys.PRINT_INT))
    instrs.append(Instr(Op.HALT))

    leaf = len(instrs)
    instrs.append(Instr(Op.ADDI, rd=0, rs=0, imm=7))
    instrs.append(Instr(Op.RET))
    end = len(instrs)

    # Point every CALL at the leaf.
    for off, instr in enumerate(instrs):
        if instr.op is Op.CALL:
            instrs[off] = Instr(Op.CALL, imm=leaf - (off + 1))

    return Module(
        name=f"rand{seed}",
        code=encode_all(instrs),
        exports={"main": 0},
        funcs=[
            FuncInfo(
                name="main",
                start=0,
                end=leaf,
                handlers=[HandlerRange(start=0, end=handler, handler=handler)],
            ),
            FuncInfo(name="leaf", start=leaf, end=end),
        ],
    )


@pytest.mark.parametrize("seed", range(120))
def test_random_programs(seed):
    """120 seeded random instruction sequences agree across engines."""
    state = assert_engines_agree(
        lambda: random_program(seed), max_cycles=100_000
    )
    # Forward-only branches guarantee termination: no run hits the cap.
    assert state["status"] == "done"


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_random_programs_instrumented(seed):
    """A sample of the random programs under full instrumentation."""
    assert_engines_agree(
        lambda: random_program(seed), instrument="native", max_cycles=200_000
    )
