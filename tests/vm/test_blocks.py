"""Tier-3 block engine specifics: engine selection, unit tables, partial
runs, slice-boundary exactness, the unit cache, and recompilation after
code rewriting.

Full bit-identity with the reference interpreter is covered by the
differential suite (``test_differential.py`` runs every engine in
``ENGINES``); these tests pin the machinery around the compiled units.
"""

from __future__ import annotations

import pytest

from repro.instrument import InstrumentConfig, instrument_module
from repro.isa.encoding import encode_all
from repro.isa.instructions import Instr, Op
from repro.isa.module import FuncInfo, HandlerRange, Module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.vm import ENGINES, EngineSelectionError, ExcCode, Machine, Sys
from repro.vm import blocks
from repro.vm.machine import ENGINE_ENV_VAR
from repro.workloads import benchmark_named
from tests.vm.test_differential import _capture

SOURCE = """
int main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 200; i = i + 1) {
        total = total + i * 3;
    }
    print_int(total);
    return 0;
}
"""


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------


def test_engines_tuple_lists_all_tiers():
    assert ENGINES == ("block", "reference")


def test_block_is_the_default(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert Machine().engine == "block"


def test_unknown_engine_argument_raises_typed_error():
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine(engine="turbo")
    err = excinfo.value
    assert err.engine == "turbo"
    assert err.valid == ENGINES
    # The message names the bad value, its source, and every valid tier.
    message = str(err)
    assert "turbo" in message
    assert "Machine(engine=...)" in message
    for tier in ENGINES:
        assert tier in message


def test_unknown_engine_env_var_raises_typed_error(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
    with pytest.raises(EngineSelectionError) as excinfo:
        Machine()
    message = str(excinfo.value)
    assert "warp" in message
    assert ENGINE_ENV_VAR in message
    for tier in ENGINES:
        assert tier in message


def test_engine_env_var_selects_block(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "block")
    assert Machine().engine == "block"


def test_engine_env_var_selects_reference(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    assert Machine().engine == "reference"


def test_explicit_engine_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    assert Machine(engine="block").engine == "block"


# ----------------------------------------------------------------------
# Compiled-unit machinery
# ----------------------------------------------------------------------


def _run(engine, source=SOURCE, max_cycles=200_000):
    machine = Machine(engine=engine)
    process = machine.create_process("blk")
    loaded = process.load_module(compile_source(source, "blk"))
    process.start()
    machine.run(max_cycles=max_cycles)
    return machine, process, loaded


def test_block_table_built_lazily_on_first_run():
    machine = Machine(engine="block")
    process = machine.create_process("lazy")
    loaded = process.load_module(compile_source(SOURCE, "lazy"))
    assert loaded.block_table is None
    process.start()
    machine.run(max_cycles=200_000)
    table = loaded.block_table
    assert len(table) == len(loaded.decoded)
    # Every code offset maps to the unit covering it; the unit's start
    # and length place the offset at an index inside it.
    for offset, unit in enumerate(table):
        start, count, whole, part = unit
        assert start <= offset < start + count <= len(table)
        assert 1 <= count <= blocks.MAX_UNIT
        assert table[start] is unit
        assert callable(whole)
        assert (part is None) == (count == 1)


def test_block_engine_matches_reference_output():
    _, ref, _ = _run("reference")
    _, blk, _ = _run("block")
    assert blk.output == ref.output
    assert blk.exit_code == ref.exit_code


def test_refresh_decode_cache_drops_block_table():
    _, _, loaded = _run("block")
    assert loaded.block_table
    loaded.refresh_decode_cache()
    assert loaded.block_table is None


def _slices(engine, chunks):
    machine = Machine(engine=engine)
    process = machine.create_process("slice")
    process.load_module(compile_source(SOURCE, "slice"))
    process.start()
    thread = next(iter(process.threads.values()))
    seen = []
    for chunk in chunks:
        before = thread.instructions
        machine.run_thread_slice(thread, chunk)
        seen.append(thread.instructions - before)
        if not thread.runnable():
            break
    return seen, thread.pc, list(thread.regs), machine.cycles


def test_slice_boundaries_identical_across_engines():
    """run_thread_slice consumes exactly the same instruction counts on
    every tier — the invariant replay's forced scheduler depends on."""
    # Deliberately awkward slice sizes that end inside units.
    chunks = [1, 3, 7, 40, 13, 1, 1, 40, 5, 40, 40, 40]
    assert _slices("block", chunks) == _slices("reference", chunks)


def test_chunks_shorter_than_a_unit_retire_exactly():
    """Every chunk from 1 up to a unit's length retires exactly that many
    instructions, entering and leaving units mid-way, and lands on the
    reference interpreter's state."""
    chunks = [n for n in range(1, blocks.MAX_UNIT + 1) for _ in range(3)]
    block = _slices("block", chunks)
    assert block[0] == chunks  # the loop never blocks or ends here
    assert block == _slices("reference", chunks)


# ----------------------------------------------------------------------
# Partial runs: every (entry, stop) pair of a unit, with and without a
# fault at every index
# ----------------------------------------------------------------------

#: One straight-line run touching every faultable fused op class.  r8
#: points at a scratch segment, r9 is a non-zero divisor.
FUSED = [
    Instr(Op.LDW, rd=1, rs=8, imm=0),
    Instr(Op.ADDI, rd=2, rs=1, imm=5),
    Instr(Op.STW, rd=2, rs=8, imm=1),
    Instr(Op.PUSH, rd=2),
    Instr(Op.POP, rd=3),
    Instr(Op.DIV, rd=4, rs=2, rt=9),
    Instr(Op.MUL, rd=5, rs=4, rt=2),
    Instr(Op.ORM, rd=8, imm=3),
    Instr(Op.STDAG, rd=10, imm=77),
    Instr(Op.TLSST, rd=5, imm=3),
    Instr(Op.TLSLD, rd=6, imm=3),
    Instr(Op.MOD, rd=7, rs=6, rt=9),
    Instr(Op.SLT, rd=0, rs=1, rt=7),
]

#: Terminators the unit may end with: inline (``CALL``), a tier-2
#: handler (``SYS``), or none (the next word is a leader).
TERMINATORS = {"call": Op.CALL, "sys": Op.SYS, "none": None}


def _unit_module(fused, terminator):
    """``main`` is one unit, followed by a catch-all handler (a leader)
    and a leaf function the ``CALL`` terminator targets."""
    instrs = list(fused)
    if terminator is Op.SYS:
        instrs.append(Instr(Op.SYS, imm=Sys.PRINT_INT))
    elif terminator is Op.CALL:
        instrs.append(Instr(Op.CALL, imm=0))  # patched below
    handler = len(instrs)
    instrs += [
        Instr(Op.ADDI, rd=0, rs=0, imm=100),
        Instr(Op.XORI, rd=1, rs=1, imm=0x55),
        Instr(Op.SYS, imm=Sys.PRINT_INT),
        Instr(Op.HALT),
    ]
    leaf = len(instrs)
    instrs += [Instr(Op.ADDI, rd=0, rs=0, imm=7), Instr(Op.RET)]
    if terminator is Op.CALL:
        instrs[handler - 1] = Instr(Op.CALL, imm=leaf - handler)
    return Module(
        name="unit",
        code=encode_all(instrs),
        exports={"main": 0},
        funcs=[
            FuncInfo(
                name="main",
                start=0,
                end=leaf,
                handlers=[HandlerRange(start=0, end=handler, handler=handler)],
            ),
            FuncInfo(name="leaf", start=leaf, end=len(instrs)),
        ],
    )


def _partial_state(engine, module, entry, quantum):
    machine = Machine(engine=engine)
    process = machine.create_process("part")
    loaded = process.load_module(module)
    scratch = process.alloc_words(16)
    thread = process.create_thread(loaded.code_base + entry)
    for r in range(8):
        thread.regs[r] = 3 * r + 1
    thread.regs[8] = scratch
    thread.regs[9] = 7
    thread.regs[10] = scratch + 4
    machine.run_thread_slice(thread, quantum)
    return _capture(machine, process, None)


@pytest.mark.parametrize("terminator", sorted(TERMINATORS))
@pytest.mark.parametrize("fault_at", [None, *range(len(FUSED))])
def test_partial_runs_match_reference(terminator, fault_at):
    """Enter the unit at every index and stop after every later one; a
    variant faults at each index (a load from address 0).  The catch-all
    handler then runs out the slice, so the slice's accounting after a
    partial-run fault is compared too."""
    fused = list(FUSED)
    if fault_at is not None:
        fused[fault_at] = Instr(Op.LDW, rd=3, rs=13, imm=0)
    module = _unit_module(fused, TERMINATORS[terminator])
    count = len(fused) + (TERMINATORS[terminator] is not None)
    # The module compiles to the unit under test, covering [0, count).
    loaded = Machine().create_process("layout").load_module(module)
    assert blocks.bind_units(loaded)[0][:2] == (0, count)
    for entry in range(count):
        for stop in range(entry + 1, count + 1):
            quantum = stop - entry
            if fault_at is not None and entry <= fault_at < stop:
                quantum += 2  # the handler runs a little
            block = _partial_state("block", module, entry, quantum)
            reference = _partial_state("reference", module, entry, quantum)
            assert block == reference, (entry, stop)


@pytest.mark.parametrize("op", [Op.STW, Op.ORM, Op.STDAG, Op.PUSH])
def test_store_to_read_only_code_faults_whatever_the_read_caches_hold(op):
    """Units keep local copies of the memory's read and write hit caches;
    a store must only ever go through the write ones.  With the code
    segment (read-only) as the read victim, a store into it still
    faults exactly as in the reference interpreter."""
    store = {
        Op.STW: Instr(Op.STW, rd=2, rs=8, imm=0),
        Op.ORM: Instr(Op.ORM, rd=8, imm=1),
        Op.STDAG: Instr(Op.STDAG, rd=8, imm=5),
        Op.PUSH: Instr(Op.PUSH, rd=2),
    }[op]
    module = _unit_module([Instr(Op.ADDI, rd=1, rs=1, imm=1), store], None)

    def run(engine):
        machine = Machine(engine=engine)
        process = machine.create_process("ro")
        loaded = process.load_module(module)
        thread = process.create_thread(loaded.code_base)
        thread.regs[8] = loaded.code_base
        if op is Op.PUSH:
            thread.regs[12] = loaded.code_base + 1
        # Read caches: primary = the stack, victim = the code segment.
        process.memory.load(loaded.code_base)
        process.memory.load(thread.sp - 1)
        machine.run_thread_slice(thread, 2)
        return _capture(machine, process, None)

    block = run("block")
    assert block == run("reference")
    # The catch-all handler caught the fault: r0 holds its code.
    assert block["threads"][0]["regs"][0] == ExcCode.ACCESS_VIOLATION


# ----------------------------------------------------------------------
# The unit cache
# ----------------------------------------------------------------------


def _image(value):
    """A tiny module printing ``value``: distinct values are distinct
    code images."""
    instrs = [
        Instr(Op.MOVI, rd=0, imm=value),
        Instr(Op.ADDI, rd=0, rs=0, imm=1),
        Instr(Op.SYS, imm=Sys.PRINT_INT),
        Instr(Op.HALT),
    ]
    return Module(
        name=f"img{value}",
        code=encode_all(instrs),
        exports={"main": 0},
        funcs=[FuncInfo(name="main", start=0, end=len(instrs))],
    )


def _load_and_run(module, rewrite=None):
    machine = Machine(engine="block")
    process = machine.create_process("cache")
    loaded = process.load_module(module)
    if rewrite is not None:
        rewrite(loaded)
    process.start()
    machine.run(max_cycles=10_000)
    return process, loaded


@pytest.fixture
def cache(monkeypatch):
    """A private unit cache, so counts are exact and the shared one is
    left alone."""
    fresh = blocks.UnitCache()
    monkeypatch.setattr(blocks, "UNIT_CACHE", fresh)
    return fresh


def test_second_load_of_an_image_compiles_nothing(cache, monkeypatch):
    first, loaded1 = _load_and_run(_image(41))
    assert (cache.misses, cache.hits) == (1, 0)

    def no_compile(loaded):
        raise AssertionError("a cached image was compiled again")

    monkeypatch.setattr(blocks, "_compile_image", no_compile)
    second, loaded2 = _load_and_run(_image(41))
    assert (cache.misses, cache.hits) == (1, 1)
    assert first.output == second.output == ["42"]
    # Same code objects, bound to each load's own memory.
    whole1 = loaded1.block_table[0][2]
    whole2 = loaded2.block_table[0][2]
    assert whole1 is not whole2
    assert whole1.__code__ is whole2.__code__
    assert whole1.__globals__["_mem"] is first.memory
    assert whole2.__globals__["_mem"] is second.memory


def _set_movi(value):
    def rewrite(loaded):
        code = loaded.segments[0].words
        code[0] = encode_all([Instr(Op.MOVI, rd=0, imm=value)])[0]
        loaded.refresh_decode_cache()

    return rewrite


def test_rewritten_image_never_binds_stale_units(cache):
    original, _ = _load_and_run(_image(10))
    assert original.output == ["11"]

    # Rewritten after a bind of the original image: the table is
    # dropped and the new words are a new image.
    machine = Machine(engine="block")
    process = machine.create_process("rewrite")
    loaded = process.load_module(_image(10))
    blocks.bind_units(loaded)
    _set_movi(500)(loaded)
    assert loaded.block_table is None
    process.start()
    machine.run(max_cycles=10_000)
    assert process.output == ["501"]
    assert cache.misses == 2

    # Both images stay cached under their own words.
    again, _ = _load_and_run(_image(10))
    assert again.output == ["11"]
    rewritten, _ = _load_and_run(_image(10), rewrite=_set_movi(500))
    assert rewritten.output == ["501"]
    assert (cache.misses, cache.hits) == (2, 3)


def test_cache_evicts_least_recently_used_at_its_bound(cache, monkeypatch):
    _load_and_run(_image(1))
    per_image = cache.units
    monkeypatch.setattr(blocks, "CACHE_UNITS", 2 * per_image)
    _load_and_run(_image(2))
    _load_and_run(_image(1))  # now image 2 is the least recently used
    assert (len(cache), cache.evictions) == (2, 0)
    _load_and_run(_image(3))
    assert (len(cache), cache.evictions) == (2, 1)
    assert cache.units <= blocks.CACHE_UNITS
    misses = cache.misses
    _load_and_run(_image(1))
    assert cache.misses == misses  # kept
    _load_and_run(_image(2))
    assert cache.misses == misses + 1  # evicted, compiled again


# ----------------------------------------------------------------------
# No per-instruction dispatch on traced code
# ----------------------------------------------------------------------


def test_instrumented_kernel_takes_no_fallback_steps():
    """Slice boundaries land mid-unit constantly on traced code; partial
    runs cover them, so no instruction runs as a lone tier-2 step.
    Bound units hold their own handler references (for their ``SYS``/
    ``CALLX`` terminators), so counting wrappers installed on
    ``loaded.handlers`` after binding see only per-instruction steps."""
    module = compile_source(benchmark_named("parser").source, "parser")
    module = instrument_module(module, InstrumentConfig()).module
    machine = Machine(engine="block")
    process = machine.create_process("parser")
    TraceBackRuntime(process, RuntimeConfig())
    loaded = process.load_module(module)
    process.start()
    table = blocks.bind_units(loaded)
    steps = []

    def counting(handler):
        def step(machine, thread):
            steps.append(thread.pc)
            handler(machine, thread)

        return step

    loaded.handlers = [counting(h) for h in loaded.handlers]
    assert machine.run(max_cycles=5_000_000) == "done"
    assert loaded.block_table is table
    assert sum(t.instructions for t in process.threads.values()) > 100_000
    assert steps == []
