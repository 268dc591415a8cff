"""Inlined probe calls and the trace hit cache, against the reference.

A tier-3 unit ending in a ``CALL`` to code shaped like the probe helper
(``TLSLD r,s; ADDI r,r,1; BSENT r; TLSST r,s; RET``) runs the helper's
fast path inline in its whole run, and leaves by the plain ``CALL``
(frame pushed, pc at the helper) when the bumped slot holds the
sentinel, is not in the memory's trace hit cache, or the return-address
store did not prove the helper's ``RET`` cannot fault.  ``ORM``,
``STDAG``, ``BSENT`` and the inline fast path reach the trace buffer
through that one-entry cache.

Each case runs one program on both engines and compares registers,
TLS, memory, frames, pc, fault and cycles (``_capture``); the reference
engine is the oracle.  The last tests pin the saving itself with counts
on two instrumented kernels.
"""

from __future__ import annotations

import pytest

from repro.instrument import InstrumentConfig, instrument_module
from repro.isa import assemble
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.runtime.abi import HELPER_NAME
from repro.vm import ENGINES, ExcCode, ExitState, Machine
from repro.vm import blocks
from repro.vm.memory import Memory, Segment
from repro.vm.thread import TLS_TRACE_PTR
from repro.workloads import benchmark_named
from tests.vm.test_differential import _capture

SENTINEL = 0xFFFFFFFF

#: A loop whose body is a heavyweight probe (``call helper; stdag``)
#: and a lightweight one (``orm``) on a hand-assembled, uninstrumented
#: module; ``__wrap`` is the host's buffer_wrap.  The helper's body and
#: the loop's length vary per case.
PROGRAM = """
.module probe
.entry main
.import __wrap
.func main
  li r1, 0
loop:
  addi r1, r1, 1
  call helper
  stdag r11, 5
  orm r11, 3
  slti r2, r1, {iterations}
  bnz r2, loop
  mov r0, r1
  sys 1
  halt
.endfunc
.func helper
{helper}
  ret
wrap:
  callx __wrap
  ret
.endfunc
"""

HELPER = """\
  tlsld r11, 60
  addi r11, r11, 1
  bsent r11, wrap
  tlsst r11, 60"""

#: Helper bodies one edit away from the fast path's shape: none may be
#: inlined.
NEAR_MISSES = {
    "tlsst-other-slot": HELPER.replace("tlsst r11, 60", "tlsst r11, 59"),
    "addi-by-two": HELPER.replace("addi r11, r11, 1", "addi r11, r11, 2"),
    "bsent-other-reg": HELPER.replace("bsent r11", "bsent r10"),
    "sp-as-pointer": HELPER.replace("r11", "sp"),
    "nop-for-tlsst": HELPER.replace("tlsst r11, 60", "nop"),
}

#: Words in the test trace buffer: records, then the sentinel.
BUFFER_WORDS = 9


def _module(helper: str = HELPER, iterations: int = 40):
    return assemble(PROGRAM.format(helper=helper, iterations=iterations))


def _probe_process(machine: Machine, module, buffer_words: int = BUFFER_WORDS):
    """A process running ``module`` whose main thread's trace pointer
    sits before a fresh buffer ending in the sentinel; ``__wrap``
    zeroes the buffer and repoints the thread at its first word."""
    process = machine.create_process("probe")
    base, mapped = process.map_buffer("trace-main", buffer_words)
    mapped.words[-1] = SENTINEL
    wraps = []

    def wrap(thread):
        buf = thread.wrap_buffer
        for i in range(len(buf.words) - 1):
            buf.words[i] = 0
        thread.tls[TLS_TRACE_PTR] = thread.regs[11] = thread.wrap_base
        wraps.append(thread.tid)
        return None if len(wraps) % 2 else 30

    process.loader.register_host_function("__wrap", wrap)
    loaded = process.load_module(module)
    thread = process.start()
    _point_at(thread, base, mapped)
    return process, loaded, thread, wraps


def _point_at(thread, base, mapped) -> None:
    thread.wrap_base, thread.wrap_buffer = base, mapped
    thread.tls[TLS_TRACE_PTR] = base - 1


def _both(run) -> dict:
    """``run(engine)`` on both engines; they must agree."""
    states = {engine: run(engine) for engine in ENGINES}
    assert states["block"] == states["reference"]
    return states["block"]


def _call_unit(loaded):
    """The unit ending in ``main``'s ``call helper``."""
    table = blocks.bind_units(loaded)
    main = loaded.module.func_named("main")
    for unit in table[main.start : main.end]:
        start, count = unit[:2]
        if loaded.decoded[start + count - 1].op.name == "CALL":
            return unit
    raise AssertionError("no call unit")


# ----------------------------------------------------------------------
# Which calls are inlined
# ----------------------------------------------------------------------
def test_helper_shaped_callee_is_inlined_in_an_uninstrumented_module():
    _, loaded, _, _ = _probe_process(Machine(), _module())
    start, count, span, whole, part = _call_unit(loaded)
    assert span == count + blocks.HELPER_FAST
    assert part is not None  # partial runs keep the plain CALL


@pytest.mark.parametrize("helper", sorted(NEAR_MISSES))
def test_near_misses_are_not_inlined(helper):
    module = _module(NEAR_MISSES[helper])
    _, loaded, _, _ = _probe_process(Machine(), module)
    start, count, span, _, _ = _call_unit(loaded)
    assert span == count

    def run(engine):
        machine = Machine(engine=engine)
        process, _, _, _ = _probe_process(machine, module)
        return _capture(machine, process, machine.run(max_cycles=20_000))

    _both(run)


# ----------------------------------------------------------------------
# The side exit, and faults at and inside an inlined call
# ----------------------------------------------------------------------
def test_sentinel_at_an_inlined_call_site_runs_the_wrap():
    """The buffer holds eight records: the ninth probe, then every
    eighth, finds the sentinel, leaves by the plain CALL, and the
    helper's own code calls ``__wrap`` (alternately free and at a
    30-cycle cost) — four times in 40 probes."""
    calls = {}

    def run(engine):
        machine = Machine(engine=engine)
        process, _, _, wraps = _probe_process(machine, _module())
        status = machine.run(max_cycles=100_000)
        calls[engine] = len(wraps)
        return _capture(machine, process, status)

    state = _both(run)
    assert state["exit_state"] == ExitState.EXITED
    assert state["output"] == ["40"]
    assert calls["block"] == calls["reference"] == 4


#: Instructions from the start to the call unit's third whole run:
#: ``li``, then two loop iterations of 11 (``addi``, ``call``, the
#: helper's 5, ``stdag``, ``orm``, ``slti``, ``bnz``).  By then the
#: write caches hold the stack and the trace cache the buffer, so the
#: unit's next whole run could take the fast path.
TO_THIRD_CALL = 1 + 2 * 11


def _at_warm_call(machine, process, loaded, thread) -> None:
    machine.run_thread_slice(thread, TO_THIRD_CALL)
    assert _call_unit(loaded)[0] == thread.pc - loaded.code_base
    assert process.memory._trace_hit[0] == thread.wrap_base


def test_return_address_store_fault_at_a_helper_call():
    """sp at its stack segment's base: ``CALL``'s store faults below it,
    sp stays moved, no frame is pushed, and the CALL stays charged."""

    def run(engine):
        machine = Machine(engine=engine)
        process, loaded, thread, _ = _probe_process(machine, _module())
        if engine == "block":
            _at_warm_call(machine, process, loaded, thread)
        else:
            machine.run_thread_slice(thread, TO_THIRD_CALL)
        thread.regs[12] = thread.stack.base
        assert process.memory.segment_at(thread.stack.base - 1) is None
        return _capture(machine, process, machine.run(max_cycles=1_000))

    state = _both(run)
    code, pc, _ = state["fault"]
    (thread,) = state["threads"].values()
    assert code == ExcCode.ACCESS_VIOLATION
    assert pc == thread["pc"]  # the call
    assert len(thread["frames"]) == 1  # no frame pushed


@pytest.mark.parametrize("target", ["unmapped", "read-only"])
def test_trace_pointer_outside_a_writable_buffer(target):
    """A trace pointer into unmapped memory makes ``BSENT`` fault inside
    the helper, with its frame pushed; into the read-only code segment,
    ``BSENT`` reads it and the caller's ``STDAG`` faults.  Neither
    segment may enter the trace hit cache."""

    def run(engine):
        machine = Machine(engine=engine)
        process, loaded, thread, _ = _probe_process(machine, _module())
        if target == "unmapped":
            pointer = process.memory.highest_end() + 100
        else:
            pointer = loaded.code_base
        thread.tls[TLS_TRACE_PTR] = pointer - 1
        state = _capture(machine, process, machine.run(max_cycles=1_000))
        state["trace_hit"] = process.memory._trace_hit
        return state

    state = _both(run)
    assert state["trace_hit"] == (1, 0, None)
    code, pc, _ = state["fault"]
    assert code == ExcCode.ACCESS_VIOLATION
    (thread,) = state["threads"].values()
    assert len(thread["frames"]) == (2 if target == "unmapped" else 1)


def test_write_only_stack_keeps_the_helpers_reload_fault():
    """A stack segment that is writable but not readable: the call's
    store succeeds, and the helper's ``RET`` faults reloading it.  The
    write caches never hold such a segment, so the inline path does not
    skip that reload."""
    write_hits = {}

    def run(engine):
        machine = Machine(engine=engine)
        process, loaded, thread, _ = _probe_process(machine, _module())
        memory = process.memory
        base = memory.highest_end() + 64
        memory.map_segment(
            Segment(base=base, size=16, name="wo-stack", readable=False)
        )
        if engine == "block":
            _at_warm_call(machine, process, loaded, thread)
        else:
            machine.run_thread_slice(thread, TO_THIRD_CALL)
        thread.regs[12] = base + 16
        state = _capture(machine, process, machine.run(max_cycles=1_000))
        write_hits[engine] = (memory._write_hit[:2], memory._write_hit2[:2])
        return state

    state = _both(run)
    code, pc, detail = state["fault"]
    assert code == ExcCode.ACCESS_VIOLATION and "read of" in detail
    assert state["memory"]["wo-stack"][15] != 0  # the return address
    (thread,) = state["threads"].values()
    for engine in ENGINES:
        for base, end in write_hits[engine]:
            assert not base <= thread["regs"][12] < end


# ----------------------------------------------------------------------
# Slice boundaries across a probe call
# ----------------------------------------------------------------------
def _slice_states(engine, lead, chunks):
    machine = Machine(engine=engine)
    process, _, thread, _ = _probe_process(machine, _module())
    machine.run_thread_slice(thread, lead)
    seen = []
    for chunk in chunks:
        before = thread.instructions
        machine.run_thread_slice(thread, chunk)
        seen.append(thread.instructions - before)
    return seen, _capture(machine, process, None)


def test_chunks_across_a_probe_call_retire_exactly():
    """Every chunk from 1 to the call unit's span + 1, entered at every
    instruction of the call unit and the helper, retires exactly its
    size and lands on the reference's state."""
    _, loaded, _, _ = _probe_process(Machine(), _module())
    span = _call_unit(loaded)[2]
    for lead in range(1, span + 3):
        for chunk in range(1, span + 2):
            chunks = [chunk] * 3
            block = _slice_states("block", lead, chunks)
            assert block[0] == chunks
            assert block == _slice_states("reference", lead, chunks), (lead, chunk)


@pytest.mark.parametrize("quantum", [1, 3, 7, 40])
@pytest.mark.parametrize("lap", [1, 2, 5, 6, 7, 8, 13, 97])
def test_merged_slices_stop_where_per_quantum_slices_do(lap, quantum):
    """A lone thread in ``max_cycles`` laps: its merged slice runs an
    inlined probe call across quantum boundaries whole only where the
    scheduler would cross them, and stops on the reference's stops."""

    def run(engine):
        machine = Machine(engine=engine)
        process, _, _, _ = _probe_process(machine, _module(iterations=30))
        stops = []
        status, target = "limit", 0
        while status == "limit":
            target += lap
            status = machine.run(max_cycles=target, quantum=quantum)
            stops.append(_capture(machine, process, status))
        return stops

    _both(run)


def test_merged_slice_runs_straddling_probe_calls_whole():
    """With a quantum shorter than the call unit's span, every inlined
    whole run straddles a boundary: a lone thread's merged slice still
    takes the fast path."""
    machine = Machine()
    process, loaded, _, _ = _probe_process(machine, _module())
    start, count, span, whole, part = _call_unit(loaded)
    retired = []

    def counted(machine, thread):
        n = whole(machine, thread)
        retired.append(n)
        return n

    unit = (start, count, span, counted, part)
    loaded.block_table = [
        unit if u[0] == start else u for u in loaded.block_table
    ]
    assert machine.run(max_cycles=100_000, quantum=3) == "done"
    assert retired.count(span) > 30


# ----------------------------------------------------------------------
# Trace hit caches are per thread
# ----------------------------------------------------------------------
def _two_tracers(engine):
    """Two threads running the probe loop, each with its own buffer."""
    machine = Machine(engine=engine)
    process, loaded, a, _ = _probe_process(
        machine, _module(iterations=2_000), buffer_words=33
    )
    b = process.create_thread(a.pc, name="second")
    base, mapped = process.map_buffer("trace-second", 33)
    mapped.words[-1] = SENTINEL
    _point_at(b, base, mapped)
    return machine, process, a, b


def test_each_thread_keeps_its_trace_entry_across_switches(monkeypatch):
    """Two threads, each with its own trace buffer, switched every 40
    instructions: each fills the trace hit cache once and gets its entry
    back at every switch."""
    slow = []
    for name in ("trace_load", "trace_store", "trace_or"):
        method = getattr(Memory, name)

        def counted(self, *args, _method=method):
            slow.append(args[0])
            return _method(self, *args)

        monkeypatch.setattr(Memory, name, counted)
    machine, process, a, b = _two_tracers("block")
    memory = process.memory
    for _ in range(50):
        for thread in (a, b):
            machine.run_thread_slice(thread, 40)
            base, end, _ = memory._trace_hit
            assert base == thread.wrap_base and end == base + 33
    # One fill per thread: switching never evicts the other's entry.
    assert len(slow) == 2


@pytest.mark.parametrize("away", [0, 1, 40])
def test_buffer_unmapped_while_parked_faults_as_on_reference(away):
    """A's trace buffer is unmapped after A ran and B ran ``away``
    instructions (none: no switch): A's next probe faults as on the
    reference, never writing through a stale trace entry."""

    def run(engine):
        machine, process, a, b = _two_tracers(engine)
        machine.run_thread_slice(a, 40)
        if away:
            machine.run_thread_slice(b, away)
        segment = process.memory.segment_at(a.wrap_base)
        process.memory.unmap(segment)
        machine.run_thread_slice(a, 40)
        return _capture(machine, process, None)

    state = _both(run)
    assert state["exit_state"] == ExitState.FAULTED
    code, pc, _ = state["fault"]
    assert code == ExcCode.ACCESS_VIOLATION


# ----------------------------------------------------------------------
# The saving, as counts on instrumented kernels
# ----------------------------------------------------------------------
def _counted_kernel(name, max_cycles, monkeypatch):
    """Run instrumented ``name`` on the block engine, counting entries
    into the helper's units and calls of the memory's general slow
    paths.  Returns (status, wraps, helper entries, slow calls)."""
    slow = {"load": 0, "store": 0, "or_word": 0}
    for method in slow:
        original = getattr(Memory, method)

        def counted(self, *args, _name=method, _original=original):
            slow[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Memory, method, counted)
    module = compile_source(benchmark_named(name).source, name)
    module = instrument_module(module, InstrumentConfig()).module
    machine = Machine(engine="block")
    process = machine.create_process(name)
    runtime = TraceBackRuntime(process, RuntimeConfig())
    loaded = process.load_module(module)
    process.start()
    helper = loaded.module.func_named(HELPER_NAME)
    entries = [0]

    def counting(unit):
        start, count, span, whole, part = unit
        if not helper.start <= start < helper.end:
            return unit

        def counted_whole(machine, thread):
            entries[0] += 1
            return whole(machine, thread)

        def counted_part(machine, thread, s, e):
            entries[0] += 1
            part(machine, thread, s, e)

        return (start, count, span, counted_whole, part and counted_part)

    wrapped = {}
    loaded.block_table = [
        wrapped.setdefault(id(u), counting(u)) for u in blocks.bind_units(loaded)
    ]
    status = machine.run(max_cycles=max_cycles)
    return status, runtime.stats.wraps, entries[0], slow


@pytest.mark.parametrize(
    "name,max_cycles,status", [("parser", None, "done"), ("gzip", 200_000, "limit")]
)
def test_probe_fast_path_is_taken(name, max_cycles, status, monkeypatch):
    """The helper's own units run only on wraps (its BSENT unit, then
    the wrap path's CALLX and RET units), and probe traffic leaves the
    general hit caches alone.  Both runs read 19 wraps, 57 helper-unit
    entries, and 2 ``load`` and 2 ``store`` calls; before the fast path
    was inlined and the trace hit cache added, parser read 9,631
    entries and 14,405 slow-path calls, and gzip 9,513 and 14,053."""
    ran, wraps, entries, slow = _counted_kernel(name, max_cycles, monkeypatch)
    assert ran == status
    assert wraps > 10
    assert entries <= 3 * wraps + 3, (entries, wraps)
    assert sum(slow.values()) <= 6, slow
