"""Lap-stop differential: a lone thread's merged slices stop, wake,
switch and fault exactly where one slice per quantum does.

``Machine.run`` gives the only runnable thread one slice up to a cycle
horizon (``max_cycles`` or the earliest timed wake), and the block
engine runs its quanta back to back inside it; the reference engine
keeps one quantum per slice and is the oracle.  These tests run one
module on both engines in ``max_cycles`` laps and compare the machine
at every stop: the cycle count, the exit state, the output, and each
thread's state, pc, registers and instruction count.

* Programs: the five Table 1 kernels (bare and instrumented, their first
  :data:`KERNEL_CYCLES` cycles), seeded :func:`random_crasher` programs
  (threads created while one runs alone, sleeps, lock hand-offs, and a
  fault), and the scheduling golden's :data:`TRANSITIONS`, with the host
  posting SIGTERM between laps at :data:`SIGNAL_CYCLE`.
* Laps of :data:`LAPS` cycles, quanta of :data:`QUANTA` instructions
  (1 and 7 put several boundaries inside one unit).

The default lane runs :data:`FAST_CASES`; the full sweep is slow.  The
saving itself is pinned by counts at the end of this file.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.instrument import InstrumentConfig, instrument_module
from repro.isa import assemble
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, TraceBackRuntime
from repro.runtime.sync import reset_runtime_ids
from repro.vm import Machine, Signal
from repro.vm.blocks import bind_units
from repro.workloads import benchmark_named, random_crasher
from tests.replay.test_schedule_golden import SIGNAL_CYCLE, TRANSITIONS

LAPS = (997, 7_919, 100_000)
QUANTA = (1, 7, 40, 50)

#: Cycles of each kernel the sweep runs: two of the longest laps.
KERNEL_CYCLES = 200_000
KERNELS = ("mcf", "gzip", "parser", "crafty", "gap")
CRASHER_SEEDS = range(12)

#: Cap for the programs that run to their end (they end by 30k cycles).
END_CYCLES = 1_000_000


def _source(program: str) -> tuple[str, int]:
    """MiniC source of ``program`` and the cycle its laps stop at."""
    if program == "transitions":
        return TRANSITIONS, END_CYCLES
    if program.startswith("crasher"):
        return random_crasher(int(program.split("-")[1])), END_CYCLES
    return benchmark_named(program).source, KERNEL_CYCLES


@cache
def _module(program: str, instrument: bool):
    module = compile_source(_source(program)[0], program.split("-")[0])
    if instrument:
        module = instrument_module(module, InstrumentConfig()).module
    return module


def _state(machine, process, status) -> tuple:
    return (
        status,
        machine.cycles,
        process.exit_state,
        process.exit_code,
        tuple(process.output),
        tuple(
            (tid, t.state, t.pc, tuple(t.regs), t.instructions)
            for tid, t in sorted(process.threads.items())
        ),
    )


def lap_stops(
    program: str, instrument: bool, engine: str, lap: int, quantum: int
) -> list[tuple]:
    """The machine's state at every stop of ``program`` run on
    ``engine`` in laps of ``lap`` cycles."""
    _, limit = _source(program)
    reset_runtime_ids()
    machine = Machine(engine=engine)
    process = machine.create_process(program)
    if instrument:
        TraceBackRuntime(process, RuntimeConfig())
    process.load_module(_module(program, instrument))
    process.start()
    targets = set(range(lap, limit + lap, lap))
    if program == "transitions":
        targets.add(SIGNAL_CYCLE)
    stops = []
    for target in sorted(targets):
        status = machine.run(max_cycles=target, quantum=quantum)
        stops.append(_state(machine, process, status))
        if target == SIGNAL_CYCLE and program == "transitions":
            process.post_signal(Signal.TERM)
        if status != "limit":
            break
    return stops


def assert_same_stops(program, instrument, lap, quantum) -> list[tuple]:
    block = lap_stops(program, instrument, "block", lap, quantum)
    reference = lap_stops(program, instrument, "reference", lap, quantum)
    for n, (b, r) in enumerate(zip(block, reference)):
        assert b == r, f"stop {n} (of {len(reference)}): block {b} != reference {r}"
    assert len(block) == len(reference)
    return reference


PROGRAMS = [
    *KERNELS,
    *(f"crasher-{seed}" for seed in CRASHER_SEEDS),
    "transitions",
]

SWEEP = [
    pytest.param(program, instrument, lap, quantum, id=(
        f"{program}-{'instrumented' if instrument else 'bare'}-lap{lap}-q{quantum}"
    ))
    for program in PROGRAMS
    for instrument in (False, True)
    for lap in LAPS
    for quantum in QUANTA
]

#: The default lane's subset: every program kind, quantum and lap.
FAST_CASES = [
    ("transitions", False, 997, 1),
    ("transitions", True, 997, 40),
    ("transitions", False, 7_919, 7),
    ("transitions", True, 100_000, 50),
    ("crasher-0", True, 997, 7),
    ("crasher-1", False, 997, 1),
    ("crasher-2", True, 997, 50),
    ("crasher-3", False, 997, 40),
    ("parser", True, 7_919, 7),
]


@pytest.mark.parametrize("program,instrument,lap,quantum", FAST_CASES)
def test_lap_stops_match_reference(program, instrument, lap, quantum):
    stops = assert_same_stops(program, instrument, lap, quantum)
    assert len(stops) > 1


@pytest.mark.slow
@pytest.mark.parametrize("program,instrument,lap,quantum", SWEEP)
def test_lap_stop_sweep(program, instrument, lap, quantum):
    assert_same_stops(program, instrument, lap, quantum)


def test_transitions_merge_and_split_slices(slice_entries):
    """The subset is not vacuous: on the block engine TRANSITIONS runs
    merged slices (with a horizon, longer than a quantum) while one
    thread is runnable, and one quantum per slice while several are."""
    lap_stops("transitions", False, "block", 997, 40)
    merged = [n for _, n, horizon in slice_entries if horizon is not None]
    single = [n for _, n, horizon in slice_entries if horizon is None]
    assert max(merged) > 40
    assert single and max(single) == 40


# ----------------------------------------------------------------------
# The quantum must be positive
# ----------------------------------------------------------------------
@pytest.mark.parametrize("quantum", [0, -5])
def test_run_refuses_a_quantum_below_one(quantum):
    """A quantum below 1 never advances the clock, so ``run`` would spin
    even with ``max_cycles`` set: it is refused before anything runs."""
    machine = Machine()
    process = machine.create_process("q")
    process.load_module(_module("parser", False))
    thread = process.start()
    with pytest.raises(ValueError, match=f"got {quantum}"):
        machine.run(max_cycles=1_000, quantum=quantum)
    assert machine.cycles == 0 and not thread.started


def test_run_thread_slice_of_zero_runs_only_the_prologue():
    """Replay's prologue-only slices: ``run_thread_slice(thread, 0)``
    starts the thread and retires nothing."""
    machine = Machine()
    process = machine.create_process("q")
    process.load_module(_module("parser", False))
    thread = process.start()
    machine.run_thread_slice(thread, 0)
    assert thread.started and thread.instructions == 0 and machine.cycles == 0


# ----------------------------------------------------------------------
# What a lone thread's laps cost
# ----------------------------------------------------------------------
def _count_partial_runs(loaded, counts):
    """Rebind ``loaded``'s unit table with counting partial runs:
    ``partial`` counts the runs that split a unit, ``plain`` those that
    run all of a unit whose whole run would inline a probe call, keeping
    the plain ``CALL`` because the helper's instructions did not fit."""
    wrapped = {}

    def counting(unit):
        start, count, span, whole, part = unit
        if part is None:
            return unit

        def counted_part(machine, thread, s, e):
            if s or e < count:
                counts["partial"] += 1
            else:
                assert span > count, "a plain unit ran partially"
                counts["plain"] += 1
            part(machine, thread, s, e)

        return (start, count, span, whole, counted_part)

    table = [
        wrapped.setdefault(id(unit), counting(unit)) for unit in bind_units(loaded)
    ]
    loaded.block_table = table
    return table


@pytest.fixture
def slice_entries(monkeypatch):
    """Every ``Machine.run_thread_slice`` call: (tid, instructions
    retired, horizon or None)."""
    calls = []
    run_thread_slice = Machine.run_thread_slice

    def counting(self, thread, quantum, *, horizon=None):
        before = thread.instructions
        run_thread_slice(self, thread, quantum, horizon=horizon)
        calls.append((thread.tid, thread.instructions - before, horizon))

    monkeypatch.setattr(Machine, "run_thread_slice", counting)
    return calls


def test_lone_thread_laps_enter_one_slice_each(slice_entries):
    """An instrumented kernel in 100,000-cycle laps: one slice per lap,
    and at most two partial runs (one resumes the unit the last lap
    stopped in, one stops in a unit on the lap's boundary).  A probe
    call whose helper straddles that boundary runs its unit with the
    plain ``CALL``, at most once per lap.  With one slice per quantum,
    each lap entered about 2,450 slices and made about 4,000 partial
    runs."""
    counts = {"partial": 0, "plain": 0}
    machine = Machine()
    process = machine.create_process("gap")
    TraceBackRuntime(process, RuntimeConfig())
    loaded = process.load_module(_module("gap", True))
    process.start()
    table = _count_partial_runs(loaded, counts)
    laps = []
    status, target = "limit", 0
    while status == "limit":
        target += 100_000
        entries, partial, plain = (
            len(slice_entries), counts["partial"], counts["plain"]
        )
        status = machine.run(max_cycles=target)
        laps.append((
            len(slice_entries) - entries,
            counts["partial"] - partial,
            counts["plain"] - plain,
        ))
    assert status == "done"
    assert loaded.block_table is table  # the counting table ran throughout
    assert len(laps) > 10
    assert all(entries == 1 for entries, _, _ in laps), laps
    assert all(partial <= 2 for _, partial, _ in laps), laps
    assert all(plain <= 1 for _, _, plain in laps), laps


TWO_SPINNERS = """
.module t
.entry main
.func main
spin:
  addi r1, r1, 1
  br spin
.endfunc
"""


def test_two_runnable_threads_keep_one_quantum_per_slice(slice_entries):
    machine = Machine()
    process = machine.create_process("t")
    process.load_module(assemble(TWO_SPINNERS))
    a = process.start()
    b = process.create_thread(a.pc, name="second")
    assert machine.run(max_cycles=4_000) == "limit"
    assert slice_entries == [
        (tid, 40, None) for _ in range(50) for tid in (a.tid, b.tid)
    ]
