"""The scheduler's cached thread lists and the per-thread memory hit
caches: what they save, and that saved state never outlives what it
describes.

* Each thread gets its own set of the memory's hit-cache entries
  back when it is switched in — unless a segment was mapped or unmapped
  while it was away, in which case it must see the new address space at
  once: an unmapped segment faults exactly as on the reference engine,
  and a freshly mapped one is readable.
* A multi-thread recording costs no ``segment_at`` lookups and no
  live-list rebuilds per slice in steady state (the crasher below made
  4.0 lookups and 2.0 rebuilds per slice when every switch evicted the
  incoming thread's stack and trace-buffer segments and every slice
  rebuilt the lists).
"""

import re
from pathlib import Path

import pytest

import repro
from repro import TraceSession
from repro.isa import assemble
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.vm import ENGINES, ExcCode, ExitState, Machine
from repro.vm.memory import Memory

#: ``toucher(base)`` reads and writes ``base[0]`` forever; ``main``
#: spins without touching data.
TOUCH = """
.module t
.entry main
.func main
spin:
  br spin
.endfunc
.func toucher
loop:
  ldw r1, r0, 0
  addi r1, r1, 1
  stw r1, r0, 0
  br loop
.endfunc
"""


def _func_pc(process, name: str) -> int:
    loaded = process.loader.modules()[0]
    return loaded.code_base + loaded.module.func_named(name).start


def run_unmapped_while_away(engine: str, away_slice: int):
    """Thread A touches a segment, B runs ``away_slice`` instructions
    (none: no switch at all), the segment is unmapped, A runs again.
    Returns the architectural outcome."""
    machine = Machine(engine=engine)
    process = machine.create_process("t")
    process.load_module(assemble(TOUCH))
    base = process.alloc_words(4, name="victim")
    segment = process.memory.segment_at(base)
    a = process.create_thread(_func_pc(process, "toucher"), arg=base)
    b = process.create_thread(_func_pc(process, "main"))
    machine.run_thread_slice(a, 37)
    assert process.memory.load(base) > 0  # A really wrote it
    if away_slice:
        machine.run_thread_slice(b, away_slice)
    process.memory.unmap(segment)
    machine.run_thread_slice(a, 40)
    fault = process.fault
    return {
        "exit_state": process.exit_state,
        "fault": None if fault is None else (int(fault.code), fault.pc),
        "pc": a.pc,
        "regs": list(a.regs),
        "instructions": a.instructions,
        "cycles": machine.cycles,
    }


@pytest.mark.parametrize("away_slice", [0, 1, 40])
def test_segment_unmapped_while_away_faults_as_on_reference(away_slice):
    outcomes = {
        engine: run_unmapped_while_away(engine, away_slice)
        for engine in ENGINES
    }
    block = outcomes["block"]
    assert block["exit_state"] == ExitState.FAULTED
    code, pc = block["fault"]
    assert code == ExcCode.ACCESS_VIOLATION
    assert pc == block["pc"]  # faulted on its first access after the switch
    assert block == outcomes["reference"]


SBRK_HANDOFF = """
.module t
.entry main
.func main
  la r0, reader
  li r1, 0
  sys 11            ; thread_create(reader, 0)
  li r3, 100
wait:
  addi r3, r3, -1   ; let the reader run a few slices first
  bnz r3, wait
  li r0, 4
  sys 6             ; sbrk(4): maps a new segment
  li r1, 77
  stw r1, r0, 2
  la r2, ptr
  stw r0, r2, 0     ; publish the new segment's base
  li r3, 4000
park:
  addi r3, r3, -1
  bnz r3, park
  halt
.endfunc
.func reader
  la r2, ptr
  li r3, 0
warm:
  ldw r1, r2, 1     ; keeps the data segment in its caches
  addi r3, r3, 1
  ldw r0, r2, 0
  bz r0, warm
  ldw r0, r0, 2     ; first touch of the segment mapped while away
  sys 1
  mov r0, r3
  sys 1             ; how many times it polled
  li r0, 0
  sys 4
.endfunc
.data
ptr: .word 0
pad: .word 5
"""


def test_segment_mapped_while_away_is_readable_at_once():
    outputs = {}
    for engine in ENGINES:
        machine = Machine(engine=engine)
        process = machine.create_process("t")
        process.load_module(assemble(SBRK_HANDOFF))
        process.start()
        assert machine.run(max_cycles=1_000_000) == "done"
        assert process.exit_state == ExitState.EXITED
        assert process.threads[1].exit_code == 0
        outputs[engine] = (process.output, machine.cycles)
    value, polls = outputs["block"][0]
    assert value == "77"
    assert int(polls) > 10  # it ran, caches warm, before the map
    assert outputs["block"] == outputs["reference"]


def test_switch_keeps_each_threads_entries():
    """A, B, A with no map in between: A gets its own entries back."""
    machine = Machine()
    process = machine.create_process("t")
    process.load_module(assemble(TOUCH))
    base_a = process.alloc_words(4, name="a")
    base_b = process.alloc_words(4, name="b")
    a = process.create_thread(_func_pc(process, "toucher"), arg=base_a)
    b = process.create_thread(_func_pc(process, "toucher"), arg=base_b)
    memory = process.memory
    machine.run_thread_slice(a, 40)
    a_caches = (memory._read_hit, memory._write_hit)
    assert a_caches[0][0] <= base_a < a_caches[0][1]
    machine.run_thread_slice(b, 40)
    assert memory._read_hit[0] <= base_b < memory._read_hit[1]
    machine.run_thread_slice(a, 40)
    assert (memory._read_hit, memory._write_hit) == a_caches


def test_scheduler_inputs_are_written_only_inside_the_vm():
    """The cached thread lists are rebuilt when ``sched_epoch`` moves,
    which the VM's own state-changing methods guarantee; a write to
    thread or process state from outside ``repro.vm`` would bypass
    them and leave the scheduler picking a thread that cannot run."""
    package = Path(repro.__file__).resolve().parent
    write = re.compile(
        r"\.(exit_state|wake_cycle)\s*=[^=]|\.state\s*=\s*ThreadState\b"
    )
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in package.rglob("*.py")
        if path.parent.name != "vm"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if write.search(line)
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# What a multi-thread slice costs
# ----------------------------------------------------------------------
#: The replay benchmark's 3-worker crasher with its loop bound at 400.
CRASHER_400 = """
int shared[4];

int worker(int wid) {
    int i;
    int acc;
    acc = wid;
    for (i = 0; i < 400; i = i + 1) {
        acc = acc + i * 3;
        if (i % 4096 == 0) {
            lock(1);
            shared[wid % 4] = acc;
            unlock(1);
        }
    }
    return 1000 / (acc - acc);
}

int main() {
    int t;
    for (t = 0; t < 3; t = t + 1) {
        thread_create(worker, t);
    }
    sleep(4000000);
    return 0;
}
"""


@pytest.fixture
def counted(monkeypatch):
    """Counts ``Memory.segment_at`` calls and live-list rebuilds."""
    counts = {"segment_at": 0, "live_lists": 0}
    segment_at = Memory.segment_at
    live_threads = Machine._live_threads

    def counting_segment_at(self, addr):
        counts["segment_at"] += 1
        return segment_at(self, addr)

    def counting_live_threads(self):
        counts["live_lists"] += 1
        return live_threads(self)

    monkeypatch.setattr(Memory, "segment_at", counting_segment_at)
    monkeypatch.setattr(Machine, "_live_threads", counting_live_threads)
    return counts


def test_multi_thread_slices_cost_no_lookups_or_rebuilds(counted):
    reset_runtime_ids()
    session = TraceSession(
        process_name="replay-bench",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
            sub_buffer_words=256,
        ),
    )
    session.add_minic(CRASHER_400, name="bench", file_name="bench.c")
    counted.update(segment_at=0, live_lists=0)
    run = session.run(max_cycles=10_000_000)
    assert run.process.exit_state == ExitState.FAULTED
    events = run.runtime.recorder.to_dict(version=1)["events"]
    slices = sum(1 for ev in events if ev[0] == "s")
    assert slices > 1_000
    assert len({ev[1] for ev in events if ev[0] == "s"}) == 4
    assert counted["segment_at"] < 0.1 * slices, counted
    assert counted["live_lists"] < 0.05 * slices, counted

    counted.update(segment_at=0, live_lists=0)
    stop = ReplayEngine(run.snap).run_to_fault()
    assert stop["reason"] == "fault"
    assert counted["segment_at"] < 0.1 * slices, counted
    assert counted["live_lists"] < 0.05 * slices, counted
