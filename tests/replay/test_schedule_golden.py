"""Golden regression: the scheduler's decisions are byte-stable.

Every recorded run is pinned by one sha256 over its raw event stream
(``ReplayRecorder.to_dict(version=1)``, uncoalesced: every slice's
thread, start cycle, instruction count and end pc, plus the rare
events) and the machine's final cycle count.  A
change to how the scheduler keeps its bookkeeping must not move a
single slice, so these digests must never change unless scheduling
itself is meant to.

The programs are the 62 seeded :func:`repro.workloads.random_crasher`
programs, instrumented and bare, plus :data:`TRANSITIONS`, which walks
the scheduler through every state change it handles: a sleep that
leaves every thread blocked (the clock fast-forwards), a mutex handed
from one waiter to the next, ``thread_create`` from inside a slice, an
I/O block, a signal posted by the host while its target sleeps, and a
process exit with a thread still blocked on a lock.  Seeds 0-11 and
the transitions program run in the default lane; seeds 12-61 are slow.

The golden pins recorded runs only: the replay recorder is a slice
hook, and slice hooks keep a run at one slice per quantum.  Unrecorded
runs give a lone runnable thread merged slices instead; the lap-stop
differential (``tests/vm/test_lap_stops.py``) checks that they stop,
wake and switch threads where per-quantum slices do.

The golden is ``tests/replay/golden/schedule_order.txt``; regenerate it,
only after an intentional scheduling change, with::

    PYTHONPATH=src python -m tests.replay.test_schedule_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import TraceSession
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.vm import ExitState, Signal
from tests.replay.test_differential_replay import (
    FAST_SEEDS,
    SLOW_SEEDS,
    run_random,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "schedule_order.txt"

REGENERATE = "PYTHONPATH=src python -m tests.replay.test_schedule_golden"

#: Cycle at which the host posts SIGTERM to :data:`TRANSITIONS`: the
#: main thread is asleep then and the workers are mid-run.
SIGNAL_CYCLE = 3_000

TRANSITIONS = """
int shared[4];
int flag;

int on_term(int signum) {
    flag = flag + signum;
    return 0;
}

int spinner(int wid) {
    int i;
    int acc;
    acc = wid;
    for (i = 0; i < 30; i = i + 1) {
        acc = acc * 3 + i;
    }
    shared[3] = acc;
    return 0;
}

int holder(int wid) {
    lock(1);
    sleep(300);
    shared[0] = shared[0] + wid;
    unlock(1);
    io_read(2);
    return 0;
}

int waiter(int wid) {
    int i;
    int acc;
    acc = wid;
    for (i = 0; i < 50; i = i + 1) {
        acc = acc + i;
    }
    lock(1);
    shared[wid % 4] = acc;
    unlock(1);
    thread_create(spinner, wid);
    sleep(500);
    return 0;
}

int stuck(int wid) {
    lock(2);
    shared[2] = wid;
    return 0;
}

int main() {
    int t;
    signal(15, on_term);
    lock(2);
    thread_create(holder, 1);
    for (t = 2; t < 4; t = t + 1) {
        thread_create(waiter, t);
    }
    thread_create(stuck, 4);
    sleep(20000);
    while (flag == 0) {
        yield();
    }
    print_int(shared[0] + shared[1] + shared[2] + shared[3]);
    exit(0);
    return 0;
}
"""


def run_transitions(instrument: bool):
    """Record :data:`TRANSITIONS`, posting SIGTERM at :data:`SIGNAL_CYCLE`."""
    reset_runtime_ids()
    session = TraceSession(
        process_name="sched",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(
        TRANSITIONS, name="sched", file_name="sched.c", instrument=instrument
    )
    session.process.start("sched")
    assert session.machine.run(max_cycles=SIGNAL_CYCLE) == "limit"
    session.process.post_signal(Signal.TERM)
    assert session.machine.run(max_cycles=1_000_000) == "done"
    process = session.process
    assert process.exit_state == ExitState.EXITED
    assert process.threads[4].block_reason == "lock-2"  # stopped blocked
    return session.runtime, session.machine


def schedule_digest(runtime, machine) -> str:
    """sha256 of the run's raw event stream and final cycle count."""
    events = runtime.recorder.to_dict(version=1)["events"]
    blob = json.dumps(
        {"events": events, "cycles": machine.cycles},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def program_digest(name: str) -> str:
    """Record the program a golden line names and digest its schedule."""
    kind, _, mode = name.rpartition("-")
    instrument = mode == "instrumented"
    if kind == "transitions":
        return schedule_digest(*run_transitions(instrument))
    run = run_random(int(kind.split("-")[1]), instrument)
    return schedule_digest(run.runtime, run.process.machine)


def program_names(kinds) -> list[str]:
    return [f"{kind}-{mode}" for kind in kinds for mode in ("instrumented", "bare")]


FAST_PROGRAMS = program_names(
    ["transitions"] + [f"random-{seed}" for seed in FAST_SEEDS]
)
SLOW_PROGRAMS = program_names(f"random-{seed}" for seed in SLOW_SEEDS)


def load_golden() -> dict[str, str]:
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digest = line.split()
            golden[name] = digest
    return golden


def test_golden_lists_every_program():
    assert sorted(load_golden()) == sorted(FAST_PROGRAMS + SLOW_PROGRAMS)


@pytest.mark.parametrize("name", FAST_PROGRAMS)
def test_schedule_matches_golden_fast(name):
    assert program_digest(name) == load_golden()[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_PROGRAMS)
def test_schedule_matches_golden(name):
    assert program_digest(name) == load_golden()[name]


def regenerate() -> None:
    lines = [
        "# Scheduling-order golden: per program, sha256 of its raw ndlog",
        "# event stream (uncoalesced) and final machine cycle count.",
        f"# Generated by: {REGENERATE}",
    ]
    lines += [
        f"{name} {program_digest(name)}" for name in FAST_PROGRAMS + SLOW_PROGRAMS
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    regenerate()
