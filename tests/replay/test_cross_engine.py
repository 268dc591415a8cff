"""Cross-tier replay differential: record on one engine, replay on
another.

The nondeterminism log records *instruction-count* slice boundaries and
event positions, so replay must land on identical instruction boundaries
regardless of which interpreter tier retires them.  The tier-3 block
engine compiles multi-instruction units and runs them partially where a
forced slice ends mid-unit, which makes this the sharpest test of its
slice-boundary contract: a unit that ever overran a forced slice would
shift every subsequent event.

Both directions are exercised over the seeded ``random_crasher``
programs (locks, sleeps, helper calls, a planted fault): the fast lane
runs seeds 0..11, the slow lane (``scripts/check.sh tier3``) the
remaining 12..61 — the same 62-program population as the same-engine
replay suite.
"""

import pytest

from repro import TraceSession
from repro.reconstruct import (
    Reconstructor,
    control_flow_signature,
    diff_control_flow,
    snap_signature,
)
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.vm import Machine
from repro.workloads import random_crasher

FAST_SEEDS = range(12)
SLOW_SEEDS = range(12, 62)


def record_random(seed: int, engine: str):
    """Record one seeded crasher on the given interpreter tier."""
    reset_runtime_ids()
    session = TraceSession(
        machine=Machine(engine=engine),
        process_name=f"rnd{seed}",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(
        random_crasher(seed), name="rnd", file_name="rnd.c", instrument=True
    )
    return session.run(max_cycles=30_000_000)


def assert_cross_replay(run, replay_engine: str) -> None:
    """Replay ``run``'s snap on ``replay_engine``; demand event-identical
    control flow and an unchanged crash signature."""
    snap = run.snap
    assert snap is not None and snap.replayable == "full"
    engine = ReplayEngine(snap, engine=replay_engine)
    stop = engine.run_to_fault()
    assert stop["reason"] == "fault"
    assert stop["fault"]["pc"] == run.process.fault.pc
    assert stop["fault"]["code"] == int(run.process.fault.code)

    recon = Reconstructor(run.mapfiles)
    recorded = recon.reconstruct(snap)
    replayed = recon.reconstruct(engine.replayed_snap())
    diffs = diff_control_flow(recorded, replayed)
    assert not diffs, "\n".join(diffs)
    assert control_flow_signature(recorded) == control_flow_signature(replayed)
    assert snap_signature(snap, run.mapfiles) == snap_signature(
        engine.replayed_snap(), run.mapfiles
    )


def assert_both_directions(seed: int) -> None:
    """Record on block, replay on reference — and vice versa.  The two
    recordings must also carry identical crash signatures: the recording
    tier is not allowed to leave a fingerprint in the evidence."""
    block_run = record_random(seed, "block")
    assert_cross_replay(block_run, "reference")
    reference_run = record_random(seed, "reference")
    assert_cross_replay(reference_run, "block")
    assert snap_signature(block_run.snap, block_run.mapfiles) == snap_signature(
        reference_run.snap, reference_run.mapfiles
    )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_cross_engine_replay(seed):
    assert_both_directions(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_cross_engine_replay_full_sweep(seed):
    assert_both_directions(seed)
