"""Coalesced-vs-uncoalesced differential sweep: one recording, packed
both ways, replays to the identical fault on every engine tier.

Each seeded crasher is recorded once.  Its snap carries the
``tb-ndlog/2`` log the encoder coalesced (contiguous same-thread slices
merged); ``encode_ndlog`` of the recorder's raw stream
(``ReplayRecorder.to_dict(version=1)``) without end cycles packs every
slice as the scheduler ran it.  The oracle replays both logs on each
interpreter tier and asserts the replays are event-identical: same
fault pc/code, same per-thread control flow, same crash signature.
Coalescing makes the log shorter; it must never make the *replay*
different.  The test names keep the recorder's version numbers: v1 is
the raw stream, v2 the log the snap embeds.

Seeds 0..5 run in the default lane; the full 62-seed sweep is ``slow``
(run via ``scripts/check.sh replay``).
"""

import pytest

from repro import TraceSession
from repro.reconstruct import (
    Reconstructor,
    control_flow_signature,
    diff_control_flow,
)
from repro.replay import ReplayEngine, decode_events, encode_ndlog
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.snap import SnapFile
from repro.runtime.sync import reset_runtime_ids
from repro.vm.machine import ENGINES
from repro.workloads import random_crasher

FAST_SEEDS = range(6)
SLOW_SEEDS = range(6, 62)


def _record(seed: int):
    reset_runtime_ids()
    session = TraceSession(
        process_name=f"rnd{seed}",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(random_crasher(seed), name="rnd", file_name="rnd.c")
    return session.run(max_cycles=30_000_000)


def _instructions(events) -> int:
    return sum(e[3] for e in events if e[0] == "s")


def assert_v1_v2_equivalent(seed: int, engines) -> None:
    run = _record(seed)
    coalesced = run.snap
    assert coalesced is not None
    # The raw stream as the run left it: the faulting slice closed at
    # the fault, every other slice as the scheduler ran it.
    raw = run.runtime.recorder.to_dict(version=1)
    d = coalesced.to_dict()
    d["replay"] = {
        **d["replay"],
        "ndlog": encode_ndlog(raw["header"], raw["events"]),
    }
    uncoalesced = SnapFile.from_dict(d)
    # Same run: the two logs cover the same instructions.
    packed = decode_events(coalesced.replay["ndlog"])["events"]
    assert _instructions(packed) == _instructions(raw["events"])
    recon = Reconstructor(run.mapfiles)
    for engine in engines:
        stops = []
        traces = []
        for snap in (uncoalesced, coalesced):
            eng = ReplayEngine(snap, engine=engine)
            stops.append(eng.run_to_fault())
            traces.append(recon.reconstruct(eng.replayed_snap()))
        s1, s2 = stops
        assert s1["reason"] == s2["reason"] == "fault", (engine, s1, s2)
        assert s1["fault"] == s2["fault"], engine
        assert s1["pc"] == s2["pc"], engine
        diffs = diff_control_flow(traces[0], traces[1])
        assert not diffs, f"{engine}: " + "\n".join(diffs)
        assert control_flow_signature(traces[0]) == control_flow_signature(
            traces[1]
        ), engine


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_v1_v2_replay_identically_fast(seed):
    assert_v1_v2_equivalent(seed, ENGINES)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_v1_v2_replay_identically(seed):
    assert_v1_v2_equivalent(seed, ENGINES)
