"""The replay engine: deterministic re-execution with debugger controls."""

import json

import pytest

from repro.replay import ReplayDivergence, ReplayEngine, ReplayUnavailable
from repro.runtime.snap import SnapFile
from repro.vm import EngineSelectionError
from repro.vm.machine import ENGINE_ENV_VAR


def _fresh_snap(workqueue_run) -> SnapFile:
    """An independent copy — engines mutate nothing, but be sure."""
    return SnapFile.from_dict(workqueue_run.snap.to_dict())


# ----------------------------------------------------------------------
# Run to fault
# ----------------------------------------------------------------------
def test_run_to_fault_reaches_the_recorded_fault(workqueue_run):
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    stop = engine.run_to_fault()
    assert stop["reason"] == "fault"
    fault = workqueue_run.process.fault
    assert stop["fault"]["pc"] == fault.pc
    assert stop["fault"]["code"] == int(fault.code)
    assert stop["events_applied"] == stop["events_total"]
    assert engine.finished


def test_replayed_snap_matches_the_recording(workqueue_run):
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    engine.run_to_fault()
    replayed = engine.replayed_snap()
    source = workqueue_run.snap
    assert replayed.reason == source.reason
    assert replayed.clock == source.clock
    assert len(replayed.threads) == len(source.threads)


def test_replay_runs_on_machines_default_engine(workqueue_run, monkeypatch):
    """No engine named: the replay honours ``TBVM_ENGINE`` like any
    Machine."""
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert ReplayEngine(_fresh_snap(workqueue_run)).engine == "block"
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    assert engine.engine == "reference"
    assert engine.machine.engine == "reference"
    stop = engine.run_to_fault()
    assert stop["reason"] == "fault"
    assert stop["fault"]["pc"] == workqueue_run.process.fault.pc


def test_retired_fast_tier_is_refused(workqueue_run, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    with pytest.raises(EngineSelectionError) as excinfo:
        ReplayEngine(_fresh_snap(workqueue_run))
    message = str(excinfo.value)
    assert "'fast'" in message
    assert "block" in message and "reference" in message


# ----------------------------------------------------------------------
# Debugger surface
# ----------------------------------------------------------------------
def test_step_budget_stops_early(workqueue_run):
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    stop = engine.step(100)
    assert stop["reason"] == "step"
    assert not engine.finished
    assert stop["cycle"] < workqueue_run.snap.clock


def test_breakpoint_stops_before_the_fault(workqueue_run):
    fault_pc = workqueue_run.process.fault.pc
    engine = ReplayEngine(_fresh_snap(workqueue_run),
                          breakpoints=[fault_pc])
    stop = engine.cont()
    assert stop["reason"] == "breakpoint"
    assert stop["pc"] == fault_pc
    # The first hit precedes the fatal one: job 7 is not the first job.
    assert stop["cycle"] < workqueue_run.snap.clock
    # Resuming past every later hit still lands on the recorded fault.
    engine.remove_breakpoint(fault_pc)
    assert engine.cont()["reason"] == "fault"


def test_inspection_at_a_stop(workqueue_run):
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    stop = engine.run_to_fault()
    regs = engine.registers(stop["tid"])
    assert regs["tid"] == stop["tid"]
    assert len(regs["regs"]) >= 8
    frames = engine.backtrace(stop["tid"])
    assert frames and frames[0]["pc"] == stop["pc"]
    resolved = engine.resolve_pc(stop["pc"])
    assert resolved["func"] == "process"
    assert resolved["file"] == "server.c"
    listing = engine.threads()
    assert {t["tid"] for t in listing} >= {0, 1, 2, 3}


def test_read_memory_mapped_and_unmapped(workqueue_run):
    engine = ReplayEngine(_fresh_snap(workqueue_run))
    engine.step(50)
    thread = engine.current_thread()
    words = engine.read_memory(thread.pc & ~3, 4)
    assert len(words) == 4 and all(w is not None for w in words)
    assert engine.read_memory(0x7FFF_F000, 2) == [None, None]


# ----------------------------------------------------------------------
# Refusal and divergence
# ----------------------------------------------------------------------
def test_legacy_snap_refuses_with_segment(workqueue_run):
    d = workqueue_run.snap.to_dict()
    d.pop("replay")
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(SnapFile.from_dict(d))
    assert excinfo.value.segment == "ndlog"


def test_seed_only_snap_refuses(workqueue_run):
    d = workqueue_run.snap.to_dict()
    d["replay"] = {"seed": d["replay"]["seed"]}
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(SnapFile.from_dict(d))
    assert excinfo.value.segment == "ndlog"


def test_retired_v1_log_is_refused_by_name(unreadable_snaps):
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(unreadable_snaps["format"])
    assert excinfo.value.segment == "format"
    assert "'tb-ndlog/1'" in str(excinfo.value)
    assert "'tb-ndlog/2'" in str(excinfo.value)


def test_tampered_slice_is_a_divergence(workqueue_run):
    from repro.replay import decode_events, encode_ndlog

    d = json.loads(json.dumps(workqueue_run.snap.to_dict()))
    # Tamper in the decoded event stream, where the slice fields are
    # directly editable, then pack it again.
    decoded = decode_events(d["replay"]["ndlog"])
    # Shrink one scheduler slice: replay then executes fewer
    # instructions than the recording claims and must notice.
    ev = next(e for e in decoded["events"] if e[0] == "s" and e[3] > 1)
    ev[3] -= 1
    d["replay"]["ndlog"] = encode_ndlog(decoded["header"], decoded["events"])
    with pytest.raises(ReplayDivergence):
        ReplayEngine(SnapFile.from_dict(d)).run_to_fault()
