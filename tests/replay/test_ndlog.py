"""The ``tb-ndlog/2`` container: validation, status, legacy compat.

These tests tamper with a recorded log's header, its rare-event list
and its format tag.  The packed columns' own byte-level checks live in
``test_ndlog_v2.py``.
"""

import json

import pytest

from repro.replay import (
    NDLOG_FORMAT_V2,
    ReplayUnavailable,
    config_from_dict,
    config_to_dict,
    decode_events,
    policy_from_dict,
    policy_to_dict,
    replayable_status,
    validate_ndlog,
)
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.snap import SnapFile


def _ndlog(workqueue_run) -> dict:
    """A private copy of the recorded log with one rare event, a kill
    after the last slice, appended (the workqueue run records none)."""
    ndlog = json.loads(json.dumps(workqueue_run.snap.replay["ndlog"]))
    ndlog["rare"].append([ndlog["slices"]["count"], ["k", 1 << 40]])
    ndlog["n_events"] += 1
    return ndlog


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_recorded_log_validates(workqueue_run):
    validate_ndlog(workqueue_run.snap.replay["ndlog"])
    validate_ndlog(_ndlog(workqueue_run))
    # The decoded stream is not a log: it carries no format tag.
    decoded = decode_events(workqueue_run.snap.replay["ndlog"])
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(decoded)
    assert excinfo.value.segment == "format"


def test_unknown_format_is_typed(workqueue_run):
    ndlog = _ndlog(workqueue_run)
    ndlog["format"] = "tb-ndlog/99"
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == "format"
    assert NDLOG_FORMAT_V2 in str(excinfo.value)


@pytest.mark.parametrize(
    "key", ["pid", "machine", "runtime_id", "config", "modules",
            "start_threads", "rpc_services"]
)
def test_missing_header_key_names_the_segment(workqueue_run, key):
    ndlog = _ndlog(workqueue_run)
    del ndlog["header"][key]
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == f"header.{key}"


#: A wrong-typed value for each header field, each config field and
#: each policy field; the key path is also the segment decode names.
WRONG_TYPED_HEADER = [
    ("pid", "x"),
    ("process_name", 7),
    ("machine", None),
    ("clock_skew", "0"),
    ("io_latency", 1.5),
    ("runtime_id", "7"),
    ("config", "x"),
    ("modules", {}),
    ("modules", [1]),
    ("start_threads", "x"),
    ("start_threads", [["t"]]),
    ("rpc_services", []),
    ("rpc_services", {"x": "serve"}),
    ("rpc_services", {"1": 5}),
    ("loopback_seqs", "0"),
    ("loopback_seqs", ["0"]),
    ("dagbase", "no"),
    ("config.sub_buffer_words", "x"),
    ("config.sub_buffers", None),
    ("config.main_buffers", 1.5),
    ("config.max_buffers", "8"),
    ("config.clock", 0),
    ("config.timestamp_syscalls", "on"),
    ("config.trace_slot", True),
    ("config.spill_slot", []),
    ("config.fail_dynamic_buffers", None),
    ("config.static_buffer_words", "64"),
    ("config.max_dag_id", 2.0),
    ("config.scavenge_interval", None),
    ("config.include_memory", "x"),
    ("config.policy", "x"),
    ("config.policy.exception_codes", "x"),
    ("config.policy.signals", ["9"]),
    ("config.policy.unhandled", None),
    ("config.policy.api", "x"),
    ("config.policy.hang", []),
    ("config.policy.suppress_duplicates", "x"),
    ("config.policy.max_snaps", "100"),
    ("config.policy.include_memory", None),
]


@pytest.mark.parametrize(
    "path,value",
    WRONG_TYPED_HEADER,
    ids=[f"{path}={value!r}" for path, value in WRONG_TYPED_HEADER],
)
def test_wrong_typed_header_field_names_the_segment(workqueue_run, path, value):
    """Decode refuses it by name: in the engine it would surface as a
    TypeError, ValueError or AttributeError, or be taken silently."""
    from repro.replay import ReplayEngine

    d = json.loads(json.dumps(workqueue_run.snap.to_dict()))
    *parents, key = path.split(".")
    doc = d["replay"]["ndlog"]["header"]
    for parent in parents:
        doc = doc[parent]
    doc[key] = value
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(SnapFile.from_dict(d))
    assert excinfo.value.segment == f"header.{path}"
    assert f"header.{path}" in str(excinfo.value)


def test_event_count_mismatch_is_truncation(workqueue_run):
    ndlog = _ndlog(workqueue_run)
    ndlog["rare"].pop()
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == "events"
    assert "truncated" in str(excinfo.value)


def test_malformed_event_names_its_index(workqueue_run):
    ndlog = _ndlog(workqueue_run)
    last = len(ndlog["rare"]) - 1
    ndlog["rare"][last][1] = ["??", 1, 2]
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == f"rare[{last}]"
    assert "'??'" in str(excinfo.value)


def test_wrong_arity_names_the_tag(workqueue_run):
    ndlog = _ndlog(workqueue_run)
    tag = ndlog["rare"][0][1][0]
    ndlog["rare"][0][1] = [tag]
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == "rare[0]"
    assert repr(tag) in str(excinfo.value)


# ----------------------------------------------------------------------
# Replayable status and legacy compatibility
# ----------------------------------------------------------------------
def test_status_full_seed_none(workqueue_run):
    snap = workqueue_run.snap
    assert replayable_status(snap.replay) == "full"
    assert replayable_status({"seed": snap.replay["seed"]}) == "seed-only"
    assert replayable_status({}) == "none"
    assert snap.replayable == "full"


def test_legacy_snap_round_trips_without_replay_key(workqueue_run):
    """A pre-replay snap dict has no ``replay`` key — and a snap with
    nothing to record must not grow one (byte-stable legacy digests)."""
    d = workqueue_run.snap.to_dict()
    assert "replay" in d
    d.pop("replay")
    legacy = SnapFile.from_dict(d)
    assert legacy.replayable == "none"
    assert "replay" not in legacy.to_dict()


def test_salvage_load_keeps_replay(workqueue_run):
    snap, notes = SnapFile.from_dict_salvage(workqueue_run.snap.to_dict())
    assert not notes
    assert snap.replayable == "full"


# ----------------------------------------------------------------------
# Config / policy round trip
# ----------------------------------------------------------------------
def test_config_round_trip():
    config = RuntimeConfig(
        policy=SnapPolicy.parse(
            "snap on unhandled\nsnap on exception\nsuppress duplicates on"
        ),
        main_buffers=4,
        max_buffers=6,
        record_replay=True,
    )
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.main_buffers == 4
    assert rebuilt.max_buffers == 6
    # The rebuilt config never re-records or re-stores: replay is a
    # read-only re-execution.
    assert rebuilt.record_replay is False
    assert rebuilt.snap_store is None
    assert policy_to_dict(rebuilt.policy) == policy_to_dict(config.policy)


def test_policy_round_trip_preserves_triggers():
    policy = SnapPolicy.parse("snap on unhandled\nsuppress duplicates on")
    assert policy_to_dict(policy_from_dict(policy_to_dict(policy))) == (
        policy_to_dict(policy)
    )
