"""The packed ``tb-ndlog/2`` encoding: round trips, golden bytes,
coalescing rules, and the strict byte-level decoder.

The container checks on a recorded log live in ``test_ndlog.py``; the
coalesced-vs-uncoalesced replay equivalence sweep lives in
``test_v2_differential.py``.
"""

import base64
import copy
import json

import pytest

from repro.replay import (
    NDLOG_FORMAT_V2,
    ReplayUnavailable,
    decode_events,
    encode_ndlog,
    validate_ndlog,
)

HEADER = {
    "pid": 1,
    "process_name": "p",
    "machine": "m",
    "clock_skew": 0,
    "io_latency": 0,
    "runtime_id": 7,
    "config": {},
    "modules": [],
    "start_threads": [],
    "rpc_services": {},
}

EVENTS = [
    ["s", 1, 0, 0, 4],
    ["s", 1, 10, 40, 100],
    ["s", 2, 50, 40, 200],
    ["sig", 9],
    ["s", 1, 95, 40, 104],
    ["s", 1, 140, 37, 101, 1],
]
END_CYCLES = [10, 50, 90, None, 135, None]


def _encode(events=EVENTS, end_cycles=None):
    return encode_ndlog(HEADER, [list(e) for e in events], end_cycles)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_exact_round_trip_without_end_cycles():
    """No end-cycle evidence -> no coalescing -> decode == input."""
    v2 = _encode()
    assert v2["format"] == NDLOG_FORMAT_V2
    decoded = decode_events(v2)
    assert "format" not in decoded
    assert decoded["events"] == EVENTS
    assert decoded["n_events"] == len(EVENTS)


def test_round_trip_preserves_event_order_around_rares():
    events = [
        ["sig", 5],
        ["s", 1, 0, 3, 10],
        ["rr", 0, 7, 0, [1], None],
        ["rs", 8, 7, [2], 1, None],
        ["s", 2, 9, 3, 20],
        ["k", 30],
    ]
    assert decode_events(_encode(events))["events"] == events


def test_recorded_log_round_trips(workqueue_run):
    """Decode the recorded v2 snap log, re-encode columnar (without
    coalescing evidence), decode again: a fixed point."""
    raw = workqueue_run.snap.replay["ndlog"]
    assert raw["format"] == NDLOG_FORMAT_V2
    decoded = decode_events(raw)
    again = decode_events(encode_ndlog(decoded["header"], decoded["events"]))
    assert again["events"] == decoded["events"]


def test_negative_values_round_trip():
    """Zigzag columns carry descending sequences (end pcs jump back)."""
    events = [
        ["s", 1, 0, 5, 1000],
        ["s", 2, 100, 5, 3],
        ["s", 1, 200, 2, 500],
    ]
    assert decode_events(_encode(events))["events"] == events


# ----------------------------------------------------------------------
# Byte-stable golden encoding
# ----------------------------------------------------------------------
def test_golden_encoding_is_byte_stable():
    """The exact column bytes are part of the format contract: any
    codec change that moves them is a wire-format break and must bump
    the version tag instead."""
    v2 = _encode(EVENTS, END_CYCLES)
    assert v2["slices"] == {
        "count": 5,
        "tids": "AQICAQEC",
        "starts": "ABRQWlo=",
        "counts": "AFAAAAU=",
        "end_pcs": "CMAByAG/AQU=",
        "partial": [4],
    }
    assert v2["rare"] == [[3, ["sig", 9]]]
    assert v2["n_events"] == 6
    # And the container is pure JSON (snaps embed it verbatim).
    assert json.loads(json.dumps(v2)) == v2


# ----------------------------------------------------------------------
# Coalescing rules
# ----------------------------------------------------------------------
def _slices(v2) -> int:
    return v2["slices"]["count"]


def test_contiguous_same_thread_slices_coalesce():
    events = [
        ["s", 1, 10, 40, 100],
        ["s", 1, 50, 40, 120],
        ["s", 1, 90, 40, 140],
    ]
    v2 = _encode(events, [50, 90, 130])
    assert _slices(v2) == 1
    assert decode_events(v2)["events"] == [["s", 1, 10, 120, 140]]


def test_noncontiguous_cycles_do_not_coalesce():
    """Another process advanced the shared clock in between: the gap
    is real nondeterminism and must stay a forced boundary."""
    events = [["s", 1, 10, 40, 100], ["s", 1, 55, 40, 120]]
    v2 = _encode(events, [50, 95])
    assert _slices(v2) == 2


def test_other_thread_breaks_the_run():
    events = [
        ["s", 1, 10, 40, 100],
        ["s", 2, 50, 40, 200],
        ["s", 1, 90, 40, 120],
    ]
    v2 = _encode(events, [50, 90, 130])
    assert _slices(v2) == 3


def test_rare_event_breaks_the_run():
    """A signal delivered between two slices must stay between them."""
    events = [
        ["s", 1, 10, 40, 100],
        ["sig", 9],
        ["s", 1, 50, 40, 120],
    ]
    v2 = _encode(events, [50, None, 90])
    assert _slices(v2) == 2
    assert decode_events(v2)["events"] == events


def test_prologue_slice_never_merges():
    """n == 0 slices (thread_started hook, signal death) are their own
    forced points."""
    events = [["s", 1, 10, 0, 4], ["s", 1, 10, 40, 100]]
    v2 = _encode(events, [10, 50])
    assert _slices(v2) == 2


def test_partial_slice_terminates_but_never_continues():
    """The open-at-snap slice may absorb into its predecessor (the
    merged slice stays partial) but nothing merges after it."""
    events = [
        ["s", 1, 10, 40, 100],
        ["s", 1, 50, 7, 104, 1],
    ]
    v2 = _encode(events, [50, None])
    assert _slices(v2) == 1
    assert decode_events(v2)["events"] == [["s", 1, 10, 47, 104, 1]]


def test_without_end_cycles_nothing_coalesces():
    events = [["s", 1, 10, 40, 100], ["s", 1, 50, 40, 120]]
    assert _slices(_encode(events, None)) == 2


# ----------------------------------------------------------------------
# Strict decoding: every damage shape is a named segment
# ----------------------------------------------------------------------
def _damaged(mutate):
    v2 = copy.deepcopy(_encode(EVENTS, END_CYCLES))
    mutate(v2)
    return v2


def _expect(segment: str, mutate):
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(_damaged(mutate))
    assert excinfo.value.segment == segment
    return str(excinfo.value)


def _chop(v2, key, n=1):
    raw = base64.b64decode(v2["slices"][key])
    v2["slices"][key] = base64.b64encode(raw[: len(raw) - n]).decode()


def test_truncated_column_is_named():
    message = _expect("slices.starts", lambda v2: _chop(v2, "starts"))
    assert "truncated" in message


def test_truncated_tid_column_is_named():
    _expect("slices.tids", lambda v2: _chop(v2, "tids"))


def test_trailing_bytes_are_named():
    def mutate(v2):
        raw = base64.b64decode(v2["slices"]["counts"])
        v2["slices"]["counts"] = base64.b64encode(raw + b"\x00").decode()

    message = _expect("slices.counts", mutate)
    assert "trailing" in message


def test_runaway_varint_is_named():
    def mutate(v2):
        raw = base64.b64decode(v2["slices"]["end_pcs"])
        v2["slices"]["end_pcs"] = base64.b64encode(raw + b"\x80" * 12).decode()

    _expect("slices.end_pcs", mutate)


def test_bad_base64_is_named():
    _expect(
        "slices.starts",
        lambda v2: v2["slices"].__setitem__("starts", "!!not-base64!!"),
    )


def test_missing_column_is_named():
    _expect("slices.counts", lambda v2: v2["slices"].pop("counts"))


def test_wrong_count_is_named():
    """count disagrees with the columns: the tid runs come up short."""
    _expect(
        "slices.tids",
        lambda v2: v2["slices"].__setitem__(
            "count", v2["slices"]["count"] + 1
        ),
    )


def test_negative_running_value_is_named():
    """A delta stream that drives a start cycle negative is damage,
    not a legal recording."""

    def mutate(v2):
        out = bytearray()
        out += base64.b64decode(v2["slices"]["starts"])[:1]  # first: 0
        out += b"\x01"  # zigzag(-1): the clock runs backwards
        out += b"\x00" * (v2["slices"]["count"] - 2)
        v2["slices"]["starts"] = base64.b64encode(bytes(out)).decode()

    message = _expect("slices.starts", mutate)
    assert "negative" in message


def test_bad_partial_list_is_named():
    _expect(
        "slices.partial",
        lambda v2: v2["slices"].__setitem__("partial", [99]),
    )


def test_malformed_rare_entry_is_named():
    _expect("rare[0]", lambda v2: v2["rare"].__setitem__(0, ["sig", 9]))


def test_wrong_typed_rare_event_is_named():
    _expect(
        "rare[0]",
        lambda v2: v2["rare"].__setitem__(0, [3, ["sig", "9"]]),
    )


def test_slice_hidden_in_rare_is_named():
    _expect(
        "rare[0]",
        lambda v2: v2["rare"].__setitem__(0, [3, ["s", 1, 0, 1, 4]]),
    )


def test_out_of_order_rare_position_is_named():
    def mutate(v2):
        v2["rare"].append([0, ["k", 99]])  # positions must not decrease
        v2["n_events"] += 1

    _expect("rare[1]", mutate)


def test_n_events_mismatch_is_named():
    message = _expect(
        "events", lambda v2: v2.__setitem__("n_events", 99)
    )
    assert "99" in message


def test_missing_slices_is_named():
    _expect("slices", lambda v2: v2.pop("slices"))


def test_missing_rare_is_named():
    _expect("rare", lambda v2: v2.pop("rare"))


def test_missing_header_key_is_named():
    _expect("header.runtime_id", lambda v2: v2["header"].pop("runtime_id"))


# ----------------------------------------------------------------------
# Per-field type checks of the raw event records in ``rare`` (the
# layout ``ReplayRecorder.to_dict(version=1)`` streams)
# ----------------------------------------------------------------------
def test_v1_wrong_typed_field_is_named():
    """A stringified cycle count passes an arity check and would
    explode as TypeError inside the engine."""
    ndlog = _encode([["s", 1, 0, 3, 10], ["x", "10", "hang", {}]])
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == "rare[0]"
    assert "'cycle'" in str(excinfo.value)


@pytest.mark.parametrize(
    "event",
    [
        ["s", 1.0, 0, 3, 10],  # a slice, which belongs in the columns
        ["sig", True],  # bool signum
        ["rr", 0, 7, 0, [1, "2"], None],  # non-int result word
        ["rs", 8, 7, [2], 1, "triple"],  # payload not a mapping
        ["x", 9, 3, {}],  # reason not a string
        ["k", "30"],  # string cycle
    ],
)
def test_v1_field_type_catalogue(event):
    ndlog = _encode([["k", 0]])
    ndlog["rare"] = [[0, event]]
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(ndlog)
    assert excinfo.value.segment == "rare[0]"


# ----------------------------------------------------------------------
# Recorder version selection: the raw stream (1) and the log (2)
# ----------------------------------------------------------------------
def test_recorder_emits_both_versions(workqueue_run):
    recorder = workqueue_run.runtime.recorder
    v1 = recorder.to_dict(version=1)
    v2 = recorder.to_dict()
    assert set(v1) == {"header", "events", "n_events"}
    assert v2["format"] == NDLOG_FORMAT_V2
    validate_ndlog(v2)
    # The raw stream is not a log: no snap embeds it, replay refuses it.
    with pytest.raises(ReplayUnavailable) as excinfo:
        validate_ndlog(v1)
    assert excinfo.value.segment == "format"
    # Same recording: the rare-event streams agree, and the packed
    # slices cover exactly the same instructions.
    rare_v1 = [e for e in v1["events"] if e[0] != "s"]
    assert [e for e in rare_v1] == [e for _, e in v2["rare"]]
    v1_instr = sum(e[3] for e in v1["events"] if e[0] == "s")
    v2_instr = sum(
        e[3] for e in decode_events(v2)["events"] if e[0] == "s"
    )
    assert v1_instr == v2_instr
    # Packed without end cycles, the raw stream decodes to itself.
    packed = encode_ndlog(v1["header"], v1["events"])
    assert decode_events(packed) == v1


def test_recorder_rejects_unknown_version(workqueue_run):
    with pytest.raises(ValueError):
        workqueue_run.snap  # fixture sanity
        workqueue_run.runtime.recorder.to_dict(version=3)


def test_v2_is_smaller_than_v1(workqueue_run):
    """The point of the format: the packed log is much smaller than the
    raw stream as plain JSON, before compression even helps."""
    recorder = workqueue_run.runtime.recorder
    v1 = len(json.dumps(recorder.to_dict(version=1)).encode())
    v2 = len(json.dumps(recorder.to_dict()).encode())
    assert v2 < v1
