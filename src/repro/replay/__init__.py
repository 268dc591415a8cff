"""Deterministic time-travel replay: record a process's nondeterminism
log alongside its snap, then re-execute the run under a debugger.

See :mod:`repro.replay.ndlog` for the ``tb-ndlog/2`` format,
:mod:`repro.replay.record` for the recording side (enabled by
``RuntimeConfig.record_replay``), and :mod:`repro.replay.engine` for
the replay debugger.
"""

from repro.replay.engine import ReplayEngine
from repro.replay.ndlog import (
    NDLOG_FORMAT_V2,
    ReplayDivergence,
    ReplayUnavailable,
    config_from_dict,
    config_to_dict,
    decode_events,
    encode_ndlog,
    policy_from_dict,
    policy_to_dict,
    replayable_status,
    validate_ndlog,
)
from repro.replay.record import ReplayRecorder

__all__ = [
    "NDLOG_FORMAT_V2",
    "ReplayDivergence",
    "ReplayEngine",
    "ReplayRecorder",
    "ReplayUnavailable",
    "config_from_dict",
    "config_to_dict",
    "decode_events",
    "encode_ndlog",
    "policy_from_dict",
    "policy_to_dict",
    "replayable_status",
    "validate_ndlog",
]
