"""Replay benchmark: nondeterminism-log overhead + replay throughput.

The time-travel replay PR's operational claims, measured on two
multithreaded subjects:

* **archive growth (diagnosis scale)** — what replayability costs the
  vault where it matters: the workqueue example's crash-at-fault
  compressed archive with the ``tb-ndlog`` aboard vs the same snap
  stripped of it.  The log embeds the program image (a snap carries no
  executable otherwise), so small snaps pay a fixed few-KB cost;
  asserted under ``MAX_ARCHIVE_GROWTH_PCT``.  The raw ndlog size as a
  percentage of the snap's trace-buffer bytes is reported alongside.
* **marginal event cost (long run)** — the log's *variable* cost is
  scheduler-slice events, which grow with run length while the trace
  rings wrap in place.  Measured as compressed archive bytes per
  logged (uncoalesced) event on a ~60k-iteration run, twice: for the
  recorder's raw event stream as plain JSON
  (``ReplayRecorder.to_dict(version=1)``, the baseline, asserted under
  ``MAX_BYTES_PER_EVENT``; its keys keep the ``v1`` names of the
  retired plain-JSON ``tb-ndlog/1`` so the history stays comparable)
  and for the packed columnar ``tb-ndlog/2`` the snap actually ships
  (asserted under ``MAX_BYTES_PER_EVENT_V2``, with the size reduction
  asserted >= ``MIN_V2_REDUCTION``).
* **replay throughput** — replay re-executes on the default engine
  while forcing recorded slice boundaries; the recorded run pays
  instrumentation and record-write costs instead.  Both sides are
  reported as guest instructions per second; ``replay_vs_record`` is
  their ratio.

Each run appends its entry to the ``replay`` section of
``BENCH_interpreter.json``; ``--check`` guards replay and record
throughput and the packed log's compressed bytes-per-event
(``benchmarks/_harness.py``).

Also runs in the slow pytest lane.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks._harness import INTERPRETER, main, record  # noqa: E402
from repro import TraceSession
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.archive import compress_snap
from repro.runtime.snap import SnapFile
from repro.runtime.sync import reset_runtime_ids
from repro.workloads.harness import format_table

OUTPUT_PATH = INTERPRETER
SECTION = "replay"
GUARDED = {
    "replay_ips": "higher",
    "record.ips": "higher",
    "long_run.compressed_bytes_per_event": "lower",
}

#: Best-of-N wall clock to damp scheduler noise.
REPEATS = 3

#: Compressed-archive growth cap for the diagnosis-scale exemplar
#: (the fixed cost: program image + config + a short event log).
MAX_ARCHIVE_GROWTH_PCT = 300.0

#: Compressed bytes per logged event on a long run (the variable
#: cost) for the raw event stream as plain JSON; measured ~4-5 B,
#: capped with headroom.
MAX_BYTES_PER_EVENT = 16.0

#: Same metric for the packed log the snap actually ships, per
#: *uncoalesced* event (coalescing shrinks the slice count, but the
#: denominator stays the raw stream's event count so the two are
#: directly comparable).  The acceptance bar: 4.23 -> <= 0.85.
MAX_BYTES_PER_EVENT_V2 = 0.85

#: Required shrink of the log's share of the archive, raw -> packed.
MIN_V2_REDUCTION = 5.0

#: Three workers grind a division-free loop, then every one of them
#: trips the same division at its loop exit; the first to get there
#: takes the snap.  Long enough that record and replay wall clocks are
#: meaningful and the slice log dwarfs the (wrapping) trace rings.
CRASHER = """
int shared[4];

int worker(int wid) {
    int i;
    int acc;
    acc = wid;
    for (i = 0; i < 20000; i = i + 1) {
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


def _record_workqueue():
    """The diagnosis-scale subject: the shipped workqueue example."""
    repo = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_replay_example", repo / "examples" / "multithreaded_crash.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    reset_runtime_ids()
    session = TraceSession(
        process_name="workqueue",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            main_buffers=4,
            max_buffers=6,
            record_replay=True,
        ),
    )
    session.add_minic(example.SERVER, name="server", file_name="server.c")
    run = session.run(max_cycles=20_000_000)
    assert run.snap is not None and run.snap.replayable == "full"
    return run.snap


def _record():
    """One recorded long run; returns (run, seconds, instructions)."""
    reset_runtime_ids()
    session = TraceSession(
        process_name="replay-bench",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(CRASHER, name="bench", file_name="bench.c")
    start = time.perf_counter()
    run = session.run(max_cycles=100_000_000)
    seconds = time.perf_counter() - start
    assert run.snap is not None and run.snap.replayable == "full"
    instructions = sum(
        t.instructions for t in run.process.threads.values()
    )
    return run, seconds, instructions


def _snap_with_ndlog(snap, ndlog: dict):
    """The same snap carrying a different ndlog mapping."""
    d = snap.to_dict()
    d["replay"] = dict(d["replay"])
    d["replay"]["ndlog"] = ndlog
    return SnapFile.from_dict(d)


def _replay_once(snap):
    """One replay to the fault; returns (seconds, instructions)."""
    engine = ReplayEngine(snap)
    start = time.perf_counter()
    stop = engine.run_to_fault()
    seconds = time.perf_counter() - start
    assert stop["reason"] == "fault"
    instructions = sum(
        engine.registers(t["tid"])["instructions"]
        for t in engine.threads()
    )
    return seconds, instructions


def _archive_sizes(snap) -> tuple[int, int]:
    """(compressed bytes without the ndlog, with it)."""
    with_log = len(compress_snap(snap))
    stripped = snap.to_dict()
    stripped.pop("replay", None)
    without = len(compress_snap(SnapFile.from_dict(stripped)))
    return without, with_log


def run_benchmark() -> dict:
    # --- fixed cost: the diagnosis-scale exemplar -------------------
    exemplar = _record_workqueue()
    legacy_bytes, replay_bytes = _archive_sizes(exemplar)
    growth_pct = 100.0 * (replay_bytes - legacy_bytes) / legacy_bytes
    assert growth_pct <= MAX_ARCHIVE_GROWTH_PCT, (
        f"replayable exemplar archive grew {growth_pct:.0f}% "
        f"(cap {MAX_ARCHIVE_GROWTH_PCT:.0f}%)"
    )
    ndlog_bytes = len(json.dumps(exemplar.replay["ndlog"]).encode())
    trace_bytes = sum(len(b.words) for b in exemplar.buffers) * 4

    # --- variable cost + throughput: the long run -------------------
    best_record = None
    run = None
    for _ in range(REPEATS):
        recorded, seconds, instructions = _record()
        if best_record is None or seconds < best_record["seconds"]:
            best_record = {"seconds": seconds, "instructions": instructions}
            run = recorded
    snap = run.snap  # ships packed tb-ndlog/2
    # The baseline: the same recording's raw stream as plain JSON.
    v1_ndlog = run.runtime.recorder.to_dict(version=1)
    long_legacy, long_v2 = _archive_sizes(snap)
    _, long_v1 = _archive_sizes(_snap_with_ndlog(snap, v1_ndlog))
    n_events = v1_ndlog["n_events"]  # uncoalesced count
    bytes_per_event_v1 = (long_v1 - long_legacy) / n_events
    bytes_per_event = (long_v2 - long_legacy) / n_events
    v2_reduction = (long_v1 - long_legacy) / max(1, long_v2 - long_legacy)
    assert bytes_per_event_v1 <= MAX_BYTES_PER_EVENT, (
        f"{bytes_per_event_v1:.1f} compressed B/event (raw stream) "
        f"(cap {MAX_BYTES_PER_EVENT:.0f})"
    )
    assert bytes_per_event <= MAX_BYTES_PER_EVENT_V2, (
        f"{bytes_per_event:.2f} compressed B/event (packed) "
        f"(cap {MAX_BYTES_PER_EVENT_V2:.2f})"
    )
    assert v2_reduction >= MIN_V2_REDUCTION, (
        f"packing shrank the log's archive share only {v2_reduction:.1f}x "
        f"(floor {MIN_V2_REDUCTION:.0f}x)"
    )

    best_replay = None
    for _ in range(REPEATS):
        seconds, instructions = _replay_once(snap)
        if best_replay is None or seconds < best_replay["seconds"]:
            best_replay = {"seconds": seconds, "instructions": instructions}

    record_ips = best_record["instructions"] / best_record["seconds"]
    replay_ips = best_replay["instructions"] / best_replay["seconds"]
    entry = {
        "exemplar": {
            "legacy_archive_bytes": legacy_bytes,
            "replayable_archive_bytes": replay_bytes,
            "archive_growth_pct": round(growth_pct, 1),
            "ndlog_bytes": ndlog_bytes,
            "trace_buffer_bytes": trace_bytes,
            "ndlog_vs_trace_pct": round(100.0 * ndlog_bytes / trace_bytes, 1),
        },
        "long_run": {
            "events": n_events,
            "packed_slices": snap.replay["ndlog"]["slices"]["count"],
            "legacy_archive_bytes": long_legacy,
            "v1_archive_bytes": long_v1,
            "replayable_archive_bytes": long_v2,
            "compressed_bytes_per_event_v1": round(bytes_per_event_v1, 2),
            "compressed_bytes_per_event": round(bytes_per_event, 3),
            "v2_reduction": round(v2_reduction, 1),
        },
        "record": {
            "seconds": round(best_record["seconds"], 4),
            "instructions": best_record["instructions"],
            "ips": round(record_ips),
        },
        "replay": {
            "seconds": round(best_replay["seconds"], 4),
            "instructions": best_replay["instructions"],
            "ips": round(replay_ips),
        },
        "replay_ips": round(replay_ips),
        "replay_vs_record": round(replay_ips / record_ips, 3),
    }

    record(OUTPUT_PATH, SECTION, entry)
    return entry


def _render(entry: dict) -> str:
    ex, lr = entry["exemplar"], entry["long_run"]
    rows = [
        ("exemplar archive", f"{ex['legacy_archive_bytes']:,} B -> "
                             f"{ex['replayable_archive_bytes']:,} B "
                             f"(+{ex['archive_growth_pct']:.0f}%, cap "
                             f"{MAX_ARCHIVE_GROWTH_PCT:.0f}%)"),
        ("exemplar ndlog", f"{ex['ndlog_bytes']:,} B = "
                           f"{ex['ndlog_vs_trace_pct']:.0f}% of "
                           f"{ex['trace_buffer_bytes']:,} B trace"),
        ("long-run events", f"{lr['events']:,} "
                            f"({lr['packed_slices']:,} packed slices)"),
        ("raw stream cost", f"{lr['compressed_bytes_per_event_v1']:.2f} "
                            f"B/event compressed (cap "
                            f"{MAX_BYTES_PER_EVENT:.0f})"),
        ("packed log cost", f"{lr['compressed_bytes_per_event']:.3f} "
                            f"B/event compressed (cap "
                            f"{MAX_BYTES_PER_EVENT_V2:.2f})"),
        ("packing reduction", f"{lr['v2_reduction']:.1f}x smaller "
                              f"archive share (floor "
                              f"{MIN_V2_REDUCTION:.0f}x)"),
        ("record", f"{entry['record']['ips']:,} ips "
                   f"({entry['record']['seconds']:.3f}s)"),
        ("replay", f"{entry['replay']['ips']:,} ips "
                   f"({entry['replay']['seconds']:.3f}s)"),
        ("replay vs record", f"{entry['replay_vs_record']:.2f}x"),
    ]
    return format_table(
        rows,
        headers=["metric", "value"],
        title="Time-travel replay: log overhead and throughput",
    )


def test_replay_overhead_and_throughput(report):
    entry = run_benchmark()
    report.append(_render(entry))
    assert entry["exemplar"]["archive_growth_pct"] <= MAX_ARCHIVE_GROWTH_PCT
    assert (
        entry["long_run"]["compressed_bytes_per_event_v1"]
        <= MAX_BYTES_PER_EVENT
    )
    assert (
        entry["long_run"]["compressed_bytes_per_event"]
        <= MAX_BYTES_PER_EVENT_V2
    )
    assert entry["long_run"]["v2_reduction"] >= MIN_V2_REDUCTION


if __name__ == "__main__":
    main(OUTPUT_PATH, SECTION, GUARDED, run_benchmark, _render)
