"""replay-debug: record a long multithreaded crash, store it, open it,
replay it to the fault.

Why this workload exists: ``replay`` and large-ring reconstruction do
their work here and nowhere else.  Recording writes the ndlog and
replay reads it.  The subject is the replay benchmark's long 3-worker
crasher (``CRASHER`` in ``benchmarks/bench_replay.py``, ~2.9M
instructions, ~73k slice events), read from that file with its loop
bound raised by up to 1% by the seed, and recorded with 8,192-word
sub-buffers (~164k trace words).

A cycle: record (``record_replay=True``) -> store the snap in a fresh
vault -> open (load it back, reconstruct, fault view) -> replay it with
``ReplayEngine.run_to_fault()`` on Machine's default engine.  The
operation the end-to-end latency times is open + replay; every cycle
repeats the same work, so its cost is the run's best open plus its best
replay, and recording's is the sum of each lap's best.  Set-up
(compile + instrument the crasher) is sampled again between the stages
of every cycle.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import random
import re
import shutil
import time
from dataclasses import dataclass

import harness
from spans import NULL

from repro.fleet import SnapVault
from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.reconstruct import Reconstructor, select_view, snap_signature
from repro.replay import ReplayEngine
from repro.runtime import RuntimeConfig, SnapPolicy, compress_snap
from repro.runtime.sync import reset_runtime_ids
from repro.vm import Machine

#: The file that defines the crasher, relative to the checkout root.
CRASHER_FILE = os.path.join("benchmarks", "bench_replay.py")

#: The workers' loop bound: the one number the seed changes.
LOOP_BOUND = re.compile(r"\bi < (\d+);")

#: The statement every worker faults on.
FAULT_TEXT = "return 1000 / (acc - acc);"


@dataclass(frozen=True)
class Scale:
    iterations: int | None  # worker loop trips before jitter; None: the file's
    sub_buffer_words: int
    setup_repeats: int  # set-ups sampled between two stages of a cycle


SCALES = {
    "full": Scale(None, 8_192, 8),
    "tiny": Scale(400, 256, 1),
}

#: Cycles a run makes at least: two, so a traced run has both a traced
#: and an untraced open + replay.
MIN_CYCLES = 2


@dataclass
class Subject:
    module: object
    instrumented: object
    mapfile: object
    stats: object
    fault: str  # "bench.c:<line>"


@dataclass
class Cycle:
    """What one record -> store -> open -> replay produced."""

    execution: harness.Execution
    snap: object
    digest: str
    blob_bytes: int
    view: str
    stop: dict
    replayed_sig: str | None
    record_s: float
    record_laps: list[float]
    open_s: float
    replay_s: float


def crasher(root: str) -> str:
    """The replay benchmark's ``CRASHER``, read without running that file."""
    path = os.path.join(root, CRASHER_FILE)
    try:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
    except (OSError, SyntaxError) as exc:
        raise harness.BenchError(f"cannot read the crasher: {exc}") from exc
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "CRASHER" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise harness.BenchError(f"no CRASHER in {path}")


def subject_source(base: str, seed: int, scale: Scale) -> str:
    """The crasher with a seeded loop bound, up to 1% above the base.

    Within 1% every bound records the same shape of run; from about
    2.4% up the process peaks 20 MB lower, so a wider range would make
    ``peak_rss_mb`` spread by which bounds a set of seeds drew."""
    bounds = LOOP_BOUND.findall(base)
    if len(bounds) != 1 or FAULT_TEXT not in base:
        raise harness.BenchError(
            f"the crasher in {CRASHER_FILE} no longer has one worker loop "
            f"bound and the fault {FAULT_TEXT!r}"
        )
    iterations = scale.iterations or int(bounds[0])
    jitter = random.Random(seed).randrange(max(1, iterations // 100))
    return LOOP_BOUND.sub(f"i < {iterations + jitter};", base)


def setup(source: str, tracer) -> Subject:
    with tracer.span("setup"):
        with tracer.span("lang.compile"):
            module = compile_source(source, module_name="bench", file_name="bench.c")
        with tracer.span("instrument.rewrite"):
            result = instrument_module(module, InstrumentConfig())
    line = next(
        n for n, text in enumerate(source.splitlines(), start=1) if FAULT_TEXT in text
    )
    return Subject(module, result.module, result.mapfile, result.stats, f"bench.c:{line}")


def ndlog_cost(snap, recorder) -> tuple[int, float]:
    """(slice events, compressed archive bytes per event) of the log.

    Events are counted uncoalesced (the plain ``tb-ndlog/1`` count) and
    the log's bytes are the archive with its replay data minus the
    archive without, as the replay benchmark defines them.
    """
    events = recorder.to_dict(version=1)["n_events"]
    bare = dataclasses.replace(snap, replay={})
    return events, (len(compress_snap(snap)) - len(compress_snap(bare))) / events


def one_cycle(subject, config, engine, root: str, spans, label: str,
              between) -> Cycle:
    """Record, store, open and replay; ``between()`` runs, untimed,
    after recording and after storing."""
    reset_runtime_ids()
    laps: list[float] = []
    start = time.perf_counter()
    with spans.span("record", op=label):
        ex = harness.run_program(subject.instrumented, config, spans,
                                 name="replay-bench", laps=laps)
    record_s = time.perf_counter() - start
    snap = ex.runtime.snap_store.latest()
    between()
    vault = SnapVault(root)
    vault.put_mapfile(subject.mapfile)
    with spans.span("store", op=label):
        if spans.enabled:
            digest = harness.store_traced(vault, [snap], spans)[0].digest
        else:
            digest = vault.put(snap).digest
    between()
    start = time.perf_counter()
    with spans.span("open_replay", op=label):
        with spans.span("runtime.archive.decompress"):
            loaded, _notes = vault.load(digest)
        with spans.span("reconstruct.reconstruct"):
            trace = Reconstructor(vault.mapfiles()).reconstruct(loaded)
        with spans.span("reconstruct.view"):
            view = select_view(trace)
        opened = time.perf_counter()
        with spans.span("replay.decode"):
            replayer = ReplayEngine(loaded, engine=engine)
        with spans.span("replay.run"):
            stop = replayer.run_to_fault()
    done = time.perf_counter()
    return Cycle(
        execution=ex,
        snap=snap,
        digest=digest,
        blob_bytes=vault.index[digest].size,
        view=view,
        stop=stop,
        # Untimed: the replay must end in the recorded crash.
        replayed_sig=snap_signature(replayer.replayed_snap(), [subject.mapfile]),
        record_s=record_s,
        record_laps=laps,
        open_s=opened - start,
        replay_s=done - opened,
    )


def summary(cycle: Cycle, bare: harness.Execution) -> dict:
    """The counts a run reports, from its first cycle that passed."""
    ex = cycle.execution
    events, per_event = ndlog_cost(cycle.snap, ex.runtime.recorder)
    return {
        "instructions": ex.instructions,
        "overhead_cycles": ex.cycles / bare.cycles,
        "records_written": ex.runtime.stats.records_written,
        "wraps": ex.runtime.stats.wraps,
        "events": events,
        "per_event": per_event,
        "packed": cycle.snap.replay["ndlog"]["slices"]["count"],
        "blob_bytes": cycle.blob_bytes,
    }


def run(seed: int, seconds: float, scale_name: str, tracer, work_dir: str):
    scale = SCALES[scale_name]
    result = harness.Result()
    source = subject_source(crasher(os.getcwd()), seed, scale)
    setups = harness.Setups(lambda: setup(source, tracer))
    subject = setups.state
    start = time.perf_counter()
    with tracer.span("calibrate"):
        bare = harness.run_program(subject.module, tracer=tracer, name="replay-bench")
    bare_seconds = time.perf_counter() - start
    config = RuntimeConfig(
        policy=SnapPolicy.parse("snap on unhandled"),
        record_replay=True,
        sub_buffer_words=scale.sub_buffer_words,
    )
    engine = Machine().engine
    gen2 = harness.freeze_heap()

    times = harness.OpTimes()
    records, opens, replays = [], [], []
    record_laps = []  # untraced recordings'
    reference = None  # (digest, signature) of the run's first recording
    first = None  # summary() of the first cycle that passed its checks
    window = harness.Window(seconds)
    number, last = 0, 0.0
    while number < MIN_CYCLES or window.open(last):
        began = time.perf_counter()
        traced = tracer.enabled and number % 2 == 1
        spans = tracer if traced else NULL
        label = f"cycle{number}"
        root = os.path.join(work_dir, f"vault-{number}")
        number += 1
        try:
            cycle = one_cycle(
                subject, config, engine, root, spans, label,
                lambda: setups.again(scale.setup_repeats),
            )
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            result.check(False, f"{label}: {type(exc).__name__}: {exc}")
            cycle = None
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if cycle is not None:
            if reference is None:
                reference = (
                    cycle.digest, snap_signature(cycle.snap, [subject.mapfile])
                )
            marked = any(
                "<=== fault here" in line and f"{subject.fault} " in line + " "
                for line in cycle.view.splitlines()
            )
            repeats = cycle.digest == reference[0]
            ok = (
                cycle.snap.replayable == "full"
                and repeats
                and cycle.stop["reason"] == "fault"
                and cycle.replayed_sig == reference[1]
                and marked
            )
            if result.check(
                ok,
                f"{label}: replay stopped on {cycle.stop['reason']!r} with "
                f"signature {cycle.replayed_sig!r} (recorded {reference[1]!r}), "
                f"fault view {'marks' if marked else 'misses'} {subject.fault}, "
                f"recording {'repeats' if repeats else 'differs'}",
            ):
                if first is None:
                    first = summary(cycle, bare)
                records.append(cycle.record_s)
                if not traced:
                    record_laps.append(cycle.record_laps)
                opens.append(cycle.open_s)
                replays.append(cycle.replay_s)
                times.add("open_replay", cycle.open_s + cycle.replay_s, traced)
        # The finished cycle's machines, snaps and vault are garbage:
        # collect them here, untimed, so every cycle starts from the
        # same heap and the peak is one cycle's working set.
        cycle = None
        setups.again(scale.setup_repeats)
        last = time.perf_counter() - began

    m = result.metrics
    m["setup_s"] = setups.seconds
    # Each from the best of its parts over the run's cycles: every lap of
    # the recording; the open and the replay.
    m["throughput"] = (
        bare.instructions / harness.best_laps(record_laps) if record_laps else 0.0
    )
    m["best_op_ms.p50"] = (min(opens) + min(replays)) * 1e3 if opens else 0.0
    m["overhead_cycles"] = first["overhead_cycles"] if first else 0.0
    m["peak_rss_mb"] = harness.peak_rss_mb()
    m["instrument.probes"] = subject.stats.header_probes + subject.stats.light_probes
    m["instrument.text_growth"] = subject.stats.size_growth
    m["vm.bare_ips"] = bare.instructions / bare_seconds
    m["python.gc_gen2"] = harness.program_gen2(gen2)
    if first is not None:
        m["vm.replay_ips"] = first["instructions"] / min(replays)
        m["runtime.overhead_wall"] = min(records) / bare_seconds
        m["runtime.records_written"] = first["records_written"]
        m["runtime.wraps"] = first["wraps"]
        m["replay.record_s"] = min(records)
        m["replay.slice_events"] = first["events"]
        m["replay.packed_slices"] = first["packed"]
        m["replay.ndlog_bytes_per_event"] = first["per_event"]
        m["fleet.store.bytes_per_snap"] = first["blob_bytes"]
        result.report += [
            f"record_ips {m['throughput']:,.0f} program instructions per "
            f"second, from the best of every {harness.LAP_CYCLES:,}-cycle lap "
            f"over {len(record_laps)} recordings (median "
            f"{harness.median(records):.3f} s); setup_s best of "
            f"{len(setups.samples)}",
            f"open_s best {min(opens):.4f} median {harness.median(opens):.4f}, "
            f"replay_s best {min(replays):.4f} median "
            f"{harness.median(replays):.4f}, {len(opens)} samples",
            f"ndlog_bytes_per_event {first['per_event']:.4f} over "
            f"{first['events']:,} slice events ({first['packed']:,} packed "
            f"slices); overhead_cycles {m['overhead_cycles']:.4f}",
        ]
    if tracer.enabled:
        m.update(
            harness.stage_means(
                tracer,
                "setup",
                {"lang.compile_s": "lang.compile",
                 "instrument.rewrite_s": "instrument.rewrite"},
                scale=1.0,
            )
        )
        m.update(
            harness.stage_means(
                tracer,
                "store",
                {
                    "fleet.store.digest_ms": "fleet.store.digest",
                    "reconstruct.mine_ms": "reconstruct.mine",
                    "runtime.archive.compress_ms": "runtime.archive.compress",
                    "reconstruct.sign_ms": "reconstruct.sign",
                    "fleet.store.commit_ms": "fleet.store.commit",
                },
            )
        )
        m.update(
            harness.stage_means(
                tracer,
                "open_replay",
                {
                    "runtime.archive.decompress_ms": "runtime.archive.decompress",
                    "reconstruct.reconstruct_ms": "reconstruct.reconstruct",
                    "reconstruct.view_ms": "reconstruct.view",
                },
            )
        )
        m.update(
            harness.stage_means(
                tracer,
                "open_replay",
                {"replay.decode_s": "replay.decode", "replay.run_s": "replay.run"},
                scale=1.0,
            )
        )
        m.update(times.layer_metrics(tracer, "open_replay"))
        for root in ("record", "store", "open_replay"):
            result.report += harness.breakdown_lines(tracer, root)
    return result
