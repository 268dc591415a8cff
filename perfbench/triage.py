"""crash-triage: a seeded fleet of crashes, from submit to diagnosis.

Why this workload exists: it is the fault-to-diagnosis path.  The work
is in ``fleet``, ``reconstruct`` and ``runtime.archive``; ``vm`` does
nothing once set-up has run every program to its fault.  The storm
commits in batches while the trickle commits one crash at a time and
then reads, and the vault's size — the input property index cost
scales with — is set by the storm's backlog: 2,500 crashes, about
2,000 distinct snaps.

Inputs:

* a fixed corpus of distinct crashing programs
  (:func:`repro.workloads.random_crasher` of 0, 1, ...), each run once
  to its fault in set-up.  The seed does not pick them, so what a run
  costs does not hinge on which programs a seed drew;
* drawn from the seed, as everything below: the programs' Zipf-like
  popularity, and for every crash one of the fleet's machines (each
  with its own clock skew) and a fresh clock that re-label the
  program's snap, so every crash is a distinct snap;
* about a fifth of crashes exactly repeat an earlier one (crash loops:
  same content, which the vault dedupes);
* RPC-chain incidents: the three-machine chain of
  :mod:`repro.chaos.scenarios` with a crashing client whose crash fans
  out a group snap — three snaps per incident.  Every chain run keeps
  its own runtime ids, process names and group, so incidents of
  different runs never merge.

Each cycle ingests the storm into a fresh vault through one
``Collector``, then diagnoses the trickle one crash at a time:
``submit`` -> ``drain`` -> ``top()`` -> render the crash's bucket
exemplar (``reconstruct_incident`` + ``render_distributed`` when the
exemplar belongs to a chain incident).  Every cycle repeats the same
work, so a storm chunk or a trickle position has one cost per cycle;
its best of the run is what the end-to-end metrics use.  Set-up is
sampled again after each storm and each trickle.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import shutil
import time
from dataclasses import dataclass

import harness
from spans import NULL

from repro.chaos.scenarios import BACKEND_SRC, CLIENT_CRASH_SRC, FRONTEND_SRC
from repro.distributed import DistributedSession
from repro.fleet import Collector, SnapVault, VaultQuery
from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.reconstruct import (
    Reconstructor,
    render_distributed,
    select_view,
    snap_signature,
)
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.workloads import random_crasher


@dataclass(frozen=True)
class Scale:
    programs: int  # distinct crashing programs
    machines: int  # fleet size, each machine with its own clock skew
    storm: int  # single-process crashes in the storm backlog
    chunk: int  # storm submissions per drain: one throughput sample
    trickle: int  # crashes diagnosed one at a time, per cycle
    storm_chains: int  # chain incidents inside the storm
    trickle_chains: int  # chain incidents among the trickle crashes


SCALES = {
    "full": Scale(12, 48, 2500, 250, 100, 2, 6),
    "tiny": Scale(3, 6, 24, 8, 6, 1, 1),
}

#: Cycles a run makes at least, however slow the host.  A full cycle
#: takes 8-12 s, so a 40 s window alone would give slow runs one cycle
#: fewer than fast ones, and with a best of three or four that one
#: cycle moves the figures more than the host's own spread does.  A
#: traced run times every position both with and without spans.
MIN_CYCLES = 4

#: Share of crashes that exactly repeat an earlier one (crash loops).
REPEAT_SHARE = 0.2

#: Zipf exponent of crash popularity across programs.
ZIPF_S = 1.1

POLICY = "snap on unhandled"

#: ``file:line`` of a signature's innermost frame.
_FAULT_LINE = re.compile(r"\(([^()]+:\d+)\)")

#: Stages of a traced diagnosis: per-layer metric -> span name.
DIAGNOSE_STAGES = {
    f"{span}_ms": span
    for span in (
        "fleet.store.digest",
        "reconstruct.mine",
        "runtime.archive.compress",
        "reconstruct.sign",
        "fleet.store.commit",
        "fleet.index.persist",
        "fleet.triage.top",
        "fleet.query.incident_of",
        "runtime.archive.decompress",
        "reconstruct.reconstruct",
        "reconstruct.incident",
        "reconstruct.view",
    )
}


@dataclass
class Program:
    snap: object
    mapfile: object
    stats: object  # InstrumentStats
    sig: str
    traced: harness.Execution
    bare: harness.Execution


@dataclass
class Crash:
    """One crash as the fleet reports it."""

    snaps: list  # the crashing process's snap first
    sig: str  # ground-truth bucket signature, mined in set-up
    chain: bool = False

    @property
    def fault(self) -> str:
        return _FAULT_LINE.search(self.sig).group(1)


@dataclass
class Corpus:
    programs: list[Program]
    mapfiles: list
    storm: list[Crash]
    trickle: list[Crash]


class _Uplink:
    """Stands in for a collector in set-up: keeps every snap the
    service processes forward, in arrival order."""

    def __init__(self) -> None:
        self.snaps: list = []

    def submit(self, snap) -> None:
        self.snaps.append(snap)


def _config() -> RuntimeConfig:
    return RuntimeConfig(policy=SnapPolicy.parse(POLICY))


def _signature(snap, mapfiles) -> str:
    sig = snap_signature(snap, mapfiles)
    if sig is None or not _FAULT_LINE.search(sig):
        raise harness.BenchError(
            f"no crash signature in {snap.process_name}'s snap: {sig!r}"
        )
    return sig


def build_program(name: str, source: str, tracer) -> Program:
    with tracer.span("lang.compile", op=name):
        module = compile_source(source, module_name=name, file_name=f"{name}.c")
    with tracer.span("instrument.rewrite", op=name):
        result = instrument_module(module, InstrumentConfig())
    traced = harness.run_program(result.module, _config(), tracer, name=name)
    bare = harness.run_program(module, tracer=tracer, name=name)
    snap = traced.runtime.snap_store.latest()
    if snap is None:
        raise harness.BenchError(f"{name} did not crash")
    sig = _signature(snap, [result.mapfile])
    return Program(snap, result.mapfile, result.stats, sig, traced, bare)


def build_chain(index: int, hosts: list[tuple[str, int]]):
    """One crashing RPC chain across three fleet machines; returns the
    crash and the chain's mapfiles."""
    session = DistributedSession(runtime_config=_config())
    uplink = _Uplink()
    names = [f"{role}-{index}" for role in ("client", "frontend", "backend")]
    machines = [session.add_machine(host, clock_skew=skew) for host, skew in hosts]
    services = list(session.services.values())
    for i, service in enumerate(services):
        service.forward_to(uplink)
        service.configure_group(f"chain-{index}", names)
        for peer in services[i + 1 :]:
            service.link(peer)
    session.add_process(
        machines[0], names[0], CLIENT_CRASH_SRC, module_name="client", start=True
    )
    session.add_process(
        machines[1], names[1], FRONTEND_SRC, module_name="frontend",
        services={7: "handle"},
    )
    session.add_process(
        machines[2], names[2], BACKEND_SRC, module_name="backend",
        services={8: "handle"},
    )
    for handle in session.nodes.values():
        if handle.entry_module is not None:
            handle.process.start(handle.entry_module)
    client = session.nodes[names[0]].runtime.snap_store
    for _ in range(500):
        total = sum(m.cycles for m in session.network.machines)
        session.network.run(max_total_cycles=total + 2_000)
        if client.snaps:
            break
    reasons = [snap.reason for snap in uplink.snaps]
    if reasons != ["unhandled", "group", "group"]:
        raise harness.BenchError(f"chain {index} forwarded {reasons}")
    crash = Crash(uplink.snaps, _signature(uplink.snaps[0], session.mapfiles), True)
    return crash, session.mapfiles


def compose(rng, programs, machines, chains, scale: Scale):
    """The storm backlog and the trickle, as crash lists."""
    ranked = list(programs)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    singles: list[Crash] = []
    clock = 0

    def crash() -> Crash:
        nonlocal clock
        if singles and rng.random() < REPEAT_SHARE:
            return rng.choice(singles)
        program = rng.choices(ranked, weights)[0]
        host, skew = rng.choice(machines)
        clock += rng.randrange(1_000, 1_000_000)
        snap = dataclasses.replace(
            program.snap,
            machine_name=host,
            clock=program.snap.clock + skew + clock,
        )
        singles.append(Crash([snap], program.sig))
        return singles[-1]

    storm = [crash() for _ in range(scale.storm)]
    trickle = [crash() for _ in range(scale.trickle - scale.trickle_chains)]
    for chain in chains[: scale.storm_chains]:
        storm.insert(rng.randrange(len(storm) + 1), chain)
    for chain in chains[scale.storm_chains :]:
        trickle.insert(rng.randrange(len(trickle) + 1), chain)
    return storm, trickle


def setup(seed: int, scale: Scale, tracer) -> Corpus:
    reset_runtime_ids()
    rng = random.Random(seed)
    with tracer.span("setup"):
        machines = [
            (f"host-{i:03d}", rng.randrange(-10**9, 10**9))
            for i in range(scale.machines)
        ]
        programs = [
            build_program(f"svc{k:02d}", random_crasher(k), tracer)
            for k in range(scale.programs)
        ]
        mapfiles = {p.mapfile.checksum: p.mapfile for p in programs}
        chains = []
        for index in range(scale.storm_chains + scale.trickle_chains):
            chain, chain_maps = build_chain(index, rng.sample(machines, 3))
            chains.append(chain)
            mapfiles.update((m.checksum, m) for m in chain_maps)
        storm, trickle = compose(rng, programs, machines, chains, scale)
    return Corpus(programs, list(mapfiles.values()), storm, trickle)


# ----------------------------------------------------------------------
# One diagnosis
# ----------------------------------------------------------------------
def render_bucket(query: VaultQuery, sig: str, tracer) -> str | None:
    """Find ``sig``'s bucket and render its exemplar: the diagnosis."""
    vault = query.vault
    with tracer.span("fleet.triage.top"):
        buckets = query.top()
    bucket = next((b for b in buckets if b.sig == sig), None)
    if bucket is None:
        return None
    with tracer.span("fleet.query.incident_of"):
        incident = query.incident_of(bucket.exemplar)
    if incident is None:
        return None
    if len(incident.entries) == 1:
        with tracer.span("runtime.archive.decompress"):
            snap, _notes = vault.load(bucket.exemplar, salvage=True)
        with tracer.span("reconstruct.reconstruct"):
            trace = Reconstructor(vault.mapfiles()).reconstruct(snap, strict=False)
        with tracer.span("reconstruct.view"):
            return select_view(trace)
    snaps, notes = [], {}
    for entry in incident.entries:
        with tracer.span("runtime.archive.decompress"):
            snap, lost = vault.load(entry.digest, salvage=True)
        snaps.append(snap)
        if lost:
            notes.setdefault(entry.machine, []).extend(lost)
    with tracer.span("reconstruct.incident"):
        trace = Reconstructor(vault.mapfiles()).reconstruct_distributed(
            snaps,
            strict=False,
            expected_machines=incident.machines,
            salvage_notes=notes,
        )
    with tracer.span("reconstruct.view"):
        return render_distributed(trace)


def diagnose(crash: Crash, collector: Collector, query: VaultQuery):
    """The user path: submit, drain, then read the diagnosis."""
    for snap in crash.snaps:
        collector.submit(snap)
    collector.drain()
    return render_bucket(query, crash.sig, NULL), collector.results[-len(crash.snaps):]


def diagnose_traced(crash: Crash, vault: SnapVault, query: VaultQuery, tracer):
    """``diagnose`` with ``drain`` replaced by the calls it makes, in
    its order, each in its own span — the early-dedupe skip included."""
    stored = harness.store_traced(vault, crash.snaps, tracer)
    with tracer.span("fleet.index.persist"):
        vault.flush_index()
    return render_bucket(query, crash.sig, tracer), stored


def fault_shown(text: str | None, crash: Crash) -> bool:
    """The rendered diagnosis names the faulting line."""
    if text is None:
        return False
    at_fault = re.compile(re.escape(crash.fault) + r"\b")
    if crash.chain:
        return at_fault.search(text) is not None
    return any(
        "<=== fault here" in line and at_fault.search(line)
        for line in text.splitlines()
    )


# ----------------------------------------------------------------------
# One cycle: storm, then trickle, into a fresh vault
# ----------------------------------------------------------------------
def cycle(number, setups, scale, work_dir, tracer, result, times, chunks) -> dict:
    corpus = setups.state
    root = os.path.join(work_dir, f"vault-{number}")
    vault = SnapVault(root)
    for mapfile in corpus.mapfiles:
        vault.put_mapfile(mapfile)
    collector = Collector(vault)
    query = VaultQuery(vault)

    backlog = [snap for crash in corpus.storm for snap in crash.snaps]
    for first in range(0, len(backlog), scale.chunk):
        part = backlog[first : first + scale.chunk]
        chunk = first // scale.chunk
        start = time.perf_counter()
        with tracer.span("storm", op=f"storm{number}.{chunk}"):
            with tracer.span("fleet.collector.submit"):
                for snap in part:
                    collector.submit(snap)
            with tracer.span("fleet.collector.drain"):
                collector.drain()
        chunks.add(str(chunk), time.perf_counter() - start, False)
    setups.again()
    position = 0
    for crash in corpus.storm:
        stored = collector.results[position : position + len(crash.snaps)]
        position += len(crash.snaps)
        result.check(
            len(stored) == len(crash.snaps) and stored[0].entry.sig == crash.sig,
            f"storm crash at {crash.fault}: bucketed under "
            f"{stored[0].entry.sig if stored else None!r}",
        )

    for index, crash in enumerate(corpus.trickle):
        traced = tracer.enabled and (index + number) % 2 == 1
        spans = tracer if traced else NULL
        label = f"{number}.{index}"
        start = time.perf_counter()
        try:
            with spans.span("diagnose", op=label):
                if traced:
                    text, stored = diagnose_traced(crash, vault, query, spans)
                else:
                    text, stored = diagnose(crash, collector, query)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            result.check(False, f"crash {label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        ok = stored[0].entry.sig == crash.sig and fault_shown(text, crash)
        if crash.chain:
            incident = query.incident_of(stored[0].digest)
            ok = ok and incident is not None and sorted(
                e.digest for e in incident.entries
            ) == sorted(s.digest for s in stored)
        if result.check(ok, f"crash {label} at {crash.fault}: wrong diagnosis"):
            times.add(str(index), elapsed, traced)

    distinct = len({id(s) for c in corpus.storm + corpus.trickle for s in c.snaps})
    if len(vault) != distinct or collector.dead or vault.metrics.evicted:
        result.fail(
            f"cycle {number}: {len(vault)} snaps stored of {distinct} distinct, "
            f"{len(collector.dead)} dead letters, {vault.metrics.evicted} evicted"
        )
    stats = {
        "snaps": len(vault),
        "bytes_per_snap": vault.store_bytes() / len(vault),
        "index_bytes": os.path.getsize(
            os.path.join(root, vault.incident_index_path())
        ),
        "buckets": len(query.top()),
        "metrics": vault.metrics,
    }
    shutil.rmtree(root, ignore_errors=True)
    setups.again()
    return stats


def run(seed: int, seconds: float, scale_name: str, tracer, work_dir: str):
    scale = SCALES[scale_name]
    result = harness.Result()
    setups = harness.Setups(lambda: setup(seed, scale, tracer))
    corpus = setups.state
    gen2 = harness.freeze_heap()
    times = harness.OpTimes()
    chunks = harness.OpTimes()  # storm chunk -> seconds
    cycles: list[dict] = []
    window = harness.Window(seconds)
    last = 0.0
    while len(cycles) < MIN_CYCLES or window.open(last):
        began = time.perf_counter()
        cycles.append(
            cycle(len(cycles), setups, scale, work_dir, tracer, result, times, chunks)
        )
        harness.collect()  # the finished cycle's vault is harness garbage
        last = time.perf_counter() - began

    diagnoses = times.all_untraced()
    p95, beyond = harness.tail(diagnoses, 0.95)
    first = cycles[0]
    fm = first["metrics"]
    programs = corpus.programs
    storm_snaps = sum(len(c.snaps) for c in corpus.storm)
    m = result.metrics
    m["setup_s"] = setups.seconds
    m["throughput"] = storm_snaps / sum(chunks.best().values())
    m["best_op_ms.p50"] = times.best_p50() * 1e3
    m["overhead_cycles"] = harness.geo_mean(
        p.traced.cycles / p.bare.cycles for p in programs
    )
    m["peak_rss_mb"] = harness.peak_rss_mb()
    m["instrument.probes"] = sum(
        p.stats.header_probes + p.stats.light_probes for p in programs
    )
    m["instrument.text_growth"] = harness.geo_mean(
        p.stats.size_growth for p in programs
    )
    m["fleet.store.dedupe_rate"] = fm.dedupe_rate
    m["fleet.store.early_dedupe_hits"] = fm.early_dedupe_hits
    m["fleet.store.bytes_per_snap"] = first["bytes_per_snap"]
    m["fleet.index.persists"] = fm.index_persists
    m["fleet.index.bytes"] = first["index_bytes"]
    m["fleet.triage.buckets"] = first["buckets"]
    m["fleet.collector.retries"] = fm.retries
    m["fleet.collector.dead_letters"] = fm.dead_letters
    m["fleet.collector.queue_peak"] = fm.queue_peak
    m["fleet.collector.backpressure_flushes"] = fm.backpressure_flushes
    m["python.gc_gen2"] = harness.program_gen2(gen2)
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
        m.update(harness.stage_means(tracer, "diagnose", DIAGNOSE_STAGES))
        m.update(times.layer_metrics(tracer, "diagnose"))

    chains = scale.storm_chains + scale.trickle_chains
    result.report += [
        f"corpus: {scale.programs} programs, {chains} chain incidents, "
        f"storm backlog {storm_snaps} snaps, {len(corpus.trickle)} trickle "
        f"crashes per cycle, {len(cycles)} cycle(s), setup_s best of "
        f"{len(setups.samples)}",
        f"storm_snaps_per_s: {m['throughput']:.1f} from each "
        f"{scale.chunk}-snap chunk's best of {len(cycles)} cycles",
        f"diagnose_ms: best p50 {m['best_op_ms.p50']:.3f} over "
        f"{len(times.untraced)} trickle positions; all samples: p50 "
        f"{harness.median(diagnoses) * 1e3:.3f}, p95 {p95 * 1e3:.3f} "
        f"({beyond} samples beyond p95), {len(diagnoses)} samples",
        f"vault: {first['snaps']} snaps, vault_bytes_per_snap "
        f"{first['bytes_per_snap']:.2f}, dedupe rate {fm.dedupe_rate:.4f}, "
        f"{first['buckets']} buckets, incidents.idx {first['index_bytes']} B",
    ]
    if tracer.enabled:
        result.report += harness.breakdown_lines(tracer, "diagnose")
        result.report += harness.breakdown_lines(tracer, "storm")
    return result
