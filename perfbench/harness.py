"""Plumbing shared by the pipeline benchmark's workloads.

Importing the program from the checkout, pinning what is measured,
running one program on a fresh machine, storing snaps call by call,
closed-loop windows, order statistics, and the per-run result the
entry point prints.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from spans import NULL

#: Work area under the checkout root: vaults while a run lasts, and the
#: span dumps of traced runs (``out/``).
WORK_DIR = ".perfbench"

#: Cycle budget for one program run; every workload program ends far
#: below it.
MAX_CYCLES = 100_000_000

#: Simulated cycles per timed lap of a run (tens of milliseconds of
#: host time).  ``Machine.run`` stops only between scheduler slices and
#: resumes where it stopped, so a lapped run executes exactly what an
#: unlapped one does, and lap ``i`` is the same work in every run of a
#: program.
LAP_CYCLES = 100_000


class BenchError(Exception):
    """The benchmark cannot run here; raised before anything is timed."""


def import_repro(root: str) -> None:
    """Import ``repro`` from ``<root>/src`` and from nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    found = os.path.realpath(repro.__file__)
    if not found.startswith(src + os.sep):
        raise BenchError(f"repro was imported from {found}, not from {src}")


def filesystem_of(path: str) -> str:
    """Type of the filesystem that holds ``path``, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def pin_environment(work_dir: str) -> dict:
    """Refuse settings that change what is measured; record the rest."""
    if "TBVM_ENGINE" in os.environ:
        raise BenchError(
            "TBVM_ENGINE is set; the benchmark measures Machine's default "
            "engine, so unset it"
        )
    from repro.vm import Machine

    return {
        "engine": Machine().engine,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "vault_fs": filesystem_of(work_dir),
    }


# ----------------------------------------------------------------------
# Running one program
# ----------------------------------------------------------------------
@dataclass
class Execution:
    status: str
    cycles: int
    instructions: int
    output: list[str]
    runtime: object  # TraceBackRuntime, or None for a bare run


def run_program(
    module, config=None, tracer=NULL, name: str = "bench", laps=None
) -> Execution:
    """Run ``module`` to completion in a fresh process on a fresh
    machine (Machine's default engine).  With a ``RuntimeConfig`` the
    process gets a TraceBack runtime — the module should then be the
    instrumented one; without, the run is bare.  A ``laps`` list gets
    the host seconds of every ``LAP_CYCLES`` lap, loading included in
    the first."""
    from repro.runtime import TraceBackRuntime
    from repro.vm import Machine

    start = time.perf_counter()
    with tracer.span("vm.load"):
        machine = Machine()
        process = machine.create_process(name)
        runtime = None if config is None else TraceBackRuntime(process, config)
        process.load_module(module)
        process.start()
    with tracer.span("vm.run" if config is None else "runtime.run"):
        if laps is None:
            status = machine.run(max_cycles=MAX_CYCLES)
        else:
            status, target = "limit", 0
            while status == "limit" and target < MAX_CYCLES:
                target += LAP_CYCLES
                status = machine.run(max_cycles=target)
                now = time.perf_counter()
                laps.append(now - start)
                start = now
    return Execution(
        status=status,
        cycles=machine.cycles,
        instructions=sum(t.instructions for t in process.threads.values()),
        output=list(process.output),
        runtime=runtime,
    )


# ----------------------------------------------------------------------
# Storing snaps, call by call
# ----------------------------------------------------------------------
def store_traced(vault, snaps, tracer):
    """Store ``snaps`` with one ``put_batch``, each call of their
    preparation in its own span.

    The calls and their order are those of ``prepare_snap`` given the
    vault's ``contains`` and ``sign``, as a collector's drain makes
    them, early dedupe included: a digest the vault already holds skips
    mining, compression and signing.
    """
    from repro.fleet import PreparedSnap, content_digest, mine_sync_ids
    from repro.runtime import compress_snap

    prepared = []
    for snap in snaps:
        with tracer.span("fleet.store.digest"):
            digest = content_digest(snap)
        if vault.contains(digest):
            prepared.append(PreparedSnap(snap=snap, digest=digest, early_deduped=True))
            continue
        with tracer.span("reconstruct.mine"):
            sync_ids = mine_sync_ids(snap)
        with tracer.span("runtime.archive.compress"):
            data = compress_snap(snap, vault.compress_level)
        item = PreparedSnap(snap=snap, digest=digest, sync_ids=sync_ids, data=data)
        with tracer.span("reconstruct.sign"):
            item.ensure_sig(vault.sign)
        prepared.append(item)
    with tracer.span("fleet.store.commit"):
        return vault.put_batch(prepared)


# ----------------------------------------------------------------------
# Set-up, the heap, the window
# ----------------------------------------------------------------------
class Setups:
    """Set-up time, sampled across the whole run.

    A shared host runs this process half again slower for seconds at a
    time, so set-ups made back to back all land in one such phase, and
    such phases can hold half of a run's samples.  The first
    ``build()`` makes the run's state; ``again()``, called between
    operations, rebuilds it and drops the copy, so the samples spread
    over the window.  ``seconds`` is the best of them, as every other
    time the benchmark reports is.  Every build starts from a collected
    heap.
    """

    def __init__(self, build):
        self.build = build
        self.samples: list[float] = []
        self.state = self._timed()

    def _timed(self):
        collect()
        start = time.perf_counter()
        state = self.build()
        self.samples.append(time.perf_counter() - start)
        return state

    def again(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self._timed()
        collect()

    @property
    def seconds(self) -> float:
        return min(self.samples)


#: Full collections the harness made itself, not the program.
_own_collections = 0


def collect() -> None:
    """A full collection of the harness's garbage, between operations."""
    global _own_collections
    gc.collect()
    _own_collections += 1


def freeze_heap() -> int:
    """Move everything set-up built out of the collector's view.

    A full collection would otherwise walk the harness's corpus on every
    gen-2 pass inside timed operations.  Returns the baseline
    ``program_gen2`` counts from.
    """
    collect()
    gc.freeze()
    return gen2_collections() - _own_collections


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def program_gen2(baseline: int) -> int:
    """Gen-2 collections since ``baseline``, less the harness's own."""
    return gen2_collections() - _own_collections - baseline


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """A closed loop's measuring window: start work while it still fits."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def open(self, need: float = 0.0) -> bool:
        """Whether work expected to take ``need`` seconds ends inside."""
        return time.perf_counter() + need < self.deadline


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def best_laps(runs) -> float:
    """Host seconds of a lapped program run composed from the best time
    of each lap over ``runs`` (lap lists of runs of the same program).

    A slow phase of the host has to cover the same lap in every run to
    move this, where it moves a whole run's time by covering a part."""
    return sum(min(times) for times in zip(*runs))


def tail(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and how many samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geo_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# What one run reports
# ----------------------------------------------------------------------
@dataclass
class Result:
    """Operations attempted/failed, metrics by name, report lines."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``what`` names it when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


class OpTimes:
    """Operation latencies by operation key, split by whether spans
    were recorded.

    A key names one distinct operation a run repeats: a kernel, a
    position in the trickle, the open + replay of the recording.  The
    same work runs under every key each time, so its fastest untraced
    run is its cost with the least interference from the host's other
    tenants: a slow phase has to cover every repeat to move it.
    With tracing on, workloads alternate traced and untraced runs of
    each key; the difference of their medians, per key, is the tracing
    overhead.
    """

    def __init__(self) -> None:
        self.untraced: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}

    def add(self, key: str, seconds: float, traced: bool) -> None:
        side = self.traced if traced else self.untraced
        side.setdefault(key, []).append(seconds)

    def all_untraced(self) -> list[float]:
        return [s for values in self.untraced.values() for s in values]

    def best(self) -> dict[str, float]:
        """Fastest untraced run of every key."""
        return {key: min(values) for key, values in self.untraced.items()}

    def best_p50(self) -> float:
        """Median over the keys of their fastest untraced run."""
        return median(self.best().values())

    def layer_metrics(self, tracer, root: str) -> dict[str, float]:
        traced = [s for values in self.traced.values() for s in values]
        pairs = [
            median(self.traced[key]) - median(self.untraced[key])
            for key in self.traced
            if key in self.untraced
        ]
        _ops, total, parts = tracer.breakdown(root)
        return {
            "op.traced_ms.p50": median(traced) * 1e3,
            "op.trace_overhead_ms": (
                statistics.fmean(pairs) * 1e3 if pairs else 0.0
            ),
            "op.unattributed_frac": parts.get(root, 0.0) / total if total else 0.0,
        }


def stage_means(tracer, root: str, stages: dict[str, str], scale: float = 1e3):
    """Mean self time per ``root`` operation of each stage span.

    ``stages`` maps metric name -> span name; ``scale`` converts
    seconds to the metric's unit (ms by default).
    """
    ops, _total, parts = tracer.breakdown(root)
    return {
        metric: parts.get(span, 0.0) / ops * scale if ops else 0.0
        for metric, span in stages.items()
    }


def breakdown_lines(tracer, root: str) -> list[str]:
    """The decomposition of one operation kind, for the report."""
    ops, total, parts = tracer.breakdown(root)
    if not ops:
        return []
    lines = [f"{root}: {ops} traced op(s), {total / ops * 1e3:.3f} ms mean"]
    for name, seconds in sorted(parts.items(), key=lambda kv: -kv[1]):
        label = "(unattributed)" if name == root else name
        lines.append(
            f"  {label:<34} {seconds / ops * 1e3:10.3f} ms"
            f"  {seconds / total:6.1%}"
        )
    return lines
