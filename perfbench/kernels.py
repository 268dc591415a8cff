"""traced-kernels: Table 1's SPECint-analog kernels, run under tracing.

Why this workload exists: it is the paper's headline number.  An
operation loads one instrumented kernel into a fresh process with a
TraceBack runtime and runs it to completion on Machine's default
engine, so all the work is in ``vm`` and the ``runtime`` probes;
``fleet``, ``reconstruct`` and ``replay`` do nothing.  The kernels keep
the suite's shapes: gzip (tight loop), mcf (pointer chasing), parser
(dense branches), crafty and gap (call-heavy).

Set-up compiles and instruments the kernels; it is sampled again after
every kernel run.  One bare run of each kernel then supplies its cycle
count and its instruction count — the unit of work: probe instructions
added by instrumentation are cost, not work.  Every kernel runs once
per pass, in laps of ``harness.LAP_CYCLES``; its cost is the sum of
each lap's best time over the window.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import harness
from spans import NULL

from repro.instrument import InstrumentConfig, instrument_module
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig
from repro.workloads import benchmark_named

KERNELS = {
    "full": ("gzip", "mcf", "parser", "crafty", "gap"),
    "tiny": ("parser",),
}
#: Set-ups (compile + instrument every kernel) sampled after each
#: kernel run: about eighty in a full run.
SETUP_REPEATS = {"full": 2, "tiny": 1}

#: Whole passes over the kernels a run makes at least: two, so a traced
#: run times every kernel both with and without spans.
MIN_PASSES = 2


@dataclass
class Kernel:
    name: str
    module: object  # compiled Module, run bare
    instrumented: object  # rewritten Module, run under the runtime
    stats: object  # InstrumentStats
    bare: harness.Execution | None = None
    bare_seconds: float = 0.0
    traced_cycles: int | None = None
    records_written: int = 0
    wraps: int = 0
    seconds: list[float] = field(default_factory=list)
    laps: list[list[float]] = field(default_factory=list)  # untraced runs'

    @property
    def best(self) -> float:
        """Host seconds of a run from the best time of every lap."""
        return harness.best_laps(self.laps)


def setup(order: list[str], tracer) -> list[Kernel]:
    kernels = []
    with tracer.span("setup"):
        for name in order:
            source = benchmark_named(name).source
            with tracer.span("lang.compile", op=name):
                module = compile_source(source, name)
            with tracer.span("instrument.rewrite", op=name):
                result = instrument_module(module, InstrumentConfig())
            kernels.append(Kernel(name, module, result.module, result.stats))
    return kernels


def run(seed: int, seconds: float, scale: str, tracer, work_dir: str):
    result = harness.Result()
    order = list(KERNELS[scale])
    random.Random(seed).shuffle(order)
    setups = harness.Setups(lambda: setup(order, tracer))
    kernels = setups.state
    for kernel in kernels:
        start = time.perf_counter()
        with tracer.span("calibrate", op=kernel.name):
            kernel.bare = harness.run_program(kernel.module, tracer=tracer)
        kernel.bare_seconds = time.perf_counter() - start
        if kernel.bare.status != "done":
            raise harness.BenchError(
                f"{kernel.name}: bare run ended {kernel.bare.status}"
            )
    gen2 = harness.freeze_heap()

    config = RuntimeConfig()
    times = harness.OpTimes()
    window = harness.Window(seconds)
    op = passes = 0
    last = 0.0
    while passes < MIN_PASSES or window.open(last):
        began = time.perf_counter()
        for kernel in kernels:
            traced = tracer.enabled and op % 2 == 1
            spans = tracer if traced else NULL
            label = f"{kernel.name}#{op}"
            op += 1
            laps: list[float] = []
            start = time.perf_counter()
            try:
                with spans.span("kernel", op=label):
                    ex = harness.run_program(
                        kernel.instrumented, config, spans, laps=laps
                    )
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                result.check(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            if kernel.traced_cycles is None:
                kernel.traced_cycles = ex.cycles
                kernel.records_written = ex.runtime.stats.records_written
                kernel.wraps = ex.runtime.stats.wraps
            ok = (
                ex.status == "done"
                and ex.output == kernel.bare.output
                and ex.cycles == kernel.traced_cycles
            )
            if result.check(
                ok,
                f"{label}: status {ex.status}, {ex.cycles} cycles (first run "
                f"{kernel.traced_cycles}), output "
                f"{'matches' if ex.output == kernel.bare.output else 'differs from'} "
                "the bare run",
            ):
                kernel.seconds.append(elapsed)
                times.add(kernel.name, elapsed, traced)
                if not traced:
                    kernel.laps.append(laps)
            setups.again(SETUP_REPEATS[scale])
        passes += 1
        last = time.perf_counter() - began

    timed = [k for k in kernels if k.laps]
    ran = [k for k in kernels if k.seconds]
    m = result.metrics
    m["setup_s"] = setups.seconds
    m["throughput"] = (
        sum(k.bare.instructions for k in timed) / sum(k.best for k in timed)
        if timed else 0.0
    )
    m["best_op_ms.p50"] = harness.median(k.best for k in timed) * 1e3
    m["overhead_cycles"] = (
        harness.geo_mean(k.traced_cycles / k.bare.cycles for k in ran)
        if ran else 0.0
    )
    m["peak_rss_mb"] = harness.peak_rss_mb()
    m["instrument.probes"] = sum(
        k.stats.header_probes + k.stats.light_probes for k in kernels
    )
    m["instrument.text_growth"] = harness.geo_mean(
        k.stats.size_growth for k in kernels
    )
    m["vm.bare_ips"] = sum(k.bare.instructions for k in kernels) / sum(
        k.bare_seconds for k in kernels
    )
    if timed:
        m["runtime.overhead_wall"] = harness.geo_mean(
            k.best / k.bare_seconds for k in timed
        )
    m["runtime.records_written"] = sum(k.records_written for k in kernels)
    m["runtime.wraps"] = sum(k.wraps for k in kernels)
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
        m.update(times.layer_metrics(tracer, "kernel"))

    result.report.append(
        "kernel    runs  bare cycles  traced cycles  ratio   bare s  "
        "best s  median s"
    )
    for k in kernels:
        result.report.append(
            f"{k.name:<8} {len(k.seconds):>5} {k.bare.cycles:>12,} "
            f"{k.traced_cycles or 0:>14,} "
            f"{(k.traced_cycles or 0) / k.bare.cycles:>6.3f} "
            f"{k.bare_seconds:>8.3f} {k.best:>7.3f} "
            f"{harness.median(k.seconds):>9.3f}"
        )
    result.report.append(
        f"traced_ips {m['throughput']:,.0f} program instructions per host "
        f"second, from the best of every {harness.LAP_CYCLES:,}-cycle lap "
        f"over {len(times.all_untraced())} untraced runs; overhead_cycles "
        f"{m['overhead_cycles']:.4f}; setup_s best of {len(setups.samples)}"
    )
    if tracer.enabled:
        result.report += harness.breakdown_lines(tracer, "kernel")
    return result
