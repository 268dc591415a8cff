"""The pipeline benchmark's one command.

    python3 perfbench/run.py --workload crash-triage --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout: ``src/`` (the program, imported
from there and nowhere else) and ``BENCHMARK.json`` (the metric names
and units) sit beside ``perfbench/``.  Work files go to
``.perfbench/`` and are removed at exit, except the span dumps of
traced runs in ``.perfbench/out/``.

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` reruns the workload with spans recorded around
calls into each layer and prints every per-layer metric.  The last
line of standard output is the result object; the lines before it are
a human-readable report.  Exit code 2 means the benchmark refused to
run (no program, an engine override, ...) and printed no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

import harness
from spans import NULL, Tracer

#: Workload name -> module with ``run(seed, seconds, scale, tracer, work_dir)``.
WORKLOADS = {
    "traced-kernels": "kernels",
    "crash-triage": "triage",
    "replay-debug": "replay_debug",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="TraceBack pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: seconds-long inputs for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise harness.BenchError(f"cannot read {path}: {exc}") from exc


def result_metrics(spec: dict, produced: dict, trace: int) -> dict:
    """Every metric the result line carries, with its declared unit.

    BENCHMARK.json is the one list of names.  A workload must measure
    every end-to-end metric; a per-layer metric of a layer it does not
    exercise reads 0.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(produced) - known)
    if unknown:
        raise harness.BenchError(f"metrics not in BENCHMARK.json: {unknown}")
    missing = sorted(m["name"] for m in declared if m["name"] not in produced)
    if missing and not trace:
        raise harness.BenchError(f"end-to-end metrics not measured: {missing}")
    return {
        m["name"]: {"value": produced.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    work_dir = os.path.join(root, harness.WORK_DIR, f"work-{os.getpid()}")
    tracer = Tracer() if args.trace else NULL
    try:
        spec = load_spec(root)
        harness.import_repro(root)
        os.makedirs(work_dir, exist_ok=True)
        env = harness.pin_environment(work_dir)
        workload = importlib.import_module(WORKLOADS[args.workload])
        result = workload.run(args.seed, args.seconds, args.scale, tracer, work_dir)
        metrics = result_metrics(spec, result.metrics, args.trace)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s "
        f"window, trace {args.trace}, scale {args.scale}"
    )
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in result.report:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for error in result.errors:
        print(f"FAILED: {error}")
    if args.trace:
        out = os.path.join(root, harness.WORK_DIR, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans: {path}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and result.attempted > 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
