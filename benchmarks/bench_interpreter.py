"""Interpreter engine benchmark: both TBVM tiers + trace decode.

Measures guest instructions per second for every engine tier on a
representative slice of the specint workload suite, plus trace-record
decode throughput (scalar oracle vs the vectorized bulk scanners), and
records the results in ``BENCH_interpreter.json`` at the repo root.

Tier 3 exists to make the simulation usable at paper-scale workloads;
this benchmark holds it to its contract:

* ``block`` (tier 3, fused straight-line units, :mod:`repro.vm.blocks`):
  >= 4x geometric-mean speedup over ``Machine.step()`` in the in-test
  floor (the recorded numbers run >= 5x; the floor leaves noise
  headroom on busy CI boxes);
* bulk decode (:func:`repro.runtime.records.read_forward_bulk` and the
  salvage resync scanner): >= 3x the scalar oracle's word throughput;
* identical program output and cycle counts across tiers (the
  differential suite in ``tests/vm/test_differential.py`` checks full
  state; this cross-checks the summary numbers on the real workloads).

Results keep a bounded ``history`` array (BENCH_fleet style)::

    PYTHONPATH=src python benchmarks/bench_interpreter.py          # measure
    PYTHONPATH=src python benchmarks/bench_interpreter.py --check  # guard

``--check`` compares the two most recent history entries and fails on a
>25% regression in block-engine geo-mean speedup or bulk-decode
speedup; fewer than two entries is not an error.  The ``replay``
section maintained by ``bench_replay.py`` is carried over untouched.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from statistics import geometric_mean

from repro.lang.minic import compile_source
from repro.runtime.records import (
    _DAG_CACHE,
    DagRecord,
    ExtKind,
    ExtRecord,
    read_forward,
    read_forward_bulk,
)
from repro.workloads.harness import format_table, run_once
from repro.workloads.specint import benchmark_named

SCHEMA = "tbvm-interpreter-bench/2"

#: Engine tiers, slowest first; speedups are relative to the first.
TIERS = ("reference", "block")

#: A spread of workload shapes: tight integer loops (gzip, mcf), pointer
#: chasing (parser), branchy search (crafty), and call-heavy (gap).
WORKLOADS = ["gzip", "mcf", "parser", "crafty", "gap"]

#: Best-of-N wall-clock to damp scheduler noise.
REPEATS = 3

#: In-test floors (geometric mean over WORKLOADS).  Conservative vs the
#: recorded numbers so a noisy box doesn't flake the slow lane; the
#: ``--check`` history guard watches the recorded numbers themselves.
MIN_BLOCK_GEO_MEAN_SPEEDUP = 4.0
MIN_DECODE_SPEEDUP = 3.0

#: ``--check`` tolerance between the two most recent history entries.
REGRESSION_TOLERANCE = 0.25

HISTORY_LIMIT = 20

#: Decode subject size (words).  Mostly single-word DAG records with the
#: occasional multi-word extended record — the shape real trace rings
#: have — plus a zeroed tail.
DECODE_WORDS = 1 << 18

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_interpreter.json"


def _measure(name: str) -> dict:
    """Best-of-``REPEATS`` run of one workload on every tier.

    Repeats are interleaved across tiers (tier-inner, repeat-outer) so
    no tier systematically lands on a hotter or more contended CPU than
    the others — engine-major ordering was measurably biased against
    whichever tier ran last.
    """
    bench = benchmark_named(name)
    best: dict[str, dict] = {}
    for _ in range(REPEATS):
        for tier in TIERS:
            module = compile_source(bench.source, name)
            start = time.perf_counter()
            outcome = run_once(module, engine=tier)
            seconds = time.perf_counter() - start
            if tier not in best or seconds < best[tier]["seconds"]:
                best[tier] = {
                    "seconds": seconds,
                    "instructions": outcome.instructions,
                    "cycles": outcome.cycles,
                    "output": outcome.output,
                }
    for entry in best.values():
        entry["ips"] = entry["instructions"] / entry["seconds"]
    return best


def _decode_subject() -> list[int]:
    """A deterministic trace-ring-shaped word stream."""
    words: list[int] = []
    ext_cycle = [
        ExtRecord(ExtKind.TIMESTAMP, 13, (1234, 0)),
        ExtRecord(ExtKind.SYNC, 2, (7, 9, 3, 1000, 0)),
        ExtRecord(ExtKind.SNAP_MARK, 0),
    ]
    i = 0
    while len(words) < DECODE_WORDS - 64:
        # A loop working set: the same few DAGs with a few path shapes
        # repeating, as hot loops produce (and as the decode cache is
        # sized for).
        words.append(
            DagRecord(dag_id=(i * 13) % 97, path_bits=(i * 5) % 23).encode()
        )
        if i % 50 == 49:
            words.extend(ext_cycle[i % len(ext_cycle)].encode())
        i += 1
    words.extend([0] * (DECODE_WORDS - len(words)))  # zeroed tail
    return words


def _measure_decode() -> dict:
    """Scalar vs bulk forward-decode throughput on the synthetic ring."""
    words = _decode_subject()
    n = len(words)
    _DAG_CACHE.clear()  # the bulk path earns its warm cache itself
    results = {}
    for label, scanner in (("scalar", read_forward), ("bulk", read_forward_bulk)):
        best = None
        records = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            records = scanner(words, 0, n)
            seconds = time.perf_counter() - start
            if best is None or seconds < best:
                best = seconds
        results[label] = {
            "seconds": round(best, 4),
            "words_per_sec": round(n / best),
            "records": len(records),
        }
    assert results["bulk"]["records"] == results["scalar"]["records"]
    results["speedup"] = round(
        results["bulk"]["words_per_sec"] / results["scalar"]["words_per_sec"], 3
    )
    results["words"] = n
    return results


def run_benchmark() -> dict:
    """Measure every workload under every tier plus decode; write and
    return the report."""
    rows = []
    for name in WORKLOADS:
        measured = _measure(name)
        reference = measured["reference"]
        for tier in TIERS[1:]:
            # Equivalence cross-check: same work, same result.
            assert measured[tier]["output"] == reference["output"], name
            assert measured[tier]["cycles"] == reference["cycles"], name
            assert (
                measured[tier]["instructions"] == reference["instructions"]
            ), name
        rows.append(
            {
                "name": name,
                "instructions": reference["instructions"],
                "engines": {
                    tier: {
                        "seconds": round(measured[tier]["seconds"], 4),
                        "ips": round(measured[tier]["ips"]),
                    }
                    for tier in TIERS
                },
                "speedup": {
                    tier: round(measured[tier]["ips"] / reference["ips"], 3)
                    for tier in TIERS[1:]
                },
            }
        )

    geo_mean = {
        tier: round(
            geometric_mean([row["speedup"][tier] for row in rows]), 3
        )
        for tier in TIERS[1:]
    }
    decode = _measure_decode()

    report = {
        "schema": SCHEMA,
        "workloads": rows,
        "geo_mean": geo_mean,
        "decode": decode,
    }
    # Other benchmarks (bench_replay) keep their own sections in the
    # same file; carry them over — and our own history — rather than
    # clobbering.
    try:
        previous = json.loads(OUTPUT_PATH.read_text())
    except (OSError, ValueError):
        previous = {}
    # The retired tier-2 engine's geo mean, a copy of ``geo_mean``.
    previous.pop("geo_mean_speedup", None)
    history = previous.get("history", [])
    history.append(
        {
            "geo_mean": geo_mean,
            "decode_speedup": decode["speedup"],
            "block_ips_gzip": rows[0]["engines"]["block"]["ips"],
        }
    )
    report["history"] = history[-HISTORY_LIMIT:]
    for key, value in previous.items():
        report.setdefault(key, value)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_regression() -> int:
    """Exit 1 when block geo-mean or decode speedup regressed >25%
    between the two most recent history entries."""
    try:
        report = json.loads(OUTPUT_PATH.read_text())
    except (OSError, ValueError):
        report = {}
    history = report.get("history", [])
    if len(history) < 2:
        print(
            f"bench_interpreter --check: {len(history)} history "
            "entr(ies) in BENCH_interpreter.json, nothing to compare"
        )
        return 0
    prev, last = history[-2], history[-1]
    failed = False
    for label, get in (
        ("block geo-mean speedup", lambda h: h["geo_mean"]["block"]),
        ("decode speedup", lambda h: h["decode_speedup"]),
    ):
        try:
            before, after = get(prev), get(last)
        except (KeyError, TypeError):
            continue  # metric introduced since the older entry
        if after < before * (1 - REGRESSION_TOLERANCE):
            print(
                f"bench_interpreter --check: FAIL — {label} {after:.2f}x "
                f"is down {(1 - after / before):.0%} from previous "
                f"{before:.2f}x (tolerance {REGRESSION_TOLERANCE:.0%})"
            )
            failed = True
        else:
            print(
                f"bench_interpreter --check: ok — {label} {after:.2f}x "
                f"vs previous {before:.2f}x"
            )
    return 1 if failed else 0


def _render(report: dict) -> str:
    rows = [
        (
            row["name"],
            row["instructions"],
            f"{row['engines']['reference']['ips']:,}",
            f"{row['engines']['block']['ips']:,}",
            f"{row['speedup']['block']:.2f}x",
        )
        for row in report["workloads"]
    ]
    rows.append(
        (
            "geo mean", "", "", "",
            f"{report['geo_mean']['block']:.2f}x",
        )
    )
    engines = format_table(
        rows,
        headers=[
            "workload", "instructions", "ref ips", "block ips", "block",
        ],
        title="Interpreter engines: instructions/second",
    )
    decode = report["decode"]
    decode_rows = [
        ("scalar", f"{decode['scalar']['words_per_sec']:,} words/s",
         f"{decode['scalar']['records']:,} records"),
        ("bulk", f"{decode['bulk']['words_per_sec']:,} words/s",
         f"{decode['bulk']['records']:,} records"),
        ("speedup", f"{decode['speedup']:.2f}x", ""),
    ]
    decode_table = format_table(
        decode_rows,
        headers=["scanner", "throughput", "output"],
        title=f"Trace decode: {decode['words']:,}-word ring",
    )
    return engines + "\n" + decode_table


def test_engine_and_decode_speedups(report):
    result = run_benchmark()
    report.append(_render(result))
    assert result["geo_mean"]["block"] >= MIN_BLOCK_GEO_MEAN_SPEEDUP, (
        f"block engine only {result['geo_mean']['block']:.2f}x over reference"
    )
    assert result["decode"]["speedup"] >= MIN_DECODE_SPEEDUP, (
        f"bulk decode only {result['decode']['speedup']:.2f}x over scalar"
    )


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        sys.exit(check_regression())
    print(_render(run_benchmark()))
