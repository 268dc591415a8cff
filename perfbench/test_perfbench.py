"""The benchmark's own checks: tiny inputs, seconds of wall time.

Each workload runs once per mode at ``--scale tiny`` from a temporary
checkout (links to this repository's ``src/``, ``benchmarks/``,
``perfbench/`` and ``BENCHMARK.json``); the result line must carry
exactly the metrics BENCHMARK.json declares, with their units, and
report no failure.  A run whose checks fail still prints its result,
with the failures counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
CHECKOUT = ("src", "benchmarks", "perfbench", "BENCHMARK.json")
TINY = ("--seed", "3", "--seconds", "0.1", "--scale", "tiny")

#: The entry point, run after pointing replay-debug's fault-view check
#: at a line the view never marks, so every cycle fails its check.
WRONG_FAULT_LINE = (
    "import sys; sys.path.insert(0, 'perfbench'); import harness, run; "
    "harness.import_repro('.'); import replay_debug; "
    "replay_debug.FAULT_TEXT = 'int main() {'; "
    "sys.exit(run.main(sys.argv[1:]))"
)


def _checkout(tmp_path, *names):
    for name in names:
        (tmp_path / name).symlink_to(REPO / name)
    return tmp_path


def _run(cwd, *args, env=None, entry=("perfbench/run.py",)):
    return subprocess.run(
        [sys.executable, *entry, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(tmp_path, workload, trace):
    cwd = _checkout(tmp_path, *CHECKOUT)
    result = _result(_run(cwd, "--workload", workload, "--trace", str(trace), *TINY))
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_checks_reach_the_result_line(tmp_path):
    cwd = _checkout(tmp_path, *CHECKOUT)
    proc = _run(cwd, "--workload", "replay-debug", "--trace", "0", *TINY,
                entry=("-c", WRONG_FAULT_LINE))
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_refuses_without_the_program(tmp_path):
    cwd = _checkout(tmp_path, "perfbench", "BENCHMARK.json")
    proc = _run(cwd, "--workload", "crash-triage", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_an_engine_override(tmp_path):
    cwd = _checkout(tmp_path, *CHECKOUT)
    env = dict(os.environ, TBVM_ENGINE="block")
    proc = _run(cwd, "--workload", "traced-kernels", "--trace", "0", *TINY, env=env)
    assert proc.returncode == 2
    assert "TBVM_ENGINE" in proc.stderr
