"""The trend benchmarks' one history writer and one regression guard.

Five benchmarks back this reproduction's trend claims, each in its own
section of a ``BENCH_*.json`` file at the repo root:

* ``BENCH_interpreter.json``: ``engines`` (``bench_interpreter.py``)
  and ``replay`` (``bench_replay.py``);
* ``BENCH_fleet.json``: ``ingest`` (``bench_fleet_ingest.py``), ``gc``
  (``bench_fleet_gc.py``) and ``federation``
  (``bench_fleet_federation.py``).

A file holds nothing but its sections.  A section is a list of
entries, one per run, newest last, capped at ``HISTORY_LIMIT``; a run
appends its entry to its own section and leaves the others untouched.

Each benchmark names its guarded keys as data: a dotted path into an
entry mapped to the direction that is better (``"higher"`` or
``"lower"``).  ``--check`` compares each guarded key of the newest
entry with the median of that key over the up-to-``BASELINE_RUNS``
earlier entries that carry it, and fails when the newest is worse than
that median by more than ``TOLERANCE``.  The median keeps one outlier
run from tripping the guard or from becoming its baseline, and a slow
drift shows against it where each step would pass against the entry
before.  A guarded key missing from the newest entry fails, named, so a
renamed measurement cannot silence its guard.  Fewer than two entries
is nothing to compare::

    PYTHONPATH=src python benchmarks/bench_<name>.py          # measure
    PYTHONPATH=src python benchmarks/bench_<name>.py --check  # guard
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
INTERPRETER = ROOT / "BENCH_interpreter.json"
FLEET = ROOT / "BENCH_fleet.json"

#: Entries kept per section.
HISTORY_LIMIT = 20

#: Earlier entries the newest is compared against (their median).
BASELINE_RUNS = 5

#: How much worse than the baseline median the newest entry may read.
TOLERANCE = 0.25


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def record(path: Path, section: str, entry: dict) -> None:
    """Append ``entry`` to ``section`` of ``path``, newest last."""
    report = _load(path)
    report[section] = (report.get(section, []) + [entry])[-HISTORY_LIMIT:]
    path.write_text(json.dumps(report, indent=2) + "\n")


def lookup(entry: dict, key: str):
    """The value at dotted ``key`` in ``entry``, or None if absent."""
    value = entry
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _number(value: float) -> str:
    return f"{round(value, 4):,}"


def check(path: Path, section: str, guarded: dict[str, str]) -> int:
    """Exit status of ``--check``: 1 when any guarded key of the newest
    entry is missing or worse than its baseline median by more than
    ``TOLERANCE``."""
    entries = _load(path).get(section, [])
    label = f"{path.name} {section} --check"
    if len(entries) < 2:
        print(f"{label}: {len(entries)} entr(ies), nothing to compare")
        return 0
    newest, earlier = entries[-1], entries[:-1]
    failed = False
    for key, better in guarded.items():
        value = lookup(newest, key)
        if value is None:
            print(f"{label}: FAIL — {key} is missing from the newest entry")
            failed = True
            continue
        past = [lookup(entry, key) for entry in earlier]
        past = [v for v in past if v is not None][-BASELINE_RUNS:]
        if not past:
            print(f"{label}: ok — {key} {_number(value)}, "
                  "no earlier entry to compare")
            continue
        baseline = median(past)
        if better == "higher":
            worse = value < baseline * (1 - TOLERANCE)
        else:
            worse = value > baseline * (1 + TOLERANCE)
        verdict = "FAIL" if worse else "ok"
        print(
            f"{label}: {verdict} — {key} {_number(value)} vs median "
            f"{_number(baseline)} of {len(past)} earlier "
            f"({value / baseline - 1:+.0%}, {better} is better, "
            f"tolerance {TOLERANCE:.0%})"
        )
        failed |= worse
    return 1 if failed else 0


def main(
    path: Path,
    section: str,
    guarded: dict[str, str],
    run: Callable[[], dict],
    render: Callable[[dict], str],
) -> None:
    """A trend benchmark's command line: ``run`` (which records) and
    print the ``render``-ed entry, or with ``--check`` guard
    ``section``."""
    if "--check" in sys.argv[1:]:
        raise SystemExit(check(path, section, guarded))
    print(render(run()))
