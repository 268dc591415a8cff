"""The trend benchmarks' shared history writer and regression guard.

``benchmarks/conftest.py`` marks everything under ``benchmarks/`` slow,
so the harness itself is tested here, on temporary files, in the
default lane.
"""

from __future__ import annotations

import importlib
import json

import pytest

from benchmarks._harness import HISTORY_LIMIT, check, lookup, record

TREND_BENCHMARKS = [
    "bench_interpreter",
    "bench_replay",
    "bench_fleet_ingest",
    "bench_fleet_gc",
    "bench_fleet_federation",
]


def _write(path, sections: dict) -> None:
    path.write_text(json.dumps(sections, indent=2) + "\n")


def _rates(*values) -> list[dict]:
    return [{"rate": {"value": v}} for v in values]


def test_record_appends_to_one_section_only(tmp_path):
    path = tmp_path / "BENCH.json"
    record(path, "engines", {"n": 0})
    record(path, "replay", {"n": 0})
    before = path.read_text()

    record(path, "engines", {"n": 1})
    after = path.read_text()
    tail = '"replay":'
    assert after[after.index(tail):] == before[before.index(tail):]
    assert json.loads(after)["engines"] == [{"n": 0}, {"n": 1}]

    record(path, "replay", {"n": 1})
    again = path.read_text()
    assert again[:again.index(tail)] == after[:after.index(tail)]
    assert json.loads(again)["replay"] == [{"n": 0}, {"n": 1}]


def test_record_keeps_the_newest_entries(tmp_path):
    path = tmp_path / "BENCH.json"
    for n in range(HISTORY_LIMIT + 5):
        record(path, "gc", {"n": n})
    entries = json.loads(path.read_text())["gc"]
    assert [e["n"] for e in entries] == list(range(5, HISTORY_LIMIT + 5))


@pytest.mark.parametrize("entries", [[], _rates(1.0)])
def test_check_passes_with_fewer_than_two_entries(tmp_path, entries):
    path = tmp_path / "BENCH.json"
    _write(path, {"gc": entries})
    assert check(path, "gc", {"rate.value": "higher"}) == 0
    assert check(tmp_path / "absent.json", "gc", {"rate.value": "higher"}) == 0


def test_one_outlier_neither_trips_the_guard_nor_sets_its_baseline(
    tmp_path, capsys
):
    path = tmp_path / "BENCH.json"
    guarded = {"rate.value": "higher"}
    # A lucky run just before: 90 is -70% from it, -10% from the median.
    _write(path, {"ingest": _rates(100, 100, 100, 100, 300, 90)})
    assert check(path, "ingest", guarded) == 0
    assert "median 100 of 5 earlier" in capsys.readouterr().out
    # An unlucky run just before: 60 is +20% from it, -40% from the median.
    _write(path, {"ingest": _rates(100, 100, 100, 100, 50, 60)})
    assert check(path, "ingest", guarded) == 1
    # Only the five newest earlier entries count.
    _write(path, {"ingest": _rates(10, 10, 10, 100, 100, 100, 100, 100, 80)})
    assert check(path, "ingest", guarded) == 0


def test_lower_is_better_key_fails_when_it_rises(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    guarded = {"rate.value": "lower"}
    _write(path, {"replay": _rates(1.0, 1.0, 1.0, 1.2)})
    assert check(path, "replay", guarded) == 0
    _write(path, {"replay": _rates(1.0, 1.0, 1.0, 1.3)})
    assert check(path, "replay", guarded) == 1
    assert "FAIL — rate.value 1.3 vs median 1.0" in capsys.readouterr().out
    _write(path, {"replay": _rates(1.0, 1.0, 1.0, 0.1)})
    assert check(path, "replay", guarded) == 0


def test_missing_guarded_key_fails_only_in_the_newest_entry(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    guarded = {"rate.value": "higher", "other": "higher"}
    entries = [{"other": 1}, *_rates(100), {"other": 1}]
    _write(path, {"gc": entries + [{"rate": {"value": 95}, "other": 1}]})
    assert check(path, "gc", guarded) == 0
    assert "median 100 of 1 earlier" in capsys.readouterr().out
    _write(path, {"gc": entries + [{"rate": {}, "other": 1}]})
    assert check(path, "gc", guarded) == 1
    out = capsys.readouterr().out
    assert "FAIL — rate.value is missing from the newest entry" in out
    assert "ok — other 1" in out


@pytest.mark.parametrize("name", TREND_BENCHMARKS)
def test_committed_newest_entry_carries_every_guarded_key(name):
    bench = importlib.import_module(f"benchmarks.{name}")
    report = json.loads(bench.OUTPUT_PATH.read_text())
    assert all(isinstance(section, list) for section in report.values())
    newest = report[bench.SECTION][-1]
    for key, better in bench.GUARDED.items():
        assert better in ("higher", "lower"), key
        assert isinstance(lookup(newest, key), (int, float)), key
