"""Fleet vault GC benchmark: reclaim rate + ingest under compaction.

The compaction PR's operational claims, measured:

* **reclaim rate** — a compact() pass over a vault where an age budget
  expires roughly half the store: reclaimed bytes per second of wall
  clock (tombstone append + blob unlinks + manifest rewrites + index
  re-persist all included);
* **ingest under compaction** — the same parallel-collector ingest the
  ingest benchmark runs, but with repeated compact() passes racing it
  from another thread.  Compaction holds each shard lock only briefly,
  so concurrent ingest must retain most of its clean-run throughput
  (the recorded ratio is informational; the assertion is an ordinal
  floor).

Each run appends its entry to the ``gc`` section of
``BENCH_fleet.json``; ``--check`` guards the reclaim rate
(``benchmarks/_harness.py``).

Also runs in the slow pytest lane.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time

# Importable both as benchmarks.bench_fleet_gc (pytest, repo root on
# sys.path) and as a direct script (only benchmarks/ on sys.path).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks._harness import FLEET, main, record  # noqa: E402
from benchmarks.bench_fleet_ingest import (  # noqa: E402
    _make_snap,
    feed_parallel,
)
from repro.fleet import RetentionPolicy, SnapVault
from repro.workloads.harness import format_table

OUTPUT_PATH = FLEET
SECTION = "gc"
GUARDED = {"reclaimed_bytes_per_sec": "higher"}

#: Snaps in the reclaim-rate vault; an age horizon at the midpoint
#: clock expires roughly half of them.
GC_VAULT_SNAPS = 4_000

#: Snaps ingested while compaction passes race the collectors.
INGEST_SNAPS = 3_000


def _fill_vault(root: str, count: int) -> SnapVault:
    vault = SnapVault(root, shards=8, durability="batch")
    feed_parallel(vault, [_make_snap(i) for i in range(count)], batch_size=64)
    return vault


def _reclaim_rate() -> dict:
    """Time one compact() pass that expires ~half the vault."""
    root = tempfile.mkdtemp(prefix="tb-bench-gc-")
    try:
        vault = _fill_vault(root, GC_VAULT_SNAPS)
        stored = len(vault)
        store_bytes = vault.store_bytes()
        # Clocks are 1000*i: a horizon at the midpoint halves the vault
        # (group-snap pins rescue a few old incident members).
        policy = RetentionPolicy(
            max_age=(GC_VAULT_SNAPS // 2) * 1_000,
            pin_open_incidents=True,
        )
        start = time.perf_counter()
        plan = vault.compact(policy=policy)
        seconds = time.perf_counter() - start
        reclaimed = vault.metrics.reclaimed_bytes
        assert reclaimed > 0, "compaction reclaimed nothing"
        assert len(vault) == stored - len(plan.victims)
        return {
            "stored": stored,
            "store_bytes": store_bytes,
            "victims": len(plan.victims),
            "pins_honored": len(plan.pinned),
            "reclaimed_bytes": reclaimed,
            "seconds": round(seconds, 4),
            "reclaimed_bytes_per_sec": round(reclaimed / seconds, 1),
            "entries_per_sec": round(len(plan.victims) / seconds, 1),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _ingest_rate(compact_concurrently: bool) -> dict:
    """Parallel-collector ingest, optionally with racing GC passes."""
    root = tempfile.mkdtemp(prefix="tb-bench-gc-ingest-")
    try:
        # Pre-populate with old snaps so the racing GC has victims.
        vault = _fill_vault(root, 1_000)
        snaps = [_make_snap(100_000 + i) for i in range(INGEST_SNAPS)]
        stop = threading.Event()
        gc_passes = [0]

        def gc_loop():
            now = 0
            while not stop.is_set():
                # Expire everything older than the newest pre-filled
                # clock; freshly-ingested snaps are far newer.
                vault.compact(
                    policy=RetentionPolicy(
                        max_age=1, pin_open_incidents=False
                    ),
                    now=now,
                )
                now += 1_000
                gc_passes[0] += 1

        gc_thread = threading.Thread(target=gc_loop, daemon=True)
        if compact_concurrently:
            gc_thread.start()
        seconds = feed_parallel(vault, snaps)
        stop.set()
        if compact_concurrently:
            gc_thread.join()
        result = {
            "seconds": round(seconds, 4),
            "snaps_per_sec": round(len(snaps) / seconds, 1),
        }
        if compact_concurrently:
            result["gc_passes"] = gc_passes[0]
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_benchmark() -> dict:
    reclaim = _reclaim_rate()
    clean = _ingest_rate(compact_concurrently=False)
    racing = _ingest_rate(compact_concurrently=True)
    ratio = round(
        racing["snaps_per_sec"] / clean["snaps_per_sec"], 3
    )
    entry = {
        "reclaim": reclaim,
        "ingest_clean": clean,
        "ingest_during_compaction": racing,
        "ingest_retention_ratio": ratio,
        "reclaimed_bytes": reclaim["reclaimed_bytes"],
        "reclaimed_bytes_per_sec": reclaim["reclaimed_bytes_per_sec"],
    }
    record(OUTPUT_PATH, SECTION, entry)
    return entry


def _render(entry: dict) -> str:
    reclaim = entry["reclaim"]
    rows = [
        ("vault before GC", f"{reclaim['stored']:,} snaps, "
                            f"{reclaim['store_bytes']:,} B"),
        ("victims / pins honored",
         f"{reclaim['victims']:,} / {reclaim['pins_honored']:,}"),
        ("reclaimed", f"{reclaim['reclaimed_bytes']:,} B in "
                      f"{reclaim['seconds']:.2f}s"),
        ("reclaim rate", f"{reclaim['reclaimed_bytes_per_sec']:,.0f} B/s "
                         f"({reclaim['entries_per_sec']:,.0f} entries/s)"),
        ("ingest, clean",
         f"{entry['ingest_clean']['snaps_per_sec']:,.0f} snaps/s"),
        ("ingest, GC racing",
         f"{entry['ingest_during_compaction']['snaps_per_sec']:,.0f} "
         f"snaps/s "
         f"({entry['ingest_during_compaction']['gc_passes']} passes)"),
        ("throughput retained", f"{entry['ingest_retention_ratio']:.0%}"),
    ]
    return format_table(
        rows,
        headers=["metric", "value"],
        title="Fleet vault: compaction reclaim + ingest under GC",
    )


def test_fleet_gc(report):
    entry = run_benchmark()
    report.append(_render(entry))
    assert entry["reclaimed_bytes"] > 0
    # GC must not starve ingest: an ordinal floor, not a tight bound
    # (shard locks are held per-batch; scheduler noise is real).
    assert entry["ingest_retention_ratio"] >= 0.15, (
        f"ingest kept only {entry['ingest_retention_ratio']:.0%} of its "
        "throughput under compaction"
    )


if __name__ == "__main__":
    main(OUTPUT_PATH, SECTION, GUARDED, run_benchmark, _render)
