"""Federated scatter-gather benchmark: fan-out latency + loss overhead.

The federation PR's operational claims, measured:

* **fan-out latency vs vault count** — one fixed corpus of fleet snaps
  split round-robin across 1, 2, 4, and 8 regional vaults, each behind
  its own :class:`VaultService`; the federated ``select`` + ``incidents``
  pair runs repeatedly and the wall clock and per-client simulated
  cycles are recorded.  The corpus is constant, so the curve isolates
  the scatter-gather overhead itself;
* **partial-result overhead under one slow vault** — the widest fan-out
  again, but with one vault's replies delayed past every client
  deadline.  The federation must still answer (coverage ``partial``)
  and the overhead it pays is exactly the lost vault's deadline+retry
  budget in simulated cycles, plus a small wall-clock delta.

Each run appends its entry to the ``federation`` section of
``BENCH_fleet.json``; ``--check`` guards ``queries_per_sec``, healthy
queries at the widest fan-out (``benchmarks/_harness.py``).

Also runs in the slow pytest lane.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

# Importable both as benchmarks.bench_fleet_federation (pytest, repo
# root on sys.path) and as a direct script (only benchmarks/ on
# sys.path).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks._harness import FLEET, main, record  # noqa: E402
from benchmarks.bench_fleet_ingest import _make_snap  # noqa: E402
from repro.distributed.network import Network
from repro.fleet import FederatedQuery, SnapVault
from repro.fleet.remote import RemoteVaultClient, VaultService
from repro.workloads.harness import format_table

OUTPUT_PATH = FLEET
SECTION = "federation"
GUARDED = {"queries_per_sec": "higher"}

#: Snaps in the fixed corpus, split round-robin across the fleet.
CORPUS_SNAPS = 240

#: Fan-out widths measured.
VAULT_COUNTS = [1, 2, 4, 8]

#: select+incidents rounds per width (wall clock is averaged over them).
ROUNDS = 15


def _build_fleet(root: str, count: int) -> dict[str, SnapVault]:
    vaults = {
        f"vault-{i:02d}": SnapVault(
            os.path.join(root, f"vault-{i:02d}"), shards=4
        )
        for i in range(count)
    }
    names = list(vaults)
    for i in range(CORPUS_SNAPS):
        vaults[names[i % count]].put(_make_snap(i))
    return vaults


def _serve(vaults: dict[str, SnapVault], **client_kw):
    network = Network()
    clients = {}
    for name, vault in vaults.items():
        network.register_vault_service(VaultService(vault, name=name))
        clients[name] = RemoteVaultClient(network, service=name, **client_kw)
    return network, clients


def _fan_out_point(root: str, count: int) -> dict:
    vaults = _build_fleet(os.path.join(root, str(count)), count)
    _, clients = _serve(vaults)
    federated = FederatedQuery(clients)
    start = time.perf_counter()
    for _ in range(ROUNDS):
        entries, report = federated.select()
        incidents, _ = federated.incidents()
    seconds = time.perf_counter() - start
    assert report.coverage == "full"
    assert len(entries) == CORPUS_SNAPS
    cycles = max(c.cycles_spent for c in clients.values())
    return {
        "vaults": count,
        "entries": len(entries),
        "incidents": len(incidents),
        "seconds": round(seconds, 4),
        "queries_per_sec": round(2 * ROUNDS / seconds, 1),
        "max_client_cycles": cycles,
    }


def _slow_vault_point(root: str, count: int) -> dict:
    """Widest fan-out with one vault delayed past every deadline."""
    vaults = _build_fleet(os.path.join(root, "slow"), count)
    network, clients = _serve(vaults, max_retries=1)
    slow = sorted(vaults)[-1]
    network.query_chaos = (
        lambda service, op, attempt: "delay" if service == slow else None
    )
    federated = FederatedQuery(clients)
    start = time.perf_counter()
    entries, report = federated.select()
    seconds = time.perf_counter() - start
    assert report.coverage == "partial"
    assert report.degraded_vaults() == [slow]
    healthy = max(
        c.cycles_spent for n, c in clients.items() if n != slow
    )
    return {
        "vaults": count,
        "entries_recovered": len(entries),
        "entries_lost": CORPUS_SNAPS - len(entries),
        "seconds": round(seconds, 4),
        "lost_vault_cycles": clients[slow].cycles_spent,
        "healthy_vault_cycles": healthy,
    }


def run_benchmark() -> dict:
    root = tempfile.mkdtemp(prefix="tb-bench-federation-")
    try:
        fan_out = [_fan_out_point(root, n) for n in VAULT_COUNTS]
        slow = _slow_vault_point(root, VAULT_COUNTS[-1])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    entry = {
        "fan_out": fan_out,
        "one_slow_vault": slow,
        "queries_per_sec": fan_out[-1]["queries_per_sec"],
    }
    record(OUTPUT_PATH, SECTION, entry)
    return entry


def _render(entry: dict) -> str:
    rows = [
        (
            f"fan-out ×{point['vaults']}",
            f"{point['queries_per_sec']:,.1f} queries/s, "
            f"{point['max_client_cycles']:,} cycles/client",
        )
        for point in entry["fan_out"]
    ]
    slow = entry["one_slow_vault"]
    rows.append(
        (
            f"one slow vault of {slow['vaults']}",
            f"{slow['entries_recovered']}/{CORPUS_SNAPS} entries, "
            f"lost client paid {slow['lost_vault_cycles']:,} cycles "
            f"(healthy {slow['healthy_vault_cycles']:,})",
        )
    )
    return format_table(
        rows,
        headers=["metric", "value"],
        title="Fleet federation: scatter-gather fan-out + loss overhead",
    )


def test_fleet_federation(report):
    entry = run_benchmark()
    report.append(_render(entry))
    # The lost vault pays its deadline+retry budget; the healthy ones
    # must not be dragged down with it.
    slow = entry["one_slow_vault"]
    assert slow["lost_vault_cycles"] > slow["healthy_vault_cycles"]
    assert slow["entries_recovered"] > 0


if __name__ == "__main__":
    main(OUTPUT_PATH, SECTION, GUARDED, run_benchmark, _render)
