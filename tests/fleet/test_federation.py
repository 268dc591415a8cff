"""Federated scatter-gather over regional vaults.

The acceptance bar: with zero chaos a federated answer is bit-identical
(in canonical, vault-free form) to the same query against one merged
vault; under chaos the answer degrades to a named partial result —
``FederationReport`` lists each vault that timed out, failed, or
truncated — and never raises or hangs.  A vault served by a *wedged*
host machine (deadlocked guest, or a runaway loop that blew the cycle
budget) must surface as a timed-out vault, for both ``"stalled"`` and
``"limit"`` ``Network.run()`` endings.
"""

import json

import pytest

from repro.chaos.scenarios import (
    FEDERATION_VICTIM,
    build_federated_fleet,
    serve_federation,
)
from repro.distributed.network import Network
from repro.distributed.session import DistributedSession
from repro.fleet import (
    FederatedQuery,
    IncidentIndex,
    SnapVault,
    VaultEntry,
    VaultQuery,
    canonical_buckets,
    canonical_entries,
    canonical_incidents,
)
from repro.fleet.federation import (
    COVERAGE_DEGRADED,
    COVERAGE_FULL,
    COVERAGE_PARTIAL,
    merge_buckets,
    merge_incidents,
)
from repro.fleet.remote import RemoteVaultClient, VaultService


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    base = tmp_path_factory.mktemp("federation")
    roots = {
        "vault-east": str(base / "east"),
        "vault-west": str(base / "west"),
    }
    vaults, session = build_federated_fleet(roots)
    # The merged ground truth: every region's snaps in one store.
    merged = SnapVault(str(base / "merged"), shards=4)
    for mapfile in session.mapfiles:
        merged.put_mapfile(mapfile)
    for vault in vaults.values():
        for entry in vault.select():
            snap, _ = vault.load(entry.digest)
            merged.put(snap)
    return roots, str(base / "merged"), session.mapfiles


def open_fleet(roots):
    return {name: SnapVault(root) for name, root in roots.items()}


def canon(docs) -> str:
    return json.dumps(docs, sort_keys=True)


# ----------------------------------------------------------------------
# Zero chaos: bit-identical to one merged vault
# ----------------------------------------------------------------------
def test_healthy_federation_is_full_coverage(fleet):
    roots, _, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    _, report = federated.select()
    assert report.coverage == COVERAGE_FULL
    assert report.degraded_vaults() == []
    assert {v.name for v in report.vaults} == set(roots)


def test_federated_select_bit_identical_to_merged_vault(fleet):
    roots, merged_root, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    entries, _ = federated.select()
    local = VaultQuery(SnapVault(merged_root))
    assert canon(canonical_entries(entries)) == canon(
        canonical_entries(local.select())
    )


def test_federated_incidents_bit_identical_to_merged_vault(fleet):
    roots, merged_root, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    incidents, _ = federated.incidents()
    local = VaultQuery(SnapVault(merged_root))
    assert canon(canonical_incidents(incidents)) == canon(
        canonical_incidents(local.incidents())
    )
    # The incident genuinely spans both vaults (SYNC + group links).
    assert any(len(i.machines) == 3 for i in incidents)


def test_federated_top_bit_identical_to_merged_vault(fleet):
    roots, merged_root, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    buckets, _ = federated.top()
    local = VaultQuery(SnapVault(merged_root))
    assert canon(canonical_buckets(buckets)) == canon(
        canonical_buckets(local.top())
    )
    assert buckets, "the crash must bucket"


def test_federated_filters_keep_per_vault_semantics(fleet):
    roots, merged_root, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    entries, report = federated.select(machine="machine-c")
    assert report.coverage == COVERAGE_FULL
    local = VaultQuery(SnapVault(merged_root))
    assert canon(canonical_entries(entries)) == canon(
        canonical_entries(local.select(machine="machine-c"))
    )


def test_window_over_several_vaults_is_refused(fleet):
    """Seqs are per vault, so a merge cannot honour a window: several
    sources refuse it, and one source keeps its own."""
    roots, _, _ = fleet
    federated, _ = serve_federation(open_fleet(roots), Network())
    with pytest.raises(ValueError, match="seqs are per vault"):
        federated.incidents(window=1)
    east = SnapVault(roots["vault-east"])
    alone = FederatedQuery({"vault-east": VaultQuery(east)})
    incidents, report = alone.incidents(window=1)
    assert report.coverage == COVERAGE_FULL
    assert incidents == VaultQuery(east).incidents(window=1)


def test_federated_exemplar_carries_the_bucket_signature():
    """Two SYNC-linked crashes from two vaults bucket under the smaller
    signature, and the exemplar is a snap that carries it — the one an
    index holding both entries names — not the smallest signed digest."""
    segv = "unhandled:SEGV @ server.handle(server.c:9)"
    divide = "unhandled:DIVIDE_BY_ZERO @ client.main(client.c:10)"
    entries = [
        VaultEntry(
            digest=digest, seq=0, shard=0, machine=machine, process=process,
            pid=1, reason="unhandled", clock=0, size=64, sync_ids=[7],
            sig=sig,
        )
        for digest, machine, process, sig in (
            ("aaaa", "machine-c", "server", segv),
            ("bbbb", "machine-a", "client", divide),
        )
    ]
    (bucket,) = merge_buckets(merge_incidents(entries))
    assert (bucket.sig, bucket.count, bucket.incidents) == (divide, 2, 1)
    assert bucket.exemplar == "bbbb"
    index = IncidentIndex()
    for entry in entries:
        index.add(entry)
    assert index.exemplar_digest(divide) == bucket.exemplar


# ----------------------------------------------------------------------
# Degradation: losses become named statuses, not exceptions
# ----------------------------------------------------------------------
def test_lost_vault_degrades_to_named_partial(fleet):
    roots, _, _ = fleet
    network = Network()
    federated, _ = serve_federation(open_fleet(roots), network)
    network.query_chaos = (
        lambda s, o, a: "kill-server" if s == FEDERATION_VICTIM else None
    )
    entries, report = federated.select()
    assert report.coverage == COVERAGE_PARTIAL
    assert report.degraded_vaults() == [FEDERATION_VICTIM]
    (lost,) = [v for v in report.vaults if v.name == FEDERATION_VICTIM]
    assert lost.status in ("timeout", "unavailable")
    # The survivors' entries are a correct subset of the full answer.
    healthy_fed, _ = serve_federation(open_fleet(roots), Network())
    full, _ = healthy_fed.select()
    assert {e.digest for e in entries} <= {e.digest for e in full}
    assert entries, "the reachable vault still answered"


def test_slow_vault_times_out_and_is_named(fleet):
    roots, _, _ = fleet
    network = Network()
    federated, clients = serve_federation(open_fleet(roots), network)
    network.query_chaos = (
        lambda s, o, a: "delay" if s == FEDERATION_VICTIM else None
    )
    _, report = federated.top()
    assert report.coverage == COVERAGE_PARTIAL
    statuses = {v.name: v.status for v in report.vaults}
    assert statuses[FEDERATION_VICTIM] == "timeout"
    assert federated.metrics.federated_vault_losses >= 1


def test_every_vault_down_is_degraded_not_an_error(fleet):
    roots, _, _ = fleet
    network = Network()
    federated, _ = serve_federation(open_fleet(roots), network)
    network.query_chaos = lambda s, o, a: "kill-server"
    entries, report = federated.select()
    assert entries == []
    assert report.coverage == COVERAGE_DEGRADED
    assert set(report.degraded_vaults()) == set(roots)


def test_truncated_vault_is_partial_with_page_detail(fleet):
    roots, _, _ = fleet
    network = Network()
    clients = {}
    for name, vault in open_fleet(roots).items():
        network.register_vault_service(
            VaultService(vault, name=name, page_limit=1)
        )
        clients[name] = RemoteVaultClient(network, service=name)
    # Budget 0: each vault returns its first page then reports
    # truncation (the coverage ladder's "returned truncated pages").
    federated = FederatedQuery(clients, timeout=0)
    entries, report = federated.select()
    assert report.coverage == COVERAGE_PARTIAL
    truncated = [v for v in report.vaults if v.status == "truncated"]
    assert truncated and all(
        "budget exhausted" in v.detail for v in truncated
    )
    assert entries  # the first pages still merged


# ----------------------------------------------------------------------
# Satellite: a wedged vault host surfaces as a timed-out vault,
# for both "stalled" and "limit" network endings
# ----------------------------------------------------------------------
DEADLOCK_SRC = """
int transfer(int arg) {
    lock(1);
    sleep(2000);
    lock(2);
    unlock(2);
    unlock(1);
    exit_thread(0);
    return 0;
}

int main() {
    thread_create(transfer, 1);
    lock(2);
    sleep(2000);
    lock(1);
    unlock(1);
    unlock(2);
    return 0;
}
"""

SPIN_SRC = """
int main() {
    while (1) { }
    return 0;
}
"""


def wedged_host(source: str, max_total_cycles: int) -> tuple[str, object]:
    """Run ``source`` on a one-machine network; return (ending, machine)."""
    session = DistributedSession()
    machine = session.add_machine("vault-host")
    session.add_process(machine, "vault-daemon", source, start=True)
    result = session.run(max_total_cycles=max_total_cycles)
    return result.status, machine


@pytest.mark.parametrize(
    "source,max_cycles,ending",
    [
        (DEADLOCK_SRC, 100_000_000, "stalled"),
        (SPIN_SRC, 30_000, "limit"),
    ],
)
def test_wedged_vault_host_reported_as_timed_out(
    fleet, source, max_cycles, ending
):
    roots, _, _ = fleet
    status, machine = wedged_host(source, max_cycles)
    assert status == ending
    assert machine._live_threads(), "the host must still have live threads"

    network = Network()
    vaults = open_fleet(roots)
    clients = {}
    for name, vault in vaults.items():
        host = machine if name == FEDERATION_VICTIM else None
        network.register_vault_service(
            VaultService(vault, name=name, machine=host)
        )
        clients[name] = RemoteVaultClient(
            network, service=name, max_retries=1
        )
    federated = FederatedQuery(clients)
    incidents, report = federated.incidents()
    assert report.coverage == COVERAGE_PARTIAL
    statuses = {v.name: v.status for v in report.vaults}
    assert statuses[FEDERATION_VICTIM] == "timeout"
    assert statuses["vault-east"] == "ok"
    (lost,) = [v for v in report.vaults if v.name == FEDERATION_VICTIM]
    assert "unresponsive" in lost.detail
    # The reachable region's incident evidence still merged.
    assert incidents


def test_healthy_completed_host_is_not_wedged(fleet):
    """The converse: a machine whose run ended "done" serves fine."""
    roots, _, _ = fleet
    session = DistributedSession()
    machine = session.add_machine("vault-host")
    session.add_process(
        machine, "vault-daemon", "int main() { return 0; }", start=True
    )
    assert session.run().status == "done"
    network = Network()
    vaults = open_fleet(roots)
    server = VaultService(
        vaults["vault-east"], name="vault-east", machine=machine
    )
    assert not server.wedged()
    network.register_vault_service(server)
    client = RemoteVaultClient(network, service="vault-east")
    assert client.hello()["snaps"] == len(vaults["vault-east"])
