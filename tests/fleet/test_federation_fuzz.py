"""Seeded chaos fuzz over the federated query path.

The acceptance bar from the issue: across at least 100 seeds of
``query_chaos`` verdicts the federation must never hang (bounded
simulated cycles) and never raise; the :class:`FederationReport` must
name every degraded vault; the merged answer must always be a correct
subset of the ground truth; and a zero-chaos seed must be bit-identical
to the same query against one merged vault.

Transport chaos never damages the vaults on disk, so the fleet is built
once per module and each seed only rebuilds the cheap parts: a fresh
``Network``, servers, and clients.
"""

import json
import random

import pytest

from repro.chaos.scenarios import (
    FEDERATION_VICTIM,
    build_federated_fleet,
    run_scenario,
    serve_federation,
)
from repro.distributed.network import Network
from repro.fleet import (
    SnapVault,
    VaultQuery,
    canonical_buckets,
    canonical_entries,
    canonical_incidents,
)
from repro.fleet.federation import (
    COVERAGE_DEGRADED,
    COVERAGE_FULL,
    COVERAGE_PARTIAL,
)

SEEDS = range(120)
VERDICTS = ["drop", "delay", "corrupt", "kill-server"]
# Per federated call with max_retries=1: two deadline-priced attempts
# plus one clamped backoff, per page, with room for the healthy pages.
CYCLE_BOUND = 1_000_000


@pytest.fixture(scope="module")
def fuzz_fleet(tmp_path_factory):
    base = tmp_path_factory.mktemp("federation-fuzz")
    roots = {
        "vault-east": str(base / "east"),
        "vault-west": str(base / "west"),
    }
    vaults, session = build_federated_fleet(roots)
    merged = SnapVault(str(base / "merged"), shards=4)
    for mapfile in session.mapfiles:
        merged.put_mapfile(mapfile)
    for vault in vaults.values():
        for entry in vault.select():
            snap, _ = vault.load(entry.digest)
            merged.put(snap)
    local = VaultQuery(merged)
    truth = {
        "digests": {e.digest for e in local.select()},
        "select": canon(canonical_entries(local.select())),
        "incidents": canon(canonical_incidents(local.incidents())),
        "top": canon(canonical_buckets(local.top())),
    }
    return roots, truth


def canon(docs) -> str:
    return json.dumps(docs, sort_keys=True)


def assign_verdicts(roots, rng):
    """Each vault independently healthy (p=1/2) or one constant fault."""
    return {
        name: None if rng.random() < 0.5 else rng.choice(VERDICTS)
        for name in roots
    }


def run_seed(roots, truth, seed):
    rng = random.Random(seed)
    vaults = {name: SnapVault(root) for name, root in roots.items()}
    network = Network()
    federated, clients = serve_federation(vaults, network, rng=rng)
    verdicts = assign_verdicts(roots, rng)
    network.query_chaos = lambda service, op, attempt: verdicts[service]

    entries, report = federated.select()
    incidents, _ = federated.incidents()
    buckets, _ = federated.top()

    healthy = {name for name, verdict in verdicts.items() if verdict is None}
    statuses = {v.name: v.status for v in report.vaults}

    # Every vault accounted for, exactly once.
    assert set(statuses) == set(roots)
    # A constant fault verdict can never end "ok"; a healthy vault must.
    for name, verdict in verdicts.items():
        if verdict is None:
            assert statuses[name] == "ok", (seed, name, statuses)
        else:
            assert statuses[name] != "ok", (seed, name, verdicts, statuses)
    # The report's degraded list is exactly the non-answering vaults.
    answered = {v.name for v in report.vaults if v.answered}
    assert set(report.degraded_vaults()) == set(roots) - answered
    # Coverage ladder is consistent with the statuses.
    if answered == set(roots) and all(
        s == "ok" for s in statuses.values()
    ):
        assert report.coverage == COVERAGE_FULL
    elif answered:
        assert report.coverage == COVERAGE_PARTIAL
    else:
        assert report.coverage == COVERAGE_DEGRADED

    # Results are always a correct subset of the ground truth.
    digests = {e.digest for e in entries}
    assert digests <= truth["digests"], seed
    for incident in incidents:
        assert {e.digest for e in incident.entries} <= truth["digests"]
    assert sum(b.count for b in buckets) <= len(truth["digests"])

    # Bounded simulated time: no hang, ever.
    for name, client in clients.items():
        assert client.cycles_spent <= CYCLE_BOUND, (seed, name)

    # Zero chaos must reproduce the merged vault bit for bit.
    if healthy == set(roots):
        assert canon(canonical_entries(entries)) == truth["select"]
        assert canon(canonical_incidents(incidents)) == truth["incidents"]
        assert canon(canonical_buckets(buckets)) == truth["top"]
    return report.coverage


def test_fuzz_sweep_no_hang_no_raise_named_losses(fuzz_fleet):
    roots, truth = fuzz_fleet
    coverages = [run_seed(roots, truth, seed) for seed in SEEDS]
    # The sweep genuinely exercised the whole coverage ladder.
    assert coverages.count(COVERAGE_FULL) >= 10
    assert coverages.count(COVERAGE_PARTIAL) >= 10
    assert coverages.count(COVERAGE_DEGRADED) >= 10


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["federated-vault-loss", "slow-vault-timeout"]
)
def test_federated_scenarios_seed_sweep(name):
    for seed in range(10):
        result = run_scenario(name, seed=seed)
        federation = result.federation
        assert federation["coverage"] == COVERAGE_PARTIAL, seed
        assert federation["degraded"] == [FEDERATION_VICTIM], seed
        assert any(
            FEDERATION_VICTIM in note for note in result.injected
        ), seed
        # The surviving region's evidence still reconstructs.
        trace = result.reconstruct(strict=False)
        assert {p.process_name for p in trace.processes} >= {"client"}
