"""The persisted incident index: incremental == batch, bit-identical rebuild.

The index is only trustworthy if two properties hold everywhere:

* **equivalence** — feeding entries to :meth:`IncidentIndex.add` in
  ingest order produces exactly the partition (and link kinds) the
  original one-shot :func:`batch_group` computes;
* **canonical persistence** — ``incidents.idx`` is a pure function of
  the partition, so rebuilding from the manifests alone reproduces the
  checkpoint byte for byte, and a torn / stale / mismatched checkpoint
  degrades to a rebuild, never to wrong answers.
"""

import json
import random

import pytest

from repro.fleet import IncidentIndex, SnapVault, VaultEntry, VaultQuery
from repro.fleet.index import INDEX_FILE, batch_group


def entry(seq, machine="m", process="p", reason="api", sync_ids=(),
          group=None, initiator=None, initiator_reason=None):
    return VaultEntry(
        digest=f"digest-{seq:04d}",
        seq=seq,
        shard=0,
        machine=machine,
        process=process,
        pid=1,
        reason=reason,
        clock=seq * 100,
        size=64,
        sync_ids=list(sync_ids),
        group=group,
        initiator=initiator,
        initiator_reason=initiator_reason,
    )


def random_entries(seed: int, count: int = 120) -> list[VaultEntry]:
    """A seeded stream mixing fan-outs, initiator matches, and SYNC ids."""
    rng = random.Random(seed)
    machines = [f"m{i}" for i in range(4)]
    processes = ["web", "db", "cache", "auth"]
    reasons = ["api", "hang", "unhandled"]
    entries = []
    for seq in range(count):
        kind = rng.random()
        if kind < 0.25:
            fanout = rng.randrange(count // 6 + 1)
            entries.append(entry(
                seq,
                machine=rng.choice(machines),
                process=rng.choice(processes),
                reason="group",
                group=f"outage-{fanout}",
                initiator=rng.choice(processes),
                initiator_reason=rng.choice(reasons),
                sync_ids=[rng.randrange(12)] if rng.random() < 0.3 else [],
            ))
        else:
            entries.append(entry(
                seq,
                machine=rng.choice(machines),
                process=rng.choice(processes),
                reason=rng.choice(reasons),
                sync_ids=sorted(
                    rng.sample(range(12), rng.randrange(3))
                ),
            ))
    return entries


def partition_of_batch(entries, window):
    clusters, kinds = batch_group(entries, window)
    return {
        frozenset(entries[m].digest for m in members): kinds[pos]
        for pos, members in enumerate(clusters)
    }


def partition_of_index(index):
    return {
        frozenset(c.digests): c.kinds for c in index.components()
    }


# ----------------------------------------------------------------------
# Differential: incremental add == one-shot batch_group
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("window", [None, 10, 40])
def test_incremental_matches_batch(seed, window):
    entries = random_entries(seed)
    index = IncidentIndex(window=window)
    for e in entries:
        index.add(e)
    assert partition_of_index(index) == partition_of_batch(entries, window)


def test_add_is_idempotent_per_digest():
    entries = random_entries(99)
    index = IncidentIndex()
    for e in entries:
        index.add(e)
        index.add(e)  # duplicate delivery must not double-link
    assert partition_of_index(index) == partition_of_batch(entries, None)


def test_window_bounds_incremental_edges():
    entries = [
        entry(0, sync_ids=[7]),
        entry(1, sync_ids=[7]),
        entry(50, sync_ids=[7]),
        entry(51, sync_ids=[7]),
    ]
    index = IncidentIndex(window=5)
    for e in entries:
        index.add(e)
    parts = sorted(sorted(c.digests) for c in index.components())
    assert parts == [
        ["digest-0000", "digest-0001"],
        ["digest-0050", "digest-0051"],
    ]


# ----------------------------------------------------------------------
# Canonical persistence
# ----------------------------------------------------------------------
def test_rebuild_is_bit_identical():
    entries = random_entries(3)
    incremental = IncidentIndex()
    for e in entries:
        incremental.add(e)
    rebuilt = IncidentIndex.rebuild(entries)
    assert rebuilt.to_bytes() == incremental.to_bytes()
    # Shuffled manifest order must not matter: rebuild sorts by seq.
    shuffled = list(entries)
    random.Random(1).shuffle(shuffled)
    assert IncidentIndex.rebuild(shuffled).to_bytes() == incremental.to_bytes()


def test_vault_checkpoint_reload_and_rebuild_identical(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    for snap in make_vault_snaps(20):
        vault.put(snap)
    path = vault.flush_index()
    first = open(path, "rb").read()

    reopened = SnapVault(root, shards=2)
    assert reopened.metrics.index_loads == 1
    assert reopened.incident_index.to_bytes() == first

    (tmp_path / "vault" / INDEX_FILE).unlink()
    rebuilt = SnapVault(root, shards=2)
    assert rebuilt.incident_index.to_bytes() == first


@pytest.fixture
def make_vault_snaps():
    from tests.fleet.test_store import make_snap

    def make(count):
        snaps = []
        for i in range(count):
            if i % 5 == 1:
                snaps.append(make_snap(
                    machine=f"m{i % 3}", process="db", reason="group",
                    payload=i,
                ))
                snaps[-1].detail = {
                    "group": f"g{i // 5}", "initiator": "web",
                    "initiator_reason": "unhandled",
                }
            else:
                snaps.append(make_snap(
                    machine=f"m{i % 3}",
                    process=["web", "db"][i % 2],
                    reason=["api", "unhandled"][i % 2],
                    payload=i,
                ))
        return snaps

    return make


def test_torn_checkpoint_rebuilds(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    for snap in make_vault_snaps(12):
        vault.put(snap)
    path = vault.flush_index()
    good = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(good[: len(good) // 2])  # torn mid-write
    reopened = SnapVault(root, shards=2)
    assert reopened.incident_index.to_bytes() == good
    assert reopened.metrics.index_loads == 0  # it was a rebuild

    reopened.flush_index()  # checkpoint the rebuilt state
    how = IncidentIndex.load(root, list(reopened.index.values()))[1]
    assert how == "loaded"


def _extra_component(doc, component):
    doc["components"].append(component)


def _first_member(doc, position, value):
    doc["components"][0]["members"][0][position] = value


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc: _extra_component(
            doc, {"members": [], "kinds": [], "sig": None}
        ),
        lambda doc: _extra_component(doc, {"kinds": [], "sig": None}),
        lambda doc: _extra_component(doc, "not-a-component"),
        lambda doc: _first_member(doc, 1, ["list", "digest"]),
        lambda doc: doc["components"][0].update(kinds=5),
    ],
    ids=[
        "empty-members",
        "no-members",
        "component-not-a-dict",
        "list-digest",
        "integer-kinds",
    ],
)
def test_malformed_checkpoint_rebuilds(tmp_path, make_vault_snaps, damage):
    """A checkpoint that parses as JSON but is malformed anywhere is as
    unusable as a torn one: the open rebuilds from the manifests."""
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    for snap in make_vault_snaps(12):
        vault.put(snap)
    path = vault.flush_index()
    good = open(path, "rb").read()
    doc = json.loads(good)
    damage(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    reopened = SnapVault(root, shards=2)
    assert reopened.incident_index.to_bytes() == good
    assert reopened.metrics.index_loads == 0
    assert reopened.metrics.index_open_rebuilds == 1


def test_open_rebuilds_are_counted(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    fresh = SnapVault(root, shards=2)
    assert fresh.metrics.index_open_rebuilds == 0  # nothing to replay
    for snap in make_vault_snaps(8):
        fresh.put(snap)
    fresh.flush_index()
    adopted = SnapVault(root, shards=2)
    assert adopted.metrics.index_loads == 1
    assert adopted.metrics.index_open_rebuilds == 0
    other_window = SnapVault(root, shards=2, link_window=3)
    assert other_window.metrics.index_open_rebuilds == 1
    (tmp_path / "vault" / INDEX_FILE).unlink()
    missing = SnapVault(root, shards=2)
    assert missing.metrics.index_open_rebuilds == 1
    assert "1 open rebuilds" in missing.metrics.render()


def test_stale_checkpoint_catches_up(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    snaps = make_vault_snaps(16)
    vault = SnapVault(root, shards=2)
    for snap in snaps[:10]:
        vault.put(snap)
    vault.flush_index()
    for snap in snaps[10:]:
        vault.put(snap)
    # Vault dies here without flushing: checkpoint covers 10 of 16.
    entries = sorted(vault.index.values(), key=lambda e: e.seq)
    index, how = IncidentIndex.load(root, entries)
    assert how == "caught-up"
    assert index.to_bytes() == IncidentIndex.rebuild(entries).to_bytes()

    reopened = SnapVault(root, shards=2)
    assert reopened.metrics.index_catchups == 6  # entries replayed
    assert len(reopened.incident_index) == 16


def test_window_mismatch_rebuilds(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    for snap in make_vault_snaps(8):
        vault.put(snap)
    vault.flush_index()
    entries = sorted(vault.index.values(), key=lambda e: e.seq)
    index, how = IncidentIndex.load(root, entries, window=10)
    assert how == "rebuilt"
    assert index.window == 10


def test_checkpoint_disagreeing_with_manifests_rebuilds(tmp_path, make_vault_snaps):
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    for snap in make_vault_snaps(8):
        vault.put(snap)
    path = vault.flush_index()
    doc = json.loads(open(path, "rb").read())
    doc["components"][0]["members"][0][0] += 1000  # seq mismatch
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _index, how = IncidentIndex.load(
        root, sorted(vault.index.values(), key=lambda e: e.seq)
    )
    assert how == "rebuilt"


# ----------------------------------------------------------------------
# Indexed queries
# ----------------------------------------------------------------------
def test_incident_of_matches_full_listing(tmp_path, make_vault_snaps):
    vault = SnapVault(str(tmp_path / "vault"), shards=2)
    for snap in make_vault_snaps(20):
        vault.put(snap)
    query = VaultQuery(vault)
    listing = query.incidents()
    for incident in listing:
        for e in incident.entries:
            found = query.incident_of(e.digest)
            assert {x.digest for x in found.entries} == {
                x.digest for x in incident.entries
            }
            assert found.links == incident.links
            assert found.incident_id == min(x.seq for x in incident.entries)
    assert query.incident_of("no-such-digest") is None


def test_indexed_filters_match_batch_filters(tmp_path, make_vault_snaps):
    vault = SnapVault(str(tmp_path / "vault"), shards=2)
    for snap in make_vault_snaps(24):
        vault.put(snap)
    query = VaultQuery(vault)

    def normalize(incidents):
        return sorted(
            frozenset(e.digest for e in i.entries) for i in incidents
        )

    for filters in (
        {"machine": "m1"},
        {"process": "web"},
        {"reason": "unhandled"},
        {"group": "g1"},
        {"machine": "m0", "reason": "api"},
    ):
        indexed = query.incidents(**filters)
        # The fallback path groups only the filtered entries, so to
        # compare apples to apples: every indexed incident must touch a
        # matching entry, and every batch-side matching entry must be
        # in some indexed incident.
        batch_entries = [
            e
            for e in vault.select()
            if all(
                getattr(e, k) == v
                for k, v in filters.items()
            )
        ]
        covered = {e.digest for i in indexed for e in i.entries}
        assert {e.digest for e in batch_entries} <= covered
        for incident in indexed:
            assert any(
                all(getattr(e, k) == v for k, v in filters.items())
                for e in incident.entries
            )


def test_explicit_window_bypasses_index(tmp_path, make_vault_snaps):
    vault = SnapVault(str(tmp_path / "vault"), shards=2, link_window=None)
    for snap in make_vault_snaps(20):
        vault.put(snap)
    query = VaultQuery(vault)
    # window=2 differs from the index's window → batch path; its result
    # must match a from-scratch batch grouping.
    narrow = query.incidents(window=2)
    entries = vault.select()
    clusters, _ = batch_group(entries, 2)
    assert sorted(len(c) for c in clusters) == sorted(
        len(i.entries) for i in narrow
    )
