"""The persisted incident index: incremental == batch, bit-identical rebuild.

The index is the only incident grouper (every vault listing, explicit
entry list, window and federation merge goes through it), so it is only
trustworthy if two properties hold everywhere:

* **equivalence** — feeding entries to :meth:`IncidentIndex.add` in
  ingest order produces exactly the partition (and link kinds) the
  one-shot :func:`batch_group` oracle below computes, and with no
  window so does a several-vault union fed in digest order;
* **canonical persistence** — ``incidents.idx`` is a pure function of
  the partition, so rebuilding from the manifests alone reproduces the
  checkpoint byte for byte, and a torn / stale / mismatched checkpoint
  degrades to a rebuild, never to wrong answers.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.fleet import IncidentIndex, SnapVault, VaultEntry, VaultQuery
from repro.fleet.federation import merge_incidents
from repro.fleet.index import INDEX_FILE


# ----------------------------------------------------------------------
# The one-shot grouper: the differential oracle the index is tested
# against.
# ----------------------------------------------------------------------
def batch_group(
    entries: list[VaultEntry], window: int | None = None
) -> tuple[list[list[int]], dict[int, set[str]]]:
    """Union-find over ``entries``; returns (clusters, kinds-per-cluster).

    Clusters are lists of indexes into ``entries`` sorted by seq, the
    cluster list itself ordered by first-ingest seq.  The kinds dict is
    keyed by cluster position.
    """
    parent = list(range(len(entries)))
    link_kinds: dict[int, set[str]] = {i: set() for i in parent}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int, kind: str) -> None:
        if window is not None and abs(entries[i].seq - entries[j].seq) > window:
            return
        ri, rj = find(i), find(j)
        link_kinds[ri].add(kind)
        link_kinds[rj].add(kind)
        if ri != rj:
            parent[rj] = ri
            link_kinds[ri] |= link_kinds[rj]

    # Link 1: co-triggered group snaps + the initiating snap.
    by_fanout: dict[tuple, list[int]] = {}
    for i, entry in enumerate(entries):
        if entry.group and entry.initiator:
            key = (entry.group, entry.initiator, entry.initiator_reason)
            by_fanout.setdefault(key, []).append(i)
    for (group, initiator, initiator_reason), members in by_fanout.items():
        for a, b in zip(members, members[1:]):
            union(a, b, "group-snap")
        # The initiator's own snap carries no group tag; match it by
        # (process, reason) — that pair is what the fan-out recorded.
        for i, entry in enumerate(entries):
            if (
                entry.process == initiator
                and entry.reason == initiator_reason
            ):
                union(members[0], i, "group-snap")

    # Link 2: shared SYNC logical-thread ids across snaps.
    by_sync: dict[int, list[int]] = {}
    for i, entry in enumerate(entries):
        for logical_id in entry.sync_ids:
            by_sync.setdefault(logical_id, []).append(i)
    for members in by_sync.values():
        for a, b in zip(members, members[1:]):
            union(a, b, "sync-link")

    clusters: dict[int, list[int]] = {}
    for i in range(len(entries)):
        clusters.setdefault(find(i), []).append(i)
    ordered = sorted(
        clusters.items(), key=lambda kv: min(entries[m].seq for m in kv[1])
    )
    out_clusters = []
    out_kinds = {}
    for position, (root, members) in enumerate(ordered):
        out_clusters.append(sorted(members, key=lambda m: entries[m].seq))
        out_kinds[position] = set(link_kinds[root])
    return out_clusters, out_kinds


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


def vault_union(seed: int, vaults: int = 3) -> list[VaultEntry]:
    """Several vaults' entries as a federation gathers them: each vault
    numbers its seqs from 0, so seqs collide across vaults, and the
    content digests (``<hash>-v<vault>``) interleave the vaults."""
    union = []
    for vault in range(vaults):
        for e in random_entries(seed * vaults + vault, count=60):
            mark = hashlib.sha256(f"{vault}/{e.seq}".encode()).hexdigest()
            union.append(replace(e, digest=f"{mark[:16]}-v{vault}"))
    return union


@pytest.mark.parametrize("seed", range(8))
def test_digest_ordered_union_matches_batch(seed):
    """A federation merge feeds the vaults' union, colliding seqs and
    all, to one unwindowed index in digest order."""
    union = vault_union(seed)
    merged = merge_incidents(union)
    ordered = sorted(union, key=lambda e: e.digest)
    assert {
        frozenset(e.digest for e in incident.entries): incident.links
        for incident in merged
    } == partition_of_batch(ordered, None)
    firsts = [incident.entries[0].digest for incident in merged]
    assert firsts == sorted(firsts)
    assert any(
        len({e.digest[-2:] for e in incident.entries}) > 1
        for incident in merged
    ), "no incident spans vaults"


@pytest.mark.parametrize("seed", range(8))
def test_shuffled_feeds_give_one_partition(seed):
    """With no window, feed order moves neither the partition nor its
    link kinds, even when seqs collide."""
    union = vault_union(seed)
    expected = partition_of_batch(union, None)
    rng = random.Random(seed)
    for _ in range(25):
        rng.shuffle(union)
        index = IncidentIndex()
        for e in union:
            index.add(e)
        assert partition_of_index(index) == expected


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


def test_explicit_window_regroups_in_a_fresh_index(tmp_path, make_vault_snaps):
    vault = SnapVault(str(tmp_path / "vault"), shards=2, link_window=None)
    for snap in make_vault_snaps(20):
        vault.put(snap)
    query = VaultQuery(vault)
    # window=2 differs from the index's window: the vault's entries are
    # regrouped in a fresh index, whose partition is the oracle's.
    narrow = query.incidents(window=2)
    assert {
        frozenset(e.digest for e in i.entries): i.links for i in narrow
    } == partition_of_batch(vault.select(), 2)
