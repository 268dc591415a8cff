"""Bucket summaries and the checkpoint cadence.

``top_buckets`` reads running per-bucket summaries instead of walking
every member of every bucket, and ``flush_index`` lets the checkpoint
lag by up to an eighth of what it covers.  Both are only trustworthy
against an oracle:

* :func:`oracle_top` is the member-walking listing — every bucket's
  components, every member looked up in the vault.  During a
  compaction it counts only incidents that still have a live member
  and picks the earliest live exemplar; outside one its answers are
  exactly those of the original walk;
* the summary listing must equal the oracle after every ingest step,
  after every kind of reopen (load, catch-up, rebuild) and at every
  kill point of ``compact()``;
* N one-snap drains write O(log N) checkpoints, and a reopen after any
  drain replays at most an eighth of what the checkpoint covers and is
  bit-identical to a rebuild.
"""

import dataclasses
import math
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.fleet import Collector, IncidentIndex, RetentionPolicy, SnapVault
from repro.fleet.index import CHECKPOINT_TAIL, INDEX_FILE
from repro.fleet.store import prepare_snap
from repro.fleet.triage import CrashBucket, top_buckets
from repro.reconstruct import signature_key
from tests.fleet.test_store import make_snap
from tests.fleet.test_triage import entry


def oracle_top(vault, limit=None):
    """Ranked buckets by walking every member of every bucket."""
    index = vault.incident_index
    buckets = []
    for sig in index.buckets:
        incidents = [
            live
            for live in (
                [e for e in (vault.index.get(d) for d in c.digests) if e]
                for c in index.bucket_components(sig)
            )
            if live
        ]
        entries = [e for live in incidents for e in live]
        if not entries:
            continue  # every member compacted away mid-listing
        seqs = [e.seq for e in entries]
        carriers = [e for e in entries if e.sig == sig]
        buckets.append(
            CrashBucket(
                sig=sig,
                key=signature_key(sig),
                count=len(entries),
                incidents=len(incidents),
                first_seq=min(seqs),
                last_seq=max(seqs),
                machines=sorted({e.machine for e in entries}),
                processes=sorted({e.process for e in entries}),
                exemplar=(
                    min(carriers, key=lambda e: e.seq).digest
                    if carriers
                    else None
                ),
            )
        )
    buckets.sort(key=lambda b: (-b.count, b.first_seq, b.sig))
    return buckets if limit is None else buckets[:limit]


def assert_matches_oracle(vault):
    expected = oracle_top(vault)
    assert top_buckets(vault) == expected
    assert top_buckets(vault, limit=2) == expected[:2]
    exemplars = {b.exemplar for b in expected if b.exemplar is not None}
    assert vault.incident_index.exemplar_digests() == exemplars


def index_vault(window=None):
    """The three attributes ``top_buckets`` and the oracle read."""
    return SimpleNamespace(
        index={},
        incident_index=IncidentIndex(window=window),
        _lock=threading.RLock(),
    )


PROCESSES = ["web", "db", "cache", "auth"]


def signed_stream(seed, count=150):
    """Seeded entries: signed crashes under several signatures, group
    fan-outs whose first member anchors every crash of the initiator,
    SYNC ids shared across snaps, and unsigned bystanders (fan-out
    members, api snaps) — so unions merge components filed under
    different buckets, and bystander components join signed ones."""
    rng = random.Random(seed)
    entries = []
    for seq in range(count):
        # Runs of 25 entries keep their own process names and SYNC ids,
        # so the partition does not collapse into one component; a
        # rare shared id still links runs across buckets.
        run = seq // 25
        roll = rng.random()
        sync_ids = rng.sample(range(run * 10, run * 10 + 10), rng.randrange(2))
        if rng.random() < 0.03:
            sync_ids.append(1000)
        placement = dict(
            machine=f"m{rng.randrange(4)}",
            process=f"{rng.choice(PROCESSES)}-{run}",
            sync_ids=sorted(sync_ids),
        )
        if roll < 0.15:
            entries.append(entry(
                seq, reason="group", group=f"outage-{run}",
                initiator=f"{rng.choice(PROCESSES)}-{run}",
                initiator_reason="unhandled", **placement,
            ))
        elif roll < 0.6:
            entries.append(entry(
                seq, reason="unhandled", sig=f"crash:{rng.choice('abcd')}",
                **placement,
            ))
        else:
            entries.append(entry(seq, reason="api", **placement))
    return entries


# ----------------------------------------------------------------------
# Differential: after every ingest step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("window", [None, 10])
def test_summary_top_matches_oracle_every_step(seed, window):
    vault = index_vault(window)
    for item in signed_stream(seed):
        vault.index[item.digest] = item
        vault.incident_index.add(item)
        assert_matches_oracle(vault)
    assert len(vault.incident_index.buckets) > 1


def test_stream_exercises_cross_signature_unions():
    index = IncidentIndex()
    rekeys = 0
    for item in signed_stream(0):
        before = {sig: set(roots) for sig, roots in index.buckets.items()}
        index.add(item)
        rekeys += any(sig not in index.buckets for sig in before)
    assert rekeys  # some bucket was emptied by a union re-keying it


def test_drop_and_revive_track_the_live_set():
    """A compaction drops members; a re-arrival of a dropped digest
    mid-compaction (fresh seq) counts again."""
    vault = index_vault()
    stream = signed_stream(4)
    for item in stream:
        vault.index[item.digest] = item
        vault.incident_index.add(item)
    victims = random.Random(4).sample(stream, 60)
    for victim in victims:
        del vault.index[victim.digest]
        vault.incident_index.drop([victim.digest])
        assert_matches_oracle(vault)
    vault.incident_index.drop([e.digest for e in victims[:5]])  # no-op
    assert_matches_oracle(vault)
    # Ingest goes on while the compaction runs: a new crash sharing a
    # victim's SYNC id re-keys the victim's component (dropped members
    # and all) into the new, smaller signature's bucket.
    seq = len(stream)
    for victim in victims:
        for logical_id in victim.sync_ids:
            late = entry(
                seq, reason="unhandled", sig="crash:0", sync_ids=[logical_id]
            )
            seq += 1
            vault.index[late.digest] = late
            vault.incident_index.add(late)
            assert_matches_oracle(vault)
    assert "crash:0" in vault.incident_index.buckets
    for seq, victim in enumerate(victims[::3], start=seq):
        again = dataclasses.replace(victim, seq=seq)
        vault.index[again.digest] = again
        vault.incident_index.add(again)
        assert_matches_oracle(vault)


# ----------------------------------------------------------------------
# A real vault: reopens, and every kill point of compact()
# ----------------------------------------------------------------------
class SigVault(SnapVault):
    """Signs a snap by the ``sig`` its detail carries (synthetic faults
    stand in for mined signatures, so buckets are seeded directly)."""

    def sign(self, snap, recovered=None):
        return snap.detail.get("sig")


def ingest(vault, rng, first, count):
    """``count`` one-snap commits: signed crashes, unsigned bystanders,
    group fan-outs naming an initiator, and SYNC ids shared across
    snaps (set on the prepared snap: these test snaps carry no
    buffers to mine them from)."""
    for i in range(first, first + count):
        roll = rng.random()
        process = rng.choice(PROCESSES)
        reason = "unhandled" if roll < 0.5 else "api"
        snap = make_snap(
            machine=f"m{rng.randrange(4)}", process=process, reason=reason,
            clock=100 + i, payload=f"snap-{i}",
        )
        if reason == "unhandled":
            snap.detail["sig"] = f"crash:{rng.choice('abc')}"
        elif roll > 0.8:
            snap.reason = "group"
            snap.detail.update(
                group=f"g{rng.randrange(6)}",
                initiator=rng.choice(PROCESSES),
                initiator_reason="unhandled",
            )
        prepared = prepare_snap(snap, signer=vault.sign)
        prepared.sync_ids = sorted(rng.sample(range(40), rng.randrange(2)))
        vault.put_batch([prepared])


def test_summaries_match_oracle_across_reopens(tmp_path):
    root = str(tmp_path / "vault")
    vault = SigVault(root, shards=3)
    rng = random.Random(7)
    seen = set()
    for step in range(12):
        ingest(vault, rng, step * 10, 10)
        vault.flush_index()
        assert_matches_oracle(vault)
        reopened = SigVault(root, shards=3)
        m = reopened.metrics
        seen.add(
            "caught-up" if m.index_catchups
            else "loaded" if m.index_loads
            else "rebuilt"
        )
        assert_matches_oracle(reopened)
        assert top_buckets(reopened) == top_buckets(vault)
        if step % 4 == 3:
            (tmp_path / "vault" / INDEX_FILE).unlink()
            rebuilt = SigVault(root, shards=3)
            assert rebuilt.metrics.index_open_rebuilds == 1
            assert_matches_oracle(rebuilt)
            seen.add("rebuilt")
            vault = rebuilt
    assert seen == {"loaded", "caught-up", "rebuilt"}


@pytest.mark.parametrize("pin_exemplars", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_summaries_match_oracle_at_every_gc_point(
    tmp_path, seed, pin_exemplars
):
    """Incident pins off, so compaction splits incidents; with exemplar
    pins off it also drops exemplars, which the summaries must
    recompute from the live members mid-pass."""
    vault = SigVault(str(tmp_path / "vault"), shards=3)
    ingest(vault, random.Random(seed), 0, 60)
    vault.flush_index()
    policy = RetentionPolicy(
        max_age=30,
        pin_open_incidents=False,
        pin_bucket_exemplars=pin_exemplars,
    )
    plan = vault.plan_compaction(policy, now=160)
    assert plan.victims
    exemplars = vault.incident_index.exemplar_digests()
    assert bool(exemplars & plan.victim_digests) is not pin_exemplars
    points = []

    def check(label):
        points.append(label)
        assert_matches_oracle(vault)

    vault._crash_hook = check
    vault.compact(plan=plan)
    assert any(p.startswith("tombstoned-") for p in points)
    assert_matches_oracle(vault)


def test_concurrent_ingest_listing_and_compaction(tmp_path):
    """Writers, readers and a compaction share the summaries; every
    update happens under the vault's index lock, so none is lost."""
    vault = SigVault(str(tmp_path / "vault"), shards=3)
    ingest(vault, random.Random(0), 0, 40)
    errors = []
    stop = threading.Event()

    def guarded(work):
        def run():
            try:
                work()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
        return run

    def read():
        while not stop.is_set():
            top_buckets(vault)

    writers = [
        threading.Thread(target=guarded(
            lambda k=k: ingest(vault, random.Random(k), 1000 * k, 25)
        ))
        for k in range(1, 5)
    ]
    readers = [threading.Thread(target=guarded(read)) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + readers:
            thread.start()
        # Only the seed ingest is older than the horizon.
        vault.compact(
            policy=RetentionPolicy(max_age=20, pin_open_incidents=False),
            now=140,
        )
        for thread in writers:
            thread.join(timeout=120)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + readers)
    assert not errors
    assert len(vault) == 40 - vault.metrics.entries_compacted + 4 * 25
    assert_matches_oracle(vault)


# ----------------------------------------------------------------------
# Checkpoint cadence
# ----------------------------------------------------------------------
def test_one_snap_drains_write_log_many_checkpoints(tmp_path):
    drains = 120
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    collector = Collector(vault)
    for i in range(drains):
        collector.submit(make_snap(process=f"p{i % 7}", payload=i))
        collector.drain()
        entries = list(vault.index.values())
        reopened = SnapVault(root, shards=2)
        index = reopened.incident_index
        assert reopened.metrics.index_loads == 1
        assert index.dirty * CHECKPOINT_TAIL <= index.checkpointed
        assert reopened.metrics.index_catchups == index.dirty
        assert index.to_bytes() == IncidentIndex.rebuild(entries).to_bytes()
    # Every checkpoint after the ninth covers 9/8 of the one before.
    bound = 10 + math.log(drains / 9, 1 + 1 / CHECKPOINT_TAIL)
    assert vault.metrics.index_persists <= bound
    assert vault.metrics.index_persists < drains / 3


def test_flush_writes_whenever_no_checkpoint_is_on_disk(tmp_path):
    root = str(tmp_path / "vault")
    vault = SnapVault(root, shards=2)
    assert vault.flush_index() is not None  # empty vault, none on disk
    for i in range(16):
        vault.put(make_snap(payload=i))
    assert vault.flush_index() is not None  # the tail reached an eighth
    vault.put(make_snap(payload=99))
    assert vault.flush_index() is None  # 1 new entry < 16 / 8
    (tmp_path / "vault" / INDEX_FILE).unlink()
    assert vault.flush_index() is not None
