"""The sharded snap vault: dedupe, atomicity, manifests, index rebuild."""

import json
import os

import pytest

from repro.fleet.store import (
    BLOB_SUFFIX,
    MANIFEST,
    SnapVault,
    VaultError,
    content_digest,
)
from repro import TraceSession
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.archive import write_atomic
from repro.runtime.snap import SnapFile
from repro.runtime.sync import reset_runtime_ids
from repro.vm import Machine
from repro.workloads import random_crasher


def make_snap(
    machine="m1", process="p1", reason="api", clock=100, payload=0
) -> SnapFile:
    return SnapFile(
        reason=reason,
        detail={"code": payload},
        process_name=process,
        pid=7,
        machine_name=machine,
        clock=clock,
        modules=[],
        buffers=[],
        threads=[],
    )


@pytest.fixture
def vault(tmp_path):
    return SnapVault(str(tmp_path / "vault"), shards=4)


# ----------------------------------------------------------------------
# Store / dedupe / shards
# ----------------------------------------------------------------------
def test_put_and_load_roundtrip(vault):
    snap = make_snap()
    result = vault.put(snap)
    assert not result.deduped
    loaded, notes = vault.load(result.digest)
    assert notes == []
    assert loaded.to_dict() == snap.to_dict()


def test_content_hash_dedupe(vault):
    a = make_snap(payload=1)
    twin = make_snap(payload=1)  # same content, separate object
    other = make_snap(payload=2)
    r1 = vault.put(a)
    r2 = vault.put(twin)
    r3 = vault.put(other)
    assert r2.deduped and r2.digest == r1.digest
    assert not r3.deduped
    assert len(vault) == 2
    assert vault.metrics.dedupe_hits == 1
    assert vault.metrics.ingested == 2


def test_sharding_is_content_addressed(tmp_path):
    vault = SnapVault(str(tmp_path), shards=4)
    for i in range(24):
        vault.put(make_snap(payload=i))
    used = {e.shard for e in vault.index.values()}
    assert len(used) > 1  # 24 content hashes spread over 4 shards
    for entry in vault.index.values():
        assert entry.shard == vault.shard_of(entry.digest)
        assert os.path.exists(vault.blob_path(entry.digest))


def test_bad_shard_count_rejected(tmp_path):
    with pytest.raises(VaultError):
        SnapVault(str(tmp_path), shards=0)


def _recorded_crash(engine: str) -> SnapFile:
    """One seeded crasher run to its fault with replay recording on."""
    reset_runtime_ids()
    session = TraceSession(
        machine=Machine(engine=engine),
        process_name="crasher",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(random_crasher(3), name="rnd", file_name="rnd.c")
    return session.run(max_cycles=30_000_000).snap


def test_digest_independent_of_interpreter_tier():
    """The tier that ran a crash is not evidence: the same run on either
    tier is one vault entry, ndlog included."""
    block = _recorded_crash("block")
    reference = _recorded_crash("reference")
    assert block.replayable == reference.replayable == "full"
    assert content_digest(block) == content_digest(reference)


def test_digest_stable_across_compression_level(tmp_path):
    snap = make_snap()
    assert content_digest(snap) == content_digest(make_snap())
    v1 = SnapVault(str(tmp_path / "a"), compress_level=1)
    v9 = SnapVault(str(tmp_path / "b"), compress_level=9)
    assert v1.put(snap).digest == v9.put(snap).digest


# ----------------------------------------------------------------------
# Select (the machine/process/reason/timestamp index)
# ----------------------------------------------------------------------
def test_select_filters(vault):
    vault.put(make_snap(machine="a", process="web", reason="hang", clock=10))
    vault.put(make_snap(machine="a", process="db", reason="api", clock=20))
    vault.put(make_snap(machine="b", process="web", reason="api", clock=30))

    assert len(vault.select()) == 3
    assert [e.machine for e in vault.select(machine="a")] == ["a", "a"]
    assert [e.process for e in vault.select(process="web")] == ["web", "web"]
    assert [e.reason for e in vault.select(reason="api")] == ["api", "api"]
    assert [e.clock for e in vault.select(since=15, until=25)] == [20]
    assert [e.clock for e in vault.select(machine="a", reason="api")] == [20]
    assert vault.machines() == ["a", "b"]


def test_select_in_ingest_order(vault):
    for clock in (30, 10, 20):
        vault.put(make_snap(clock=clock, payload=clock))
    assert [e.clock for e in vault.select()] == [30, 10, 20]
    assert [e.seq for e in vault.select()] == [0, 1, 2]


# ----------------------------------------------------------------------
# Atomicity
# ----------------------------------------------------------------------
def test_no_temp_files_left_behind(vault):
    for i in range(8):
        vault.put(make_snap(payload=i))
    for root, _dirs, files in os.walk(vault.root):
        assert not [f for f in files if ".tmp." in f], (root, files)


def test_write_atomic_failure_leaves_target_untouched(tmp_path, monkeypatch):
    target = tmp_path / "blob"
    target.write_bytes(b"old")

    monkeypatch.setattr(os, "replace", _boom)
    with pytest.raises(RuntimeError):
        write_atomic(b"new", str(target))
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]  # temp cleaned up


def _boom(src, dst):
    raise RuntimeError("kill -9 between write and rename")


# ----------------------------------------------------------------------
# Manifests: reopen, torn lines, rebuild from archives
# ----------------------------------------------------------------------
def test_reopen_restores_index(tmp_path):
    root = str(tmp_path)
    first = SnapVault(root)
    digests = [first.put(make_snap(payload=i)).digest for i in range(5)]
    second = SnapVault(root)
    assert sorted(second.index) == sorted(digests)
    assert [e.seq for e in second.select()] == [0, 1, 2, 3, 4]
    # Dedupe keeps working against the reloaded index.
    assert second.put(make_snap(payload=0)).deduped


def test_torn_manifest_line_skipped(tmp_path):
    root = str(tmp_path)
    vault = SnapVault(root, shards=1)
    vault.put(make_snap(payload=1))
    manifest = os.path.join(root, "shard-00", MANIFEST)
    with open(manifest, "a") as fh:
        fh.write('{"digest": "torn-mid-wr')  # kill -9 mid-append
    reopened = SnapVault(root, shards=1)
    assert len(reopened) == 1


@pytest.mark.parametrize(
    "field, value",
    [("seq", "5"), ("sync_ids", 7), ("digest", ["not", "hashable"])],
    ids=["string-seq", "non-list-sync-ids", "list-digest"],
)
def test_wrong_typed_manifest_line_skipped(tmp_path, field, value):
    """A line that parses as JSON but carries a wrong-typed field is
    skipped like a torn one instead of raising out of the open."""
    root = str(tmp_path)
    vault = SnapVault(root, shards=1)
    kept = {vault.put(make_snap(payload=i)).digest for i in range(2)}
    bad = vault.index[next(iter(kept))].to_dict()
    bad.update(digest="f" * 32, seq=7)
    bad[field] = value
    manifest = os.path.join(root, "shard-00", MANIFEST)
    with open(manifest, "a") as fh:
        fh.write(json.dumps(bad) + "\n")
    reopened = SnapVault(root, shards=1)
    assert set(reopened.index) == kept


def test_tombstone_naming_non_digests_skipped(tmp_path):
    root = str(tmp_path)
    vault = SnapVault(root, shards=1)
    kept = {vault.put(make_snap(payload=i)).digest for i in range(2)}
    manifest = os.path.join(root, "shard-00", MANIFEST)
    with open(manifest, "a") as fh:
        fh.write(json.dumps({"tomb": [["x"]]}) + "\n")
        fh.write(json.dumps({"tomb": 5}) + "\n")
    assert set(SnapVault(root, shards=1).index) == kept


def test_rebuild_index_from_archives(tmp_path):
    root = str(tmp_path)
    vault = SnapVault(root, shards=2)
    originals = {
        vault.put(make_snap(machine=f"m{i}", payload=i)).digest
        for i in range(6)
    }
    # Lose every manifest; blobs are the source of truth.
    for shard in range(2):
        os.unlink(os.path.join(root, f"shard-{shard:02d}", MANIFEST))
    empty = SnapVault(root, shards=2)
    assert len(empty) == 0
    recovered = empty.rebuild_index()
    assert recovered == 6
    assert set(empty.index) == originals
    assert empty.metrics.index_rebuilds == 1
    # Rebuilt manifests parse as JSON lines and reload cleanly.
    reloaded = SnapVault(root, shards=2)
    assert set(reloaded.index) == originals
    for shard in range(2):
        with open(os.path.join(root, f"shard-{shard:02d}", MANIFEST)) as fh:
            for line in fh:
                json.loads(line)


def test_rebuild_index_skips_a_malformed_archive(tmp_path):
    """An archive whose metadata header is a JSON list holds no snap:
    the rebuild skips it and recovers every other one."""
    import struct
    import zlib

    from repro.runtime.archive import MAGIC

    root = str(tmp_path)
    vault = SnapVault(root, shards=2)
    originals = {
        vault.put(make_snap(machine=f"m{i}", payload=i)).digest
        for i in range(4)
    }
    header = b"[1, 2]"
    body = struct.pack("<I", len(header)) + header
    bad = MAGIC + struct.pack("<I", len(body)) + zlib.compress(body)
    write_atomic(bad, os.path.join(root, "shard-00", "0" * 64 + BLOB_SUFFIX))
    assert vault.rebuild_index() == 4
    assert set(vault.index) == originals
    assert set(SnapVault(root, shards=2).index) == originals


def test_store_bytes_counts_blobs(vault):
    vault.put(make_snap(payload=1))
    vault.put(make_snap(payload=2))
    total = sum(
        os.path.getsize(vault.blob_path(d)) for d in vault.index
    )
    assert vault.store_bytes() == total
    assert vault.metrics.bytes_written == total


def test_blob_files_named_by_digest(vault):
    digest = vault.put(make_snap()).digest
    assert vault.blob_path(digest).endswith(digest + BLOB_SUFFIX)
