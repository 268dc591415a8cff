"""Ingest recovers each stored snap once.

A snap's SYNC ids and its crash signature are both mined from its
salvage span recovery (§4.1), so every store path runs
``recover_spans_salvage`` once per fresh snap and hands that one
result to both miners: a collector's drain, ``SnapVault.put``, an
orphan-blob heal, and ``rebuild_index()``.  A duplicate the collector
catches before preparing it (an early dedupe) is not recovered at all.
"""

import os
import sys

import pytest

from repro import TraceSession
from repro.fleet import Collector, SnapVault
from repro.fleet import store
from repro.reconstruct import recovery
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.archive import compress_snap, write_atomic
from repro.runtime.sync import reset_runtime_ids
from repro.workloads import random_crasher
from tests.fleet.test_signature_oracle import oracle_signature


@pytest.fixture(scope="module")
def crashes():
    """Three multithreaded crash snaps and their mapfiles."""
    snaps, mapfiles = [], []
    for seed in range(3):
        reset_runtime_ids()
        session = TraceSession(
            process_name=f"rnd{seed}",
            runtime_config=RuntimeConfig(
                policy=SnapPolicy.parse("snap on unhandled")
            ),
        )
        session.add_minic(random_crasher(seed), name="rnd", file_name="rnd.c")
        run = session.run(max_cycles=30_000_000)
        snaps.append(run.snap)
        mapfiles.extend(run.mapfiles)
    return snaps, mapfiles


@pytest.fixture
def recoveries(monkeypatch):
    """Counts ``recover_spans_salvage`` calls made through every
    ``repro`` module that imported it: the store, the signer, and the
    reconstruction a signer may run."""
    calls = []
    real = recovery.recover_spans_salvage

    def counting(dumps):
        calls.append(dumps)
        return real(dumps)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and (
            getattr(module, "recover_spans_salvage", None) is real
        ):
            monkeypatch.setattr(module, "recover_spans_salvage", counting)
    return calls


def new_vault(path, mapfiles):
    vault = SnapVault(str(path))
    for mapfile in mapfiles:
        vault.put_mapfile(mapfile)
    return vault


def assert_mined(vault, snaps, mapfiles):
    """Each stored entry carries the oracle's signature and the SYNC
    ids a lone ``mine_sync_ids`` finds."""
    for snap in snaps:
        entry = vault.index[store.content_digest(snap)]
        assert entry.sig is not None
        assert entry.sig == oracle_signature(snap, mapfiles)
        assert entry.sync_ids == store.mine_sync_ids(snap)


def test_collector_drain_recovers_each_fresh_snap_once(
    tmp_path, crashes, recoveries
):
    snaps, mapfiles = crashes
    vault = new_vault(tmp_path / "vault", mapfiles)
    collector = Collector(vault, batch_size=2)
    for snap in snaps:
        collector.submit(snap)
    assert collector.drain() == len(snaps)
    assert len(recoveries) == len(snaps)
    assert vault.metrics.signatures_mined == len(snaps)

    recoveries.clear()
    for snap in snaps:
        collector.submit(snap)
    collector.drain()
    assert vault.metrics.early_dedupe_hits == len(snaps)
    assert recoveries == []
    assert_mined(vault, snaps, mapfiles)


def test_put_recovers_each_fresh_snap_once(tmp_path, crashes, recoveries):
    snaps, mapfiles = crashes
    vault = new_vault(tmp_path / "vault", mapfiles)
    for count, snap in enumerate(snaps, start=1):
        assert not vault.put(snap).deduped
        assert len(recoveries) == count
    assert_mined(vault, snaps, mapfiles)


@pytest.mark.parametrize("via", ["put", "drain"])
def test_orphan_heal_recovers_once(tmp_path, crashes, recoveries, via):
    snaps, mapfiles = crashes
    root = tmp_path / "vault"
    vault = new_vault(root, mapfiles)
    # A kill between the blob write and its manifest line leaves the
    # blob on disk with no entry naming it.
    snap = snaps[0]
    write_atomic(
        compress_snap(snap), vault.blob_path(store.content_digest(snap))
    )
    reopened = SnapVault(str(root))
    assert len(reopened) == 0
    recoveries.clear()
    if via == "put":
        assert reopened.put(snap).deduped
    else:
        collector = Collector(reopened)
        collector.submit(snap)
        collector.drain()
    assert reopened.metrics.manifest_heals == 1
    assert len(recoveries) == 1
    assert_mined(reopened, [snap], mapfiles)


def test_rebuild_index_recovers_each_snap_once(tmp_path, crashes, recoveries):
    snaps, mapfiles = crashes
    root = tmp_path / "vault"
    vault = new_vault(root, mapfiles)
    for snap in snaps:
        vault.put(snap)
    before = {d: e.to_dict() for d, e in vault.index.items()}
    recoveries.clear()
    assert vault.rebuild_index() == len(snaps)
    assert len(recoveries) == len(snaps)
    after = {d: e.to_dict() for d, e in vault.index.items()}
    for fields in (*before.values(), *after.values()):
        fields.pop("seq")  # reassigned in digest order by the rebuild
    assert after == before
    assert os.path.exists(root / vault.incident_index_path())
