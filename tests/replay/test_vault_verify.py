"""Bucket verification: replay the exemplar, confirm the signature."""

import pytest

from repro.fleet import SnapVault, VaultQuery
from repro.fleet.triage import build_report, render_report_text, top_buckets
from repro.runtime.snap import SnapFile


def test_verify_bucket_confirms_the_diagnosis(replay_vault):
    vault, digest = replay_vault
    query = VaultQuery(vault)
    (bucket,) = top_buckets(vault)
    assert bucket.exemplar == digest
    verdict = query.verify_bucket(bucket)
    assert verdict["verified"] is True
    assert verdict["digest"] == digest
    assert verdict["replay_sig"] == bucket.sig
    assert "reproduces" in verdict["reason"]


def test_verify_bucket_reports_unreplayable_exemplar(
    replay_vault, tmp_path, workqueue_run
):
    d = workqueue_run.snap.to_dict()
    d.pop("replay")
    legacy = SnapFile.from_dict(d)
    vault = SnapVault(str(tmp_path / "legacy-vault"))
    for mapfile in workqueue_run.mapfiles:
        vault.put_mapfile(mapfile)
    vault.put(legacy)
    (bucket,) = top_buckets(vault)
    verdict = VaultQuery(vault).verify_bucket(bucket)
    assert verdict["verified"] is False
    assert "replay-unavailable" in verdict["reason"]
    assert "ndlog" in verdict["reason"]


@pytest.mark.parametrize("segment", ["format", "header.pid"])
def test_verify_bucket_reports_an_unreadable_log(
    tmp_path, workqueue_run, unreadable_snaps, segment
):
    """A retired or wrong-typed log is a finding, not a raise."""
    vault = SnapVault(str(tmp_path / "unreadable"))
    for mapfile in workqueue_run.mapfiles:
        vault.put_mapfile(mapfile)
    vault.put(unreadable_snaps[segment])
    (bucket,) = top_buckets(vault)
    verdict = VaultQuery(vault).verify_bucket(bucket)
    assert verdict["verified"] is False
    assert verdict["reason"].startswith(f"replay-unavailable[{segment}]")


def test_verify_bucket_entry_is_marked_replayable(replay_vault):
    vault, digest = replay_vault
    assert vault.index[digest].replayable == "full"


def test_report_stamps_replay_verified(replay_vault):
    vault, _digest = replay_vault
    query = VaultQuery(vault)
    report = build_report(query, verify=True)
    (doc,) = report["buckets"]
    assert doc["replay_verified"]["verified"] is True
    text = "\n".join(render_report_text(report))
    assert "replay: VERIFIED" in text


def test_report_without_verify_has_no_stamp(replay_vault):
    vault, _digest = replay_vault
    report = build_report(VaultQuery(vault))
    (doc,) = report["buckets"]
    assert "replay_verified" not in doc
    assert "replay:" not in "\n".join(render_report_text(report))
