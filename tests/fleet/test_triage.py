"""Crash-signature triage: mining, buckets, exemplar pins, the top view."""

import json

import pytest

from repro import TraceSession
from repro.fleet import (
    Collector,
    RetentionPolicy,
    SnapVault,
    VaultEntry,
    VaultQuery,
    build_report,
    pairwise_scores,
    plan_compaction,
    render_report_html,
    render_report_text,
)
from repro.fleet.index import IncidentIndex
from repro.reconstruct import CrashSignature, signature_key
from repro.reconstruct.signature import normalize_reason
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.sync import reset_runtime_ids
from repro.workloads import random_crasher
from tests.fleet.test_incidents import run_two_peer_fanout

WEB_SIG = "unhandled:DIVIDE_BY_ZERO @ web.main(web.c:5)"


# ----------------------------------------------------------------------
# Signature normalization
# ----------------------------------------------------------------------
def test_normalize_reason_fault_classes():
    assert normalize_reason("unhandled", {"code": 2}) == (
        "unhandled:DIVIDE_BY_ZERO"
    )
    assert normalize_reason("exception", {"code": 5}) == (
        "exception:ILLEGAL_ARGUMENT"
    )
    assert normalize_reason("unhandled", {}) == "unhandled"
    assert normalize_reason("signal", {"signum": 15}) == "signal:15"
    assert normalize_reason("signal", {}) == "signal"
    assert normalize_reason("post-mortem", {"signal": 9}) == (
        "post-mortem:signal-9"
    )
    assert normalize_reason("hang", {}) == "hang"


def test_normalize_reason_non_faults_have_no_signature():
    for reason in ("api", "external", "group", "exit", "crash"):
        assert normalize_reason(reason, {"code": 2}) is None


def test_normalize_reason_strips_addresses():
    # The pc is layout-specific; two builds of the same bug must agree.
    with_pc = normalize_reason("unhandled", {"code": 2, "pc": 0x4F2A})
    without = normalize_reason("unhandled", {"code": 2})
    assert with_pc == without


def test_normalize_reason_tolerates_non_dict_detail():
    assert normalize_reason("unhandled", None) == "unhandled"
    assert normalize_reason("signal", "garbage") == "signal"


def test_signature_render_and_key():
    sig = CrashSignature(
        reason="unhandled:DIVIDE_BY_ZERO",
        frames=(
            ("app", "boom", "app.c", 4),
            ("app", "outer", "", -1),
            ("app", "main", "", -1),
        ),
    )
    rendered = sig.render()
    assert rendered == (
        "unhandled:DIVIDE_BY_ZERO @ app.boom(app.c:4) < app.outer < app.main"
    )
    assert sig.key == signature_key(rendered)
    assert len(sig.key) == 12
    # Frameless signatures render as the bare reason class.
    assert CrashSignature(reason="hang").render() == "hang"


# ----------------------------------------------------------------------
# Ingest-time mining (the fan-out fixture: one crasher, one bystander)
# ----------------------------------------------------------------------
def test_ingest_mines_signature_for_the_crasher_only(tmp_path):
    vault, _result = run_two_peer_fanout(tmp_path)
    by_process = {e.process: e.sig for e in vault.index.values()}
    assert by_process["web"] == WEB_SIG
    assert by_process["db"] is None  # group bystander: not a fault
    assert vault.metrics.signatures_mined == 1


def test_drain_skips_a_mapfile_that_does_not_load(tmp_path):
    # A stored mapfile that is not JSON, and one that is JSON but not a
    # mapfile, sit beside the good one: ingest still stores the snap
    # with the signature a clean vault gives it, and counts both skips.
    reset_runtime_ids()
    session = TraceSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        )
    )
    session.add_minic(random_crasher(0), name="rnd", file_name="rnd.c")
    run = session.run(max_cycles=30_000_000)
    mined = {}
    for name, junk in (
        ("junk", {"zz": "{not json", "yy": '{"module_name": "rnd"}'}),
        ("clean", {}),
    ):
        vault = SnapVault(str(tmp_path / name))
        for mapfile in run.mapfiles:
            vault.put_mapfile(mapfile)
        for stem, text in junk.items():
            path = tmp_path / name / "mapfiles" / f"{stem}.map.json"
            path.write_text(text)
        collector = Collector(vault)
        collector.submit(run.snap)
        assert collector.drain() == 1
        [entry] = vault.index.values()
        mined[name] = (entry.sig, vault.metrics.mapfiles_skipped)
    sig = mined["clean"][0]
    assert sig is not None and "DIVIDE_BY_ZERO" in sig
    assert mined == {"clean": (sig, 0), "junk": (sig, 2)}


def test_bucket_counts_whole_incident_but_keys_on_the_fault(tmp_path):
    vault, _result = run_two_peer_fanout(tmp_path)
    buckets = VaultQuery(vault).top()
    assert len(buckets) == 1
    bucket = buckets[0]
    assert bucket.sig == WEB_SIG
    assert bucket.key == signature_key(WEB_SIG)
    assert bucket.count == 2  # web's trigger + db's bystander snap
    assert bucket.incidents == 1
    assert bucket.machines == ["back-box", "front-box"]
    assert bucket.processes == ["db", "web"]
    web = next(e for e in vault.index.values() if e.process == "web")
    assert bucket.exemplar == web.digest
    assert bucket.key in bucket.describe()
    assert vault.metrics.top_queries == 1


# ----------------------------------------------------------------------
# Incremental bucket maintenance on synthetic entries
# ----------------------------------------------------------------------
def entry(seq, machine="m", process="p", reason="api", sync_ids=(),
          group=None, initiator=None, initiator_reason=None, sig=None):
    return VaultEntry(
        digest=f"digest-{seq:04d}",
        seq=seq,
        shard=seq % 2,
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
        sig=sig,
    )


def test_singletons_with_same_sig_share_a_bucket():
    index = IncidentIndex.rebuild([
        entry(0, reason="unhandled", sig="boom"),
        entry(1, machine="m2", reason="unhandled", sig="boom"),
        entry(2, machine="m3", reason="unhandled", sig="other"),
        entry(3, reason="api"),
    ])
    assert set(index.buckets) == {"boom", "other"}
    boom = index.bucket_components("boom")
    assert len(boom) == 2  # two incidents, one bucket
    assert [c.min_seq for c in boom] == [0, 1]


def test_union_rekeys_buckets_to_the_min_signature():
    # Two sig-carrying components merged by a SYNC link: both leave
    # their old buckets, the merged component lands under min(sigs).
    index = IncidentIndex.rebuild([
        entry(0, reason="unhandled", sync_ids=[7], sig="bbb"),
        entry(1, machine="m2", reason="unhandled", sync_ids=[7], sig="aaa"),
    ])
    assert set(index.buckets) == {"aaa"}
    component = index.component_of("digest-0000")
    assert component.sig == "aaa"
    assert len(component.digests) == 2


def test_union_with_unsigned_member_keeps_the_signature():
    index = IncidentIndex.rebuild([
        entry(0, reason="unhandled", sync_ids=[7], sig="boom"),
        entry(1, machine="m2", sync_ids=[7]),  # bystander, sig None
        entry(2, machine="m3", sync_ids=[7]),
    ])
    assert set(index.buckets) == {"boom"}
    assert index.component_of("digest-0002").sig == "boom"


def test_bucket_state_is_arrival_order_free():
    entries = [
        entry(0, reason="unhandled", sync_ids=[7], sig="bbb"),
        entry(1, machine="m2", sync_ids=[7, 8]),
        entry(2, machine="m3", reason="unhandled", sync_ids=[8], sig="aaa"),
        entry(3, machine="m4", reason="unhandled", sig="aaa"),
    ]
    forward = IncidentIndex.rebuild(entries)
    # rebuild() re-sorts by seq, so feed a scrambled list through add()
    # directly to simulate a different union interleaving.
    scrambled = IncidentIndex()
    for e in (entries[3], entries[2], entries[0], entries[1]):
        scrambled.add(e)
    assert forward.to_bytes() == scrambled.to_bytes()
    assert forward.exemplar_digests() == scrambled.exemplar_digests()


def test_exemplar_is_earliest_signature_carrier():
    index = IncidentIndex.rebuild([
        entry(0, sync_ids=[7]),  # earliest member, but unsigned
        entry(1, machine="m2", reason="unhandled", sync_ids=[7], sig="boom"),
        entry(2, machine="m3", reason="unhandled", sig="boom"),
    ])
    # digest-0001 is the earliest member whose own sig matches.
    assert index.exemplar_digest("boom") == "digest-0001"
    assert index.exemplar_digests() == {"digest-0001"}
    assert index.exemplar_digest("missing") is None


# ----------------------------------------------------------------------
# Checkpoint round-trip
# ----------------------------------------------------------------------
def test_checkpoint_carries_bucket_state(tmp_path):
    entries = [
        entry(0, reason="unhandled", sig="boom"),
        entry(1, machine="m2", reason="unhandled", sync_ids=[7], sig="boom"),
        entry(2, machine="m3", sync_ids=[7]),
    ]
    index = IncidentIndex.rebuild(entries)
    index.persist(str(tmp_path))
    doc = json.loads(index.to_bytes())
    assert doc["buckets"] == {"boom": 3}  # bystander counted in
    loaded, how = IncidentIndex.load(str(tmp_path), entries)
    assert how == "loaded"
    assert loaded.buckets == index.buckets
    assert loaded.sig == index.sig
    assert loaded.to_bytes() == index.to_bytes()
    assert loaded.exemplar_digest("boom") == "digest-0000"


def test_stale_sig_in_checkpoint_forces_rebuild(tmp_path):
    stale = [entry(0, reason="unhandled", sig="old-sig")]
    IncidentIndex.rebuild(stale).persist(str(tmp_path))
    # The manifests were re-mined (say, mapfiles changed): the
    # checkpoint's member sig disagrees, so the manifests win.
    fresh = [entry(0, reason="unhandled", sig="new-sig")]
    loaded, how = IncidentIndex.load(str(tmp_path), fresh)
    assert how == "rebuilt"
    assert set(loaded.buckets) == {"new-sig"}


# ----------------------------------------------------------------------
# GC: open buckets pin their exemplar
# ----------------------------------------------------------------------
def test_bucket_exemplar_pin_survives_expiry():
    entries = [
        entry(0, reason="unhandled", sig="boom"),  # old: the exemplar
        entry(1, machine="m2", reason="unhandled", sig="boom"),  # old
        entry(30, process="fresh"),
    ]
    index = IncidentIndex.rebuild(entries)
    policy = RetentionPolicy(max_age=500, pin_open_incidents=False)
    plan = plan_compaction(entries, policy, incident_index=index, now=3000)
    assert "digest-0000" in plan.pinned  # the exemplar, kept by the pin
    assert plan.victim_digests == {"digest-0001"}  # its twin expires


def test_bucket_exemplar_pin_can_be_disabled():
    entries = [
        entry(0, reason="unhandled", sig="boom"),
        entry(30, process="fresh"),
    ]
    index = IncidentIndex.rebuild(entries)
    policy = RetentionPolicy(
        max_age=500, pin_open_incidents=False, pin_bucket_exemplars=False
    )
    plan = plan_compaction(entries, policy, incident_index=index, now=3000)
    assert plan.victim_digests == {"digest-0000"}


def test_exemplar_pin_opens_the_whole_incident():
    # The pin applies before the open-incident rule, so the exemplar's
    # bystanders ride along — GC still never splits an incident.
    entries = [
        entry(0, reason="unhandled", sync_ids=[7], sig="boom"),
        entry(1, machine="m2", sync_ids=[7]),  # bystander, also old
        entry(30, process="fresh"),
    ]
    index = IncidentIndex.rebuild(entries)
    plan = plan_compaction(
        entries, RetentionPolicy(max_age=500), incident_index=index,
        now=3000,
    )
    assert plan.victims == []
    assert set(plan.pinned) == {"digest-0000", "digest-0001"}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_report_document_and_renderings(tmp_path):
    vault, _result = run_two_peer_fanout(tmp_path)
    query = VaultQuery(vault)
    report = build_report(query)
    assert report["schema"] == "tb-triage-report/1"
    assert report["snaps"] == 2 and report["bucketed_snaps"] == 1
    assert len(report["buckets"]) == 1
    doc = report["buckets"][0]
    assert doc["sig"] == WEB_SIG
    trace_rows = doc["exemplar_trace"]
    assert trace_rows[0].startswith("exemplar ")
    assert any("fault here" in row for row in trace_rows)
    assert vault.metrics.reports_rendered == 1

    text = "\n".join(render_report_text(report))
    assert "top crashers: 1 bucket(s), 1/2 snap(s) bucketed" in text
    assert WEB_SIG in text

    page = render_report_html(report)
    assert page.startswith("<!DOCTYPE html>")
    assert page.count('<div class="bucket">') == page.count("</div>") == 1
    assert "&lt;=== fault here" in page  # trace rows are escaped
    assert WEB_SIG.replace("<", "&lt;") in page


def test_exemplar_lines_clip_keeps_the_tail(tmp_path):
    vault, _result = run_two_peer_fanout(tmp_path)
    report = build_report(VaultQuery(vault), exemplar_lines=4)
    rows = report["buckets"][0]["exemplar_trace"]
    assert any("clipped" in row for row in rows)
    assert any("fault here" in row for row in rows)  # tail survives


# ----------------------------------------------------------------------
# The triage-quality metric
# ----------------------------------------------------------------------
def test_pairwise_scores_perfect_clustering():
    truth = {"a": {1, 2, 3}, "b": {4, 5}}
    assert pairwise_scores({"x": {1, 2, 3}, "y": {4, 5}}, truth) == (1.0, 1.0)


def test_pairwise_scores_merge_costs_precision():
    truth = {"a": {1, 2}, "b": {3, 4}}
    merged = {"x": {1, 2, 3, 4}}  # 6 pairs, only 2 true
    precision, recall = pairwise_scores(merged, truth)
    assert precision == pytest.approx(2 / 6)
    assert recall == 1.0


def test_pairwise_scores_scatter_costs_recall():
    truth = {"a": {1, 2, 3}}
    scattered = {"x": {1, 2}, "y": {3}}
    precision, recall = pairwise_scores(scattered, truth)
    assert precision == 1.0
    assert recall == pytest.approx(1 / 3)


def test_pairwise_scores_unclustered_items_cost_recall_only():
    truth = {"a": {1, 2}}
    precision, recall = pairwise_scores({}, truth)
    assert (precision, recall) == (1.0, 0.0)
    # And no pairs anywhere is vacuously perfect.
    assert pairwise_scores({}, {"a": {1}}) == (1.0, 1.0)
