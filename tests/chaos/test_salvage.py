"""Salvage-mode reconstruction under every chaos scenario.

The acceptance bar (ISSUE 2): every scenario — corrupt buffer,
truncated archive, missing machine snap, dropped SYNC, abrupt kill —
reconstructs in salvage mode without an uncaught exception, the
degradation summary names each loss, and strict mode keeps its
fail-fast contract on structurally damaged evidence.
"""

import random
import re

import pytest

from repro.chaos import SCENARIOS, build_base, copy_snap, run_scenario
from repro.chaos.inject import clobber_header, truncate_buffer
from repro.reconstruct import (
    Reconstructor,
    RecoveryError,
    render_distributed,
)
from repro.runtime import BufferFlags
from repro.runtime.archive import ArchiveError, compress_snap, decompress_snap
from repro.runtime.buffers import HEADER_WORDS
from repro.runtime.snap import BufferDump
from repro.workloads.scenarios import figure6_session


@pytest.fixture(scope="module")
def base():
    snaps, mapfiles, _ = build_base()
    return snaps, mapfiles


# ----------------------------------------------------------------------
# Every scenario survives salvage-mode reconstruction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_salvages_without_exception(name):
    result = run_scenario(name, seed=7)
    trace = result.reconstruct(strict=False)
    assert trace.degradation is not None
    # The reconstruction kept every machine that had evidence.
    assert len(trace.processes) >= 1
    # Rendering the degraded master trace must not raise either.
    assert render_distributed(trace)


def test_corrupt_buffer_names_the_loss():
    result = run_scenario("corrupt-buffer", seed=7)
    trace = result.reconstruct()
    summary = trace.degradation
    assert summary.degraded
    text = summary.summary()
    assert "words skipped" in text or "corrupt" in text


def test_torn_header_names_buffer_and_strict_raises():
    result = run_scenario("torn-header", seed=7)
    trace = result.reconstruct()
    assert trace.degradation.degraded
    assert any("buffer" in loss for loss in trace.degradation.losses)
    with pytest.raises(RecoveryError):
        result.reconstruct(strict=True)


def test_truncated_buffer_strict_raises_salvage_reports():
    result = run_scenario("truncated-buffer", seed=3)
    with pytest.raises(RecoveryError, match="words"):
        result.reconstruct(strict=True)
    trace = result.reconstruct()
    assert any("skipped" in loss for loss in trace.degradation.losses)


def test_truncated_archive_degrades_not_crashes():
    result = run_scenario("truncated-archive", seed=7)
    trace = result.reconstruct()
    summary = trace.degradation
    assert summary.degraded
    # Either the machine is wholly missing or its losses are described.
    named = summary.missing_machines or summary.losses
    assert named


def test_missing_machine_is_reported():
    result = run_scenario("missing-machine", seed=7)
    trace = result.reconstruct()
    assert trace.degradation.missing_machines
    missing = trace.degradation.missing_machines[0]
    assert missing not in {p.machine_name for p in trace.processes}
    assert "no snap recovered" in trace.degradation.summary()


def test_dropped_sync_keeps_logical_threads_and_notes_gap():
    result = run_scenario("dropped-sync", seed=7)
    assert result.injected, "scenario must actually drop SYNC records"
    trace = result.reconstruct()
    # Reconstruction still fuses what evidence remains...
    assert trace.processes
    # ...and the summary names the broken chain or skipped words.
    assert trace.degradation.degraded


def test_abrupt_kill_recovers_history():
    result = run_scenario("abrupt-kill", seed=7)
    trace = result.reconstruct()
    # The killed frontend still contributes recovered line history —
    # the paper's headline kill -9 claim.
    frontend = [p for p in trace.processes if p.process_name == "frontend"]
    assert frontend
    assert any(t.line_steps() for t in frontend[0].threads)


def test_clock_skew_still_stitches():
    result = run_scenario("clock-skew", seed=7)
    trace = result.reconstruct()
    assert trace.logical_threads  # SYNC sequencing beats skew (§5.2)


def test_duplicated_sync_deduped():
    result = run_scenario("duplicated-sync", seed=7)
    trace = result.reconstruct()
    losses = " ".join(trace.degradation.losses)
    assert "duplicated SYNC" in losses or "skipped" in losses


# ----------------------------------------------------------------------
# Strict mode's contract
# ----------------------------------------------------------------------
def test_strict_distributed_rejects_none_snaps(base):
    snaps, mapfiles = base
    with pytest.raises(ValueError, match="salvage"):
        Reconstructor(mapfiles).reconstruct_distributed(
            [snaps[0], None], strict=True
        )


@pytest.mark.parametrize("seed", [9, 13, 24, 27])
def test_duplicated_sync_strict_refuses(seed):
    """On these seeds the duplicated SYNC records are the only loss, so
    only the stitch's dedupe sees them; strict refuses it by name
    rather than fuse a wrong logical thread."""
    result = run_scenario("duplicated-sync", seed=seed)
    loss = result.reconstruct().degradation.loss
    assert loss == "3 duplicated SYNC record(s) ignored"
    with pytest.raises(RecoveryError, match=re.escape(loss)):
        result.reconstruct(strict=True)


def test_used_shared_buffer_is_a_note_not_a_loss(base):
    snaps, mapfiles = base
    shared = copy_snap(snaps[0])
    shared.buffers.append(
        BufferDump(
            index=len(shared.buffers),
            flags=BufferFlags.SHARED,
            base=0,
            sub_count=1,
            sub_size=4,
            owner_tid=None,
            words=[0] * HEADER_WORDS + [1, 0, 0, 0],
        )
    )
    snaps = [shared, *snaps[1:]]
    recon = Reconstructor(mapfiles)
    salvaged = recon.reconstruct_distributed(snaps, strict=False)
    assert salvaged.degradation.level == "full"
    assert any("shared (desperation)" in note for note in salvaged.notes)
    assert recon.reconstruct_distributed(snaps).notes == salvaged.notes


def test_strict_single_snap_raises_on_clobbered_header(base):
    snaps, mapfiles = base
    bad = copy_snap(snaps[0])
    clobber_header(bad, random.Random(1))
    with pytest.raises(RecoveryError):
        Reconstructor(mapfiles).reconstruct(bad)


def test_strict_single_snap_raises_on_truncation(base):
    snaps, mapfiles = base
    bad = copy_snap(snaps[0])
    truncate_buffer(bad, random.Random(1), keep_fraction=0.5)
    with pytest.raises(RecoveryError):
        Reconstructor(mapfiles).reconstruct(bad)


def test_strict_archive_raises_on_any_damage(base):
    snaps, _ = base
    data = compress_snap(snaps[0])
    with pytest.raises(ArchiveError):
        decompress_snap(data[: len(data) - 4])
    corrupted = bytearray(data)
    corrupted[len(corrupted) // 2] ^= 0x40
    with pytest.raises(ArchiveError):
        decompress_snap(bytes(corrupted))


# ----------------------------------------------------------------------
# Salvage on undamaged evidence is lossless
# ----------------------------------------------------------------------
def test_salvage_equals_strict_on_clean_snaps(base):
    snaps, mapfiles = base
    recon = Reconstructor(mapfiles)
    for snap in snaps:
        strict = recon.reconstruct(snap)
        salvaged = recon.reconstruct(snap, strict=False)
        assert not salvaged.degraded
        assert len(strict.threads) == len(salvaged.threads)
        for a, b in zip(strict.threads, salvaged.threads):
            assert a.steps == b.steps


def test_salvage_distributed_on_clean_run_is_full(base):
    """Undamaged runs read full, and strict stitches what salvage does.
    Figure 6's server faults inside SetPetName, so its snap holds no
    EXIT leg (seq 3), and GetPetName's callee legs (6, 7) come after
    that snap: two chain gaps, noted and not lost."""
    figure6 = figure6_session().run()
    for snaps, mapfiles, jumps in (
        (base[0], base[1], []),
        (figure6.snaps, figure6.mapfiles, ["2 -> 4", "5 -> 8"]),
    ):
        recon = Reconstructor(mapfiles)
        trace = recon.reconstruct_distributed(
            list(snaps), strict=False, expected_machines=None
        )
        assert trace.degradation.level == "full"
        assert trace.logical_threads
        logical = trace.logical_threads[0].logical_id
        assert trace.notes == [
            f"logical thread {logical:#x}: SYNC leg(s) missing "
            f"(sequence jumps {jump})"
            for jump in jumps
        ]
        strict = recon.reconstruct_distributed(list(snaps))
        assert strict.logical_threads == trace.logical_threads
