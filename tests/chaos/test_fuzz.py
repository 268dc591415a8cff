"""Seeded fuzz sweep: salvage never raises, strict fails usefully.

The sweep damages *copies* of one healthy three-machine run, so each
case costs only an injector pass plus a reconstruction, not a fresh
simulated network run.  The default lane runs a fast subset; the full
N >= 200 sweep is marked ``slow`` (run via ``scripts/check.sh chaos``
or ``test-all``).

Two contracts under fuzz:

* **Salvage never raises.**  Whatever the injectors did, salvage-mode
  reconstruction returns a ``DistributedTrace`` with a degradation
  summary, and the renderer handles it.
* **Strict raises on structural damage, with a useful message.**
  "Structural" means damage strict verification actually checks:
  clobbered header words, truncated buffers, torn/corrupt archives,
  missing machines.
* **Strict is trustworthy evidence or nothing.**  Whenever strict
  reconstruction of a damaged snap does not raise, salvage lost no
  word and reconstructs the same threads: damage the scan can see (a
  flipped word that no longer decodes, a zeroed hole) is refused.
* **One decoder per layer.**  Strict raises if and only if salvage
  records a loss (a shared buffer's note is not one), and its message
  is salvage's first loss — for process snaps and containers alike.
* **One stitch.**  Strict distributed reconstruction raises if and only
  if salvage's degradation summary records a loss or a missing machine,
  and its message names that first item; otherwise its logical threads,
  process threads and skew estimates equal salvage's.
"""

import random

import pytest

from repro.chaos import SCENARIOS, build_base, copy_snap, run_scenario
from repro.chaos.inject import (
    clobber_header,
    corrupt_archive,
    drop_sync_records,
    duplicate_sync_records,
    flip_bits,
    skew_clock,
    tear_archive,
    truncate_buffer,
    zero_words,
)
from repro.reconstruct import Reconstructor, RecoveryError, render_distributed
from repro.runtime.archive import (
    ArchiveError,
    compress_snap,
    decompress_snap,
    salvage_decompress,
)


@pytest.fixture(scope="module")
def base():
    snaps, mapfiles, _ = build_base()
    return snaps, mapfiles


# ----------------------------------------------------------------------
# Damage classes
# ----------------------------------------------------------------------
def _damage_snaps(snaps, rng):
    """Randomly compose word-level injectors over copies of ``snaps``.

    Returns (damaged snaps, ground-truth notes).
    """
    damaged = [copy_snap(s) for s in snaps]
    notes = []
    injectors = [
        lambda s: flip_bits(s, rng, flips=rng.randrange(1, 12)),
        lambda s: zero_words(s, rng, runs=rng.randrange(1, 3)),
        lambda s: clobber_header(s, rng, words=rng.randrange(1, 3)),
        lambda s: truncate_buffer(s, rng),
        lambda s: drop_sync_records(s, rng, count=rng.randrange(1, 3)),
        lambda s: duplicate_sync_records(s, rng),
        lambda s: skew_clock(s, rng.randrange(-(1 << 34), 1 << 34)),
    ]
    for _ in range(rng.randrange(1, 4)):
        victim = rng.choice(damaged)
        notes += rng.choice(injectors)(victim)
    if rng.random() < 0.3:  # sometimes a machine vanishes too
        idx = rng.randrange(len(damaged))
        notes.append(f"machine {damaged[idx].machine_name} dropped")
        damaged[idx] = None
    return damaged, notes


def _check_strict_distributed(salvaged, reconstruct_strict):
    """The one-stitch contract: strict refuses salvage's first missing
    machine or loss, and otherwise returns what salvage returned."""
    loss = salvaged.degradation.loss
    try:
        strict = reconstruct_strict()
    except RecoveryError as exc:
        assert loss is not None and loss in str(exc)
        return
    assert loss is None
    assert strict.logical_threads == salvaged.logical_threads
    assert [p.threads for p in strict.processes] == [
        p.threads for p in salvaged.processes
    ]
    assert strict.skew_estimates == salvaged.skew_estimates


def _fuzz_one(snaps, mapfiles, seed):
    rng = random.Random(seed)
    damaged, notes = _damage_snaps(snaps, rng)
    reconstructor = Reconstructor(mapfiles)
    trace = reconstructor.reconstruct_distributed(
        damaged, strict=False, expected_machines=None
    )
    assert trace.degradation is not None
    assert isinstance(render_distributed(trace), str)
    _check_strict_distributed(
        trace, lambda: reconstructor.reconstruct_distributed(damaged)
    )
    # Ground truth was produced, even if this particular damage landed
    # somewhere reconstruction tolerates silently.
    assert notes
    for snap in damaged:
        if snap is None:
            continue
        salvage = reconstructor.reconstruct(snap, strict=False)
        losses = [r.loss for r in salvage.salvage if r.loss is not None]
        try:
            strict = reconstructor.reconstruct(snap, strict=True)
        except RecoveryError as exc:
            assert losses and str(exc) == losses[0]
            continue
        assert not losses
        assert salvage.notes == strict.notes
        assert not any(report.words_skipped for report in salvage.salvage)
        assert salvage.threads == strict.threads


def _fuzz_archive_one(snaps, seed):
    rng = random.Random(seed)
    data = compress_snap(rng.choice(snaps))
    if rng.random() < 0.5:
        bad, _ = tear_archive(data, rng)
    else:
        bad, _ = corrupt_archive(data, rng, flips=rng.randrange(1, 6))
    if bad == data:  # corrupt_archive can (rarely) cancel itself out
        return
    # Salvage never raises; strict always does on a damaged container,
    # with salvage's first note.
    snap, notes = salvage_decompress(bad)
    assert notes
    with pytest.raises(ArchiveError) as excinfo:
        decompress_snap(bad)
    assert str(excinfo.value) == notes[0]
    return snap, notes


# ----------------------------------------------------------------------
# Fast subset (default lane)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_fuzz_salvage_never_raises_fast(base, seed):
    snaps, mapfiles = base
    _fuzz_one(snaps, mapfiles, seed)


@pytest.mark.parametrize("seed", range(15))
def test_fuzz_archive_fast(base, seed):
    snaps, _ = base
    _fuzz_archive_one(snaps, seed)


# ----------------------------------------------------------------------
# Full sweep (slow lane): N >= 200 distinct damage cases
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25, 185))
def test_fuzz_salvage_never_raises(base, seed):
    snaps, mapfiles = base
    _fuzz_one(snaps, mapfiles, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(15, 95))
def test_fuzz_archive(base, seed):
    snaps, _ = base
    _fuzz_archive_one(snaps, seed)


@pytest.mark.slow
def test_fuzz_archive_names_a_vanished_module(base):
    """Seed 92 corrupts the header so that the snap's one module
    vanishes from it; salvage says so by field name."""
    snaps, _ = base
    snap, notes = _fuzz_archive_one(snaps, 92)
    assert snap.modules == []
    assert "snap metadata missing 'modules'" in notes


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fuzz_every_scenario_every_seed(name, seed):
    result = run_scenario(name, seed=seed)
    trace = result.reconstruct(strict=False)
    assert trace.degradation is not None
    assert isinstance(render_distributed(trace), str)
    _check_strict_distributed(trace, lambda: result.reconstruct(strict=True))


# ----------------------------------------------------------------------
# Nondeterminism-log damage: replay refuses with a typed error
# ----------------------------------------------------------------------
CRASHER = """
int main() {
    int i;
    int n;
    n = 7;
    for (i = 0; i < 5; i = i + 1) {
        n = n - 1;
    }
    return 100 / (n - 2);
}
"""


@pytest.fixture(scope="module")
def crasher_run():
    """One recorded run of :data:`CRASHER`."""
    from repro.api import TraceSession
    from repro.runtime import RuntimeConfig, SnapPolicy
    from repro.runtime.sync import reset_runtime_ids

    reset_runtime_ids()
    session = TraceSession(
        process_name="crasher",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            record_replay=True,
        ),
    )
    session.add_minic(CRASHER, name="crasher", file_name="crasher.c")
    run = session.run(max_cycles=2_000_000)
    assert run.snap is not None and run.snap.replayable == "full"
    return run


@pytest.fixture(scope="module", params=[1, 2], ids=["ndlog-v1", "ndlog-v2"])
def recorded_snap(request, crasher_run):
    """The crash snap once per recorder version, both as ``tb-ndlog/2``:
    v2 is the log the run recorded (its lone thread's slices coalesced
    into one), v1 packs the recorder's raw stream without coalescing,
    every slice as the scheduler ran it."""
    from repro.replay import encode_ndlog
    from repro.runtime.snap import SnapFile

    snap = crasher_run.snap
    if request.param == 2:
        return snap
    raw = crasher_run.runtime.recorder.to_dict(version=1)
    d = snap.to_dict()
    d["replay"] = {
        **d["replay"],
        "ndlog": encode_ndlog(raw["header"], raw["events"]),
    }
    return SnapFile.from_dict(d)


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_ndlog_damage_is_typed(recorded_snap, seed):
    """Whatever damage_ndlog did, replay fails with ReplayUnavailable
    naming the hurt segment — never a crash or a silent divergence.
    Runs against the coalesced log and the uncoalesced one: damage
    corrupts the packed byte columns, a rare event or a header field,
    or drops a header key or the whole log."""
    from repro.chaos.inject import damage_ndlog
    from repro.replay import ReplayEngine, ReplayUnavailable

    rng = random.Random(seed)
    bad = copy_snap(recorded_snap)
    notes = damage_ndlog(bad, rng)
    assert notes and "ReplayUnavailable" in notes[0]
    with pytest.raises(ReplayUnavailable) as excinfo:
        ReplayEngine(bad).run_to_fault()
    assert excinfo.value.segment
    assert f"'{excinfo.value.segment}'" in notes[0]
    # Damage stayed on the copy: the pristine snap still replays.
    stop = ReplayEngine(recorded_snap).run_to_fault()
    assert stop["reason"] == "fault"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 40))
def test_fuzz_ndlog_damage_is_typed_slow(recorded_snap, seed):
    """Wider seed sweep over the same contract (slow lane)."""
    test_fuzz_ndlog_damage_is_typed(recorded_snap, seed)


# ----------------------------------------------------------------------
# Strict mode raises usefully on structural damage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_fuzz_strict_raises_on_structural_damage(base, seed):
    rng = random.Random(seed)
    snaps, mapfiles = base
    bad = copy_snap(rng.choice(snaps))
    structural = rng.choice((clobber_header, truncate_buffer))
    assert structural(bad, rng)
    with pytest.raises(RecoveryError) as excinfo:
        Reconstructor(mapfiles).reconstruct(bad, strict=True)
    assert "buffer" in str(excinfo.value)
