"""Differential: the faulting-span signer against a full-reconstruction oracle.

Ingest signs a snap from the salvage span recovery it already made for
the snap's SYNC ids, and expands only the faulting span
(:func:`repro.reconstruct.snap_signature`).  :func:`oracle_signature`
is the signer that reads the whole salvage reconstruction instead:
every thread expanded, call depths assigned, then
:func:`~repro.reconstruct.signature_of_trace`.  Both must render the
same signature, byte for byte, for every snap:

* seeded multithreaded crashers (several thread spans per snap);
* a program whose threads catch exceptions, snapped as a hang at every
  stage of its run and at its unhandled fault: snaps with no span, one
  span, or several spans holding an EXCEPTION record;
* the three-machine incident under the chaos fuzz's seeded damage;
* every chaos scenario (hang, signal, post-mortem and group snaps);

and each snap also relabelled as a ``hang``, which signs the last
thread with a line when no exception survives.  The default lane runs
a seed subset; the full sweep is ``slow``
(``scripts/check.sh triage``).
"""

import dataclasses
import random

import pytest

from repro import TraceSession
from repro.chaos import SCENARIOS, build_base, run_scenario
from repro.reconstruct import (
    FAULT_REASONS,
    Reconstructor,
    recover_spans_salvage,
    signature_of_trace,
    snap_signature,
)
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.records import ExtKind, ExtRecord
from repro.runtime.sync import reset_runtime_ids
from repro.workloads import random_crasher
from tests.chaos.test_fuzz import _damage_snaps


def oracle_signature(snap, mapfiles) -> str | None:
    """The full-reconstruction signer: rendered signature, or None —
    never raises."""
    if snap.reason not in FAULT_REASONS:
        return None
    try:
        trace = Reconstructor(mapfiles).reconstruct(snap, strict=False)
        signature = signature_of_trace(trace)
    except Exception:  # noqa: BLE001 — mining is best-effort metadata
        return None
    return signature.render() if signature is not None else None


def assert_signs_like_oracle(snap, mapfiles) -> int:
    """``snap``, and ``snap`` relabelled as a hang, sign as the oracle
    does, with and without a recovery handed in.  Returns how many
    recovered thread spans the snap holds."""
    spans = len(recover_spans_salvage(snap.buffers).spans)
    for variant in (snap, dataclasses.replace(snap, reason="hang")):
        expected = oracle_signature(variant, mapfiles)
        recovered = recover_spans_salvage(variant.buffers)
        assert snap_signature(variant, mapfiles) == expected
        assert snap_signature(variant, mapfiles, recovered) == expected
    return spans


def crasher(seed: int):
    reset_runtime_ids()
    session = TraceSession(
        process_name=f"rnd{seed}",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        ),
    )
    session.add_minic(random_crasher(seed), name="rnd", file_name="rnd.c")
    run = session.run(max_cycles=30_000_000)
    assert run.snap is not None
    return run.snap, run.mapfiles


def check_crashers(seeds) -> None:
    spans = [assert_signs_like_oracle(*crasher(seed)) for seed in seeds]
    # The sweep has to exercise the faulting-span choice.
    assert max(spans) > 1


#: Three workers each catch a DIVIDE_BY_ZERO of their own; then main
#: faults unhandled.
CATCHER = """
int work(int wid) {
    int i;
    int e;
    int acc;
    acc = 0;
    for (i = 0; i < 6; i = i + 1) {
        try {
            acc = acc + 100 / (i - wid - 1);
        } catch (e) {
            acc = acc + 1;
        }
        sleep(300);
    }
    return acc;
}
int main() {
    int t;
    for (t = 0; t < 3; t = t + 1) {
        thread_create(work, t);
    }
    sleep(20000);
    return 10 / (t - 3);
}
"""


def catcher_snap(max_cycles: int):
    """The catcher's snap: its fault, or a hang snap at ``max_cycles``."""
    reset_runtime_ids()
    session = TraceSession(
        process_name="catcher",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        ),
    )
    session.add_minic(CATCHER, name="app", file_name="app.c")
    run = session.run(max_cycles=max_cycles)
    snap = run.snap or session.runtime.snap_external(reason="hang")
    return snap, run.mapfiles


def test_thread_choice_signs_like_oracle():
    shapes = set()
    for cut in [*range(200, 4000, 200), 30_000_000]:
        snap, mapfiles = catcher_snap(cut)
        spans = recover_spans_salvage(snap.buffers).spans
        raising = sum(
            any(
                isinstance(r, ExtRecord) and r.kind == ExtKind.EXCEPTION
                for r in span.records
            )
            for span in spans
        )
        shapes.add((len(spans) > 1, min(raising, 2)))
        assert_signs_like_oracle(snap, mapfiles)
    # Several spans with no EXCEPTION record, with one, and with more.
    assert {(True, 0), (True, 1), (True, 2)} <= shapes


@pytest.fixture(scope="module")
def base():
    snaps, mapfiles, _ = build_base()
    return snaps, mapfiles


def check_fuzz(base, seeds) -> None:
    snaps, mapfiles = base
    for seed in seeds:
        damaged, _notes = _damage_snaps(snaps, random.Random(seed))
        for snap in damaged:
            if snap is not None:
                assert_signs_like_oracle(snap, mapfiles)


def check_scenario(name: str, seed: int) -> None:
    result = run_scenario(name, seed)
    for snap in result.snaps:
        if snap is not None:
            assert_signs_like_oracle(snap, result.mapfiles)


# ----------------------------------------------------------------------
# Default lane: seed subsets
# ----------------------------------------------------------------------
def test_crashers_sign_like_oracle_fast():
    check_crashers(range(6))


def test_chaos_fuzz_signs_like_oracle_fast(base):
    check_fuzz(base, range(25))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_signs_like_oracle_fast(name):
    check_scenario(name, 0)


# ----------------------------------------------------------------------
# Slow lane: crashers 0-61, fuzz seeds 0-299, every scenario at 0-2
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_crashers_sign_like_oracle():
    check_crashers(range(62))


@pytest.mark.slow
def test_chaos_fuzz_signs_like_oracle(base):
    check_fuzz(base, range(300))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_signs_like_oracle(name, seed):
    check_scenario(name, seed)
