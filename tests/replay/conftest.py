"""Shared fixtures: one recorded crash, reused across the replay suite.

The workqueue example (three workers, job #7 crashes one of them) is
the canonical replay subject: multithreaded, lock-contended, and its
snap-at-fault carries a full ``tb-ndlog``.  Recording it once per
session keeps the suite fast; every consumer treats the snap as
read-only (damage tests copy first).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import TraceSession
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.snap import SnapFile
from repro.runtime.sync import reset_runtime_ids

_REPO = Path(__file__).resolve().parents[2]


def load_example(name: str):
    """Import an ``examples/`` module fresh (they are not a package)."""
    spec = importlib.util.spec_from_file_location(
        f"replay_example_{name}", _REPO / "examples" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_workqueue():
    """Run the workqueue example with replay recording on."""
    example = load_example("multithreaded_crash")
    reset_runtime_ids()
    session = TraceSession(
        process_name="workqueue",
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled"),
            main_buffers=4,
            max_buffers=6,
            record_replay=True,
        ),
    )
    session.add_minic(example.SERVER, name="server", file_name="server.c")
    return session.run(max_cycles=20_000_000)


@pytest.fixture(scope="session")
def workqueue_run():
    run = record_workqueue()
    assert run.snap is not None and run.snap.replayable == "full"
    return run


@pytest.fixture(scope="session")
def replay_vault(tmp_path_factory, workqueue_run):
    """A vault holding the recorded workqueue snap and its mapfiles."""
    from repro.fleet import SnapVault

    vault = SnapVault(str(tmp_path_factory.mktemp("replay-vault") / "vault"))
    # Mapfiles first: signature mining at put-time needs them.
    for mapfile in workqueue_run.mapfiles:
        vault.put_mapfile(mapfile)
    result = vault.put(workqueue_run.snap)
    vault.flush_index()
    return vault, result.digest


@pytest.fixture(scope="session")
def unreadable_snaps(workqueue_run) -> dict:
    """Copies of the recorded snap whose logs replay must refuse, keyed
    by the segment it names: ``format`` carries the retired
    ``tb-ndlog/1`` (the recorder's raw stream under that tag, as the
    old writer embedded it), ``header.pid`` a log whose pid is a
    string."""
    raw = workqueue_run.runtime.recorder.to_dict(version=1)
    mistyped = json.loads(json.dumps(workqueue_run.snap.replay["ndlog"]))
    mistyped["header"]["pid"] = "x"
    snaps = {}
    for segment, ndlog in (
        ("format", {"format": "tb-ndlog/1", **raw}),
        ("header.pid", mistyped),
    ):
        d = workqueue_run.snap.to_dict()
        d["replay"] = {**d["replay"], "ndlog": ndlog}
        snaps[segment] = SnapFile.from_dict(d)
    return snaps
