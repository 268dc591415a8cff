"""``tbtrace`` vault commands: one code path, local or over the wire.

``query`` / ``incidents`` / ``top`` / ``replay`` each build one
federated query from their ``--vault`` roots.  A single vault must print
the same text and JSON whether it is opened in place or served over the
wire protocol with ``--remote``; several vaults are one federation whose
cross-vault incident reconstructs and whose canonical answers equal one
merged vault's; and no read-only command may create a vault.
"""

import glob
import json
import os
import shutil

import pytest

from repro.chaos.scenarios import build_federated_fleet, build_vault_run
from repro.fleet import (
    CrashBucket,
    SnapVault,
    VaultEntry,
    VaultQuery,
    canonical_buckets,
    canonical_entries,
    canonical_incidents,
)
from repro.tools.tb import main


@pytest.fixture(scope="module")
def demo_vault(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-vaults") / "vault")
    vault, collector, session = build_vault_run(vault_root=root)
    session.network.run()
    collector.drain()
    return root


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """The east/west fleet (one incident split across two vaults) and
    the merged vault holding every region's snaps."""
    base = tmp_path_factory.mktemp("cli-fleet")
    roots = {
        "vault-east": str(base / "east"),
        "vault-west": str(base / "west"),
    }
    vaults, session = build_federated_fleet(roots)
    merged = SnapVault(str(base / "merged"), shards=4)
    for mapfile in session.mapfiles:
        merged.put_mapfile(mapfile)
    for vault in vaults.values():
        for entry in vault.select():
            snap, _ = vault.load(entry.digest)
            merged.put(snap)
    return list(roots.values()), VaultQuery(merged)


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def vault_flags(roots) -> list[str]:
    return [flag for root in roots for flag in ("--vault", root)]


# ----------------------------------------------------------------------
# One vault: local and --remote print the same thing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "command",
    [
        ["query"],
        ["query", "--json"],
        ["query", "--machine", "machine-b"],
        ["incidents", "--list"],
        ["incidents", "--json"],
        ["incidents"],
        ["top"],
        ["top", "--json"],
    ],
    ids=" ".join,
)
def test_remote_prints_what_local_prints(demo_vault, capsys, command):
    local = run(capsys, *command, "--vault", demo_vault)
    assert local.strip()
    assert run(capsys, *command, "--vault", demo_vault, "--remote") == local


def test_query_show_over_the_wire(demo_vault, capsys):
    entry = SnapVault(demo_vault).select(machine="machine-a")[0]
    argv = ["query", "--vault", demo_vault, "--show", entry.digest[:10]]
    local = run(capsys, *argv)
    assert f"snap: {entry.reason} in client on machine-a" in local
    assert run(capsys, *argv, "--remote") == local


def test_incidents_window_over_the_wire(demo_vault, capsys):
    argv = ["incidents", "--vault", demo_vault, "--window", "1", "--list"]
    local = run(capsys, *argv)
    assert "incident #0:" in local
    assert run(capsys, *argv, "--remote") == local


@pytest.mark.parametrize("wire", [[], ["--remote"]], ids=["local", "remote"])
def test_negative_window_is_refused(demo_vault, capsys, wire):
    """A negative window fails every edge's seq-distance test, so it
    would list the three-machine incident as singletons; local and
    served vaults refuse it with the same line."""
    assert "1 incident(s)" in run(
        capsys, "incidents", "--vault", demo_vault, *wire, "--list"
    )
    argv = ["incidents", "--vault", demo_vault, *wire, "--window", "-1", "--list"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window must not be negative, got -1" in captured.err


def test_negative_window_is_refused_by_the_library(demo_vault):
    """Library callers meet the same refusal: the index, a vault's link
    window, a listing's window and the wire's window argument."""
    from repro.fleet.index import IncidentIndex
    from repro.fleet.remote import PROTOCOL, VaultService

    message = "window must not be negative, got -3"
    with pytest.raises(ValueError, match=message):
        IncidentIndex(window=-3)
    with pytest.raises(ValueError, match=message):
        VaultQuery(SnapVault(demo_vault)).incidents(window=-3)
    with pytest.raises(ValueError, match=message):
        SnapVault(demo_vault, link_window=-3)
    reply = VaultService(SnapVault(demo_vault)).handle(
        {"proto": PROTOCOL, "op": "incidents", "args": {"window": -3}}
    )
    assert not reply["ok"] and message in reply["error"]


def test_replay_resolves_through_the_same_path(demo_vault, capsys):
    entry = SnapVault(demo_vault).select(machine="machine-a")[0]
    for wire in ([], ["--remote"]):
        # The demo snaps carry no nondeterminism log: resolving and
        # loading succeed, then replay refuses by name.
        assert main(
            ["replay", entry.digest[:10], "--vault", demo_vault, *wire]
        ) == 1
        err = capsys.readouterr().err
        assert f"cannot replay {entry.digest[:12]}" in err


def test_degraded_incident_prints_one_banner(demo_vault, capsys, tmp_path):
    """A flipped byte in a stored blob degrades the incident; its banner
    leads the rendered trace once."""
    root = str(tmp_path / "vault")
    shutil.copytree(demo_vault, root)
    blob = sorted(glob.glob(os.path.join(root, "shard-*", "*.tbsz")))[0]
    with open(blob, "r+b") as f:
        data = f.read()
        f.seek(len(data) // 2)
        f.write(bytes([data[len(data) // 2] ^ 0x01]))
    out = run(capsys, "incidents", "--vault", root)
    assert out.startswith("1 incident(s)")
    assert out.count("degradation:") == 1
    assert "degradation: full" not in out


# ----------------------------------------------------------------------
# Several vaults: one federation, cross-vault incident reconstructed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wire", [[], ["--remote"]], ids=["local", "remote"])
def test_cross_vault_incident_reconstructs(fleet, capsys, wire):
    roots, merged = fleet
    out = run(capsys, "incidents", *vault_flags(roots), *wire)
    assert out.startswith(f"1 incident(s) in {', '.join(roots)}")
    assert "reconstruction failed" not in out
    for process, machine in (
        ("client", "machine-a"),
        ("frontend", "machine-b"),
        ("backend", "machine-c"),
    ):
        assert f"{process}@{machine}" in out
    assert "federation coverage: full" in out

    lines = run(capsys, "incidents", *vault_flags(roots), *wire, "--json")
    docs = [json.loads(line) for line in lines.splitlines()]
    assert docs.pop()["federation"]["coverage"] == "full"
    assert docs == canonical_incidents(merged.incidents())
    assert docs[0]["machines"] == ["machine-a", "machine-b", "machine-c"]


@pytest.mark.parametrize("wire", [[], ["--remote"]], ids=["local", "remote"])
def test_federated_answers_equal_the_merged_vault(fleet, capsys, wire):
    roots, merged = fleet
    lines = run(capsys, "query", *vault_flags(roots), *wire, "--json")
    docs = [json.loads(line) for line in lines.splitlines()[:-1]]
    entries = [VaultEntry.from_dict(doc) for doc in docs]
    assert canonical_entries(entries) == canonical_entries(merged.select())

    lines = run(capsys, "top", *vault_flags(roots), *wire, "--json")
    docs = [json.loads(line) for line in lines.splitlines()[:-1]]
    buckets = [CrashBucket(**doc) for doc in docs]
    assert canonical_buckets(buckets) == canonical_buckets(merged.top())

    listing = run(capsys, "top", *vault_flags(roots), *wire)
    assert listing.startswith(
        f"1 crash bucket(s) in {', '.join(roots)} (1/3 snap(s) bucketed)"
    )


def test_window_needs_one_vault(fleet, capsys):
    roots, _ = fleet
    assert main(["incidents", *vault_flags(roots), "--window", "1"]) == 1
    assert "--window needs one vault" in capsys.readouterr().err


def test_timeout_needs_remote(demo_vault, capsys):
    assert main(["top", "--vault", demo_vault, "--timeout", "100"]) == 1
    assert "--timeout only applies with --remote" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Read-only commands never create a vault
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "command,many",
    [
        (["query"], True),
        (["incidents"], True),
        (["top"], True),
        (["replay", "abcd"], True),
        (["report"], False),
        (["gc", "--max-age", "1"], False),
        (["serve"], False),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_missing_vault_is_named_not_created(tmp_path, capsys, command, many):
    roots = [str(tmp_path / "typo"), str(tmp_path / "typo2")]
    roots = roots if many else roots[:1]
    assert main([*command, *vault_flags(roots)]) == 1
    err = capsys.readouterr().err
    for root in roots:
        assert root in err
        assert not os.path.exists(root)
