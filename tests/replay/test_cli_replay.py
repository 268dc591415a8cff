"""``tbtrace replay``: the time-travel debugger front end."""

import pytest

from repro.tools.tb import main


def _fault_pc(workqueue_run) -> int:
    return workqueue_run.process.fault.pc


# ----------------------------------------------------------------------
# One-shot modes
# ----------------------------------------------------------------------
def test_replay_runs_to_the_fault(replay_vault, capsys):
    vault, digest = replay_vault
    assert main(["replay", digest[:8], "--vault", vault.root]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"replaying {digest[:12]}:")
    assert "(replayable: full)" in out
    assert "stopped: fault" in out
    assert "server.process (server.c:" in out
    assert "backtrace:" in out and "threads:" in out


def test_replay_remote_fetches_over_the_wire(replay_vault, capsys):
    vault, digest = replay_vault
    assert main(
        ["replay", digest[:8], "--vault", vault.root, "--remote"]
    ) == 0
    assert "stopped: fault" in capsys.readouterr().out


def test_replay_step_budget(replay_vault, capsys):
    vault, digest = replay_vault
    assert main(
        ["replay", digest[:8], "--vault", vault.root, "--step", "100"]
    ) == 0
    assert "stopped: step" in capsys.readouterr().out


def test_replay_breakpoint(replay_vault, workqueue_run, capsys):
    vault, digest = replay_vault
    assert main([
        "replay", digest[:8], "--vault", vault.root,
        "--break", hex(_fault_pc(workqueue_run)),
    ]) == 0
    assert "stopped: breakpoint" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Resolution failures
# ----------------------------------------------------------------------
def test_replay_unknown_digest_fails(replay_vault, capsys):
    vault, _digest = replay_vault
    assert main(["replay", "feedbeef", "--vault", vault.root]) == 1
    assert "no stored snap matches" in capsys.readouterr().err


def test_replay_legacy_snap_fails_typed(tmp_path, workqueue_run, capsys):
    from repro.fleet import SnapVault
    from repro.runtime.snap import SnapFile

    d = workqueue_run.snap.to_dict()
    d.pop("replay")
    vault = SnapVault(str(tmp_path / "legacy"))
    result = vault.put(SnapFile.from_dict(d))
    assert main(
        ["replay", result.digest[:8], "--vault", vault.root]
    ) == 1
    err = capsys.readouterr().err
    assert "cannot replay" in err and "nondeterminism log" in err


@pytest.mark.parametrize("segment", ["format", "header.pid"])
def test_replay_unreadable_log_fails_in_one_line(
    tmp_path, unreadable_snaps, segment, capsys
):
    from repro.fleet import SnapVault

    vault = SnapVault(str(tmp_path / "unreadable"))
    result = vault.put(unreadable_snaps[segment])
    assert main(["replay", result.digest[:8], "--vault", vault.root]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"tbtrace: error: cannot replay {result.digest[:12]}")
    assert segment in err


# ----------------------------------------------------------------------
# Interactive loop
# ----------------------------------------------------------------------
def test_replay_interactive_session(replay_vault, workqueue_run,
                                    monkeypatch, capsys):
    vault, digest = replay_vault
    fault_pc = _fault_pc(workqueue_run)
    script = iter([
        "help-nonsense",
        f"break {fault_pc:#x}",
        "continue",
        "regs",
        "bt",
        "mem 0x1000 4",
        "threads",
        "info",
        f"unbreak {fault_pc:#x}",
        "run",
        "quit",
    ])
    monkeypatch.setattr(
        "builtins.input", lambda prompt="": next(script)
    )
    assert main(
        ["replay", digest[:8], "--vault", vault.root, "-i"]
    ) == 0
    out = capsys.readouterr().out
    assert "commands:" in out
    assert "unknown command 'help-nonsense'" in out
    assert f"breakpoint at pc {fault_pc:#x}" in out
    assert "stopped: breakpoint" in out
    assert "tid " in out and "r0 :" in out
    assert "0x1000:" in out
    assert "breakpoints: " in out
    assert "stopped: fault" in out


def test_replay_interactive_eof_exits_cleanly(replay_vault, monkeypatch,
                                              capsys):
    vault, digest = replay_vault

    def _eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", _eof)
    assert main(
        ["replay", digest[:8], "--vault", vault.root, "-i"]
    ) == 0


# ----------------------------------------------------------------------
# Replayability surfaced by `info`
# ----------------------------------------------------------------------
def test_info_reports_replayable_full(tmp_path, workqueue_run, capsys):
    from repro.runtime.archive import compress_snap

    path = tmp_path / "crash.tbsz"
    path.write_bytes(compress_snap(workqueue_run.snap))
    assert main(["info", str(path)]) == 0
    assert "replayable: full" in capsys.readouterr().out


def test_info_reports_legacy_none(tmp_path, workqueue_run, capsys):
    from repro.runtime.archive import compress_snap
    from repro.runtime.snap import SnapFile

    d = workqueue_run.snap.to_dict()
    d.pop("replay")
    path = tmp_path / "legacy.tbsz"
    path.write_bytes(compress_snap(SnapFile.from_dict(d)))
    assert main(["info", str(path)]) == 0
    assert "replayable: none" in capsys.readouterr().out
