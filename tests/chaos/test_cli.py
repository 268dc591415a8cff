"""``tbtrace view`` on damaged artifacts: diagnosis, not tracebacks."""

import json
import random

import pytest

from repro.chaos.inject import clobber_header, copy_snap
from repro.chaos.scenarios import build_base
from repro.runtime.archive import compress_snap
from repro.tools.tb import main

CRASHY = """
int div_by(int d) {
    return 100 / d;
}
int main() {
    print_int(div_by(0));
    return 0;
}
"""


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    source = tmp / "crashy.c"
    source.write_text(CRASHY)
    snap = tmp / "crash.json"
    mapfile = tmp / "app.map.json"
    main(["run", str(source), "--save-snap", str(snap),
          "--save-mapfile", str(mapfile)])
    return tmp, snap, mapfile


def test_view_missing_snap_one_line_error(artifacts, capsys):
    tmp, _, mapfile = artifacts
    rc = main(["view", str(tmp / "nope.json"), str(mapfile)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("tbtrace: error: cannot load snap")
    assert "Traceback" not in captured.err


def test_view_malformed_json_one_line_error(artifacts, capsys):
    tmp, _, mapfile = artifacts
    bad = tmp / "malformed.json"
    bad.write_text(json.dumps({"not": "a snap"}))
    rc = main(["view", str(bad), str(mapfile)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "tbtrace: error:" in captured.err
    assert captured.err.count("\n") == 1  # exactly one line


def test_view_damaged_snap_suggests_salvage(artifacts, capsys):
    tmp, snap, mapfile = artifacts
    from repro.runtime.snap import SnapFile

    damaged = SnapFile.load(str(snap))
    clobber_header(damaged, random.Random(0))
    bad = tmp / "damaged.json"
    damaged.save(str(bad))
    rc = main(["view", str(bad), str(mapfile)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "re-run with --salvage" in captured.err


def test_view_damaged_snap_salvage_recovers(artifacts, capsys):
    tmp, _, mapfile = artifacts
    rc = main(["view", str(tmp / "damaged.json"), str(mapfile),
               "--salvage"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "degradation:" in captured.out


def test_view_torn_archive_strict_vs_salvage(capsys, tmp_path):
    snaps, mapfiles, _ = build_base()
    mapfile = tmp_path / "frontend.map.json"
    mapfiles[1].save(str(mapfile))
    data = compress_snap(copy_snap(snaps[1]))
    torn = data[: int(len(data) * 0.9)]  # late tear: body recoverable
    archive = tmp_path / "torn.tbsz"
    archive.write_bytes(torn)

    rc = main(["view", str(archive), str(mapfile)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "tbtrace: error:" in captured.err

    rc = main(["view", str(archive), str(mapfile), "--salvage"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "note:" in captured.out


def test_view_used_shared_buffer_is_a_note_not_a_loss(artifacts, capsys):
    """A used shared (desperation) buffer is unreadable by design, not
    damaged: plain ``view`` notes it, and ``--salvage`` notes it too
    without counting a loss."""
    from repro.runtime import BufferFlags
    from repro.runtime.buffers import HEADER_WORDS
    from repro.runtime.snap import BufferDump, SnapFile

    tmp, snap, mapfile = artifacts
    shared = SnapFile.load(str(snap))
    index = 1 + max(b.index for b in shared.buffers if b.index < 0xFF00)
    shared.buffers.append(
        BufferDump(
            index=index,
            flags=BufferFlags.SHARED,
            base=0,
            sub_count=1,
            sub_size=4,
            owner_tid=None,
            words=[0] * HEADER_WORDS + [1, 0, 0, 0],
        )
    )
    path = tmp / "shared.json"
    shared.save(str(path))
    for salvage in ([], ["--salvage"]):
        assert main(["view", str(path), str(mapfile), *salvage]) == 0
        out = capsys.readouterr().out
        assert f"note: buffer {index}: shared (desperation)" in out
    assert "degradation: full (no losses)" in out


@pytest.mark.parametrize("damage", ["malformed-thread", "non-word"])
def test_view_salvages_a_damaged_json_snap(artifacts, capsys, damage):
    """``--salvage`` reads JSON snaps tolerantly too: a malformed thread
    entry or a buffer word that is not a 32-bit word becomes a note,
    where plain ``view`` refuses the snap in one line."""
    tmp, snap, mapfile = artifacts
    doc = json.loads(snap.read_text())
    if damage == "malformed-thread":
        doc["threads"][0] = {"tid": 1}
        expected = "note: thread entry 0: malformed metadata dropped"
    else:
        buffer = next(b for b in doc["buffers"] if b["flags"] == 0)
        buffer["words"][20] = "x"
        expected = f"note: buffer {buffer['index']}: 1 of "
    bad = tmp / f"{damage}.json"
    bad.write_text(json.dumps(doc))

    rc = main(["view", str(bad), str(mapfile)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("tbtrace: error: cannot load snap")
    assert captured.err.count("\n") == 1

    rc = main(["view", str(bad), str(mapfile), "--salvage"])
    captured = capsys.readouterr()
    assert rc == 0
    assert expected in captured.out


def _container(tmp_path, name: str, mutate) -> str:
    """The crash snap of :func:`artifacts` as a ``TBSZ2`` container
    whose metadata header went through ``mutate``."""
    import struct
    import zlib

    from repro.runtime.archive import MAGIC

    body = zlib.decompress(compress_snap(build_base()[0][0])[len(MAGIC) + 4 :])
    (size,) = struct.unpack("<I", body[:4])
    header = json.dumps(mutate(json.loads(body[4 : 4 + size]))).encode()
    body = struct.pack("<I", len(header)) + header + body[4 + size :]
    path = tmp_path / name
    path.write_bytes(MAGIC + struct.pack("<I", len(body)) + zlib.compress(body))
    return str(path)


def _without_pid(header: dict) -> dict:
    del header["pid"]
    return header


def test_view_names_a_missing_metadata_field(tmp_path, capsys):
    """A container without ``pid``: strict ``view`` refuses it in one
    line naming the field; ``--salvage`` reconstructs it on the gaps
    rung, naming the field as a loss."""
    snaps, mapfiles, _ = build_base()
    mapfile = tmp_path / "client.map.json"
    mapfiles[0].save(str(mapfile))
    archive = _container(tmp_path, "no-pid.tbsz", _without_pid)

    assert main(["view", archive, str(mapfile)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"tbtrace: error: cannot load snap {archive}: "
        "snap metadata missing 'pid'\n"
    )

    assert main(["view", archive, str(mapfile), "--salvage"]) == 0
    out = capsys.readouterr().out
    assert "degradation: gaps\n  snap metadata missing 'pid'\n" in out


def test_a_non_object_header_fails_in_one_line(tmp_path, capsys):
    """``info`` and ``view --salvage`` on a container whose header is a
    JSON list: exit 1, the loss named once, no traceback."""
    archive = _container(tmp_path, "list.tbsz", lambda header: [header])

    assert main(["info", archive]) == 1
    captured = capsys.readouterr()
    problems = [
        line for line in captured.out.splitlines() if "problem:" in line
    ]
    assert problems == ["  problem: metadata header is a list, not an object"]
    assert "Traceback" not in captured.err

    assert main(["view", archive, "nope.map.json", "--salvage"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"tbtrace: error: cannot load snap {archive}: "
        "metadata header is a list, not an object\n"
    )
