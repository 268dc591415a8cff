"""Snap compression (§2.1's 10x claim) and variable display (§3.6)."""

import json
import struct
import zlib

import pytest

from repro import TraceSession, trace_program
from repro.reconstruct import global_variables, render_variables, variable
from repro.runtime import (
    ArchiveError,
    RuntimeConfig,
    SnapPolicy,
    compress_snap,
    compression_ratio,
    decompress_snap,
    load_compressed,
    salvage_decompress,
    save_compressed,
)
from repro.runtime.archive import MAGIC, inspect_container, pack_words
from repro.workloads import random_crasher

LOOPY = """
int counters[16];
int total = 0;
int main() {
    int i;
    for (i = 0; i < 300; i = i + 1) {
        counters[i % 16] = counters[i % 16] + 1;
        total = total + 1;
    }
    snap(1);
    return 0;
}
"""


def run_with_memory(src: str = LOOPY):
    session = TraceSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on api\ninclude memory on")
        )
    )
    session.add_minic(src, name="app", file_name="app.c")
    return session.run()


# ----------------------------------------------------------------------
# Compression
# ----------------------------------------------------------------------
def test_compress_round_trip():
    run = run_with_memory()
    snap = run.snap
    clone = decompress_snap(compress_snap(snap))
    assert clone.reason == snap.reason
    assert [b.words for b in clone.buffers] == [b.words for b in snap.buffers]
    assert clone.memory == snap.memory
    assert [vars(m) for m in clone.modules] == [vars(m) for m in snap.modules]


def test_compression_hits_paper_factor():
    """Paper §2.1: "readily compressible by a factor of 10 or more"."""
    run = run_with_memory()
    assert compression_ratio(run.snap) > 10.0


def test_compress_does_not_mutate_snap():
    run = run_with_memory()
    before = [list(b.words) for b in run.snap.buffers]
    compress_snap(run.snap)
    compress_snap(run.snap)
    assert [list(b.words) for b in run.snap.buffers] == before


def test_compressed_file_round_trip(tmp_path):
    run = run_with_memory()
    path = tmp_path / "snap.tbz"
    save_compressed(run.snap, str(path))
    clone = load_compressed(str(path))
    assert clone.process_name == run.snap.process_name
    # And it is genuinely smaller than the JSON form.
    json_path = tmp_path / "snap.json"
    run.snap.save(str(json_path))
    assert path.stat().st_size < json_path.stat().st_size / 5


def test_decompress_rejects_garbage():
    with pytest.raises(ValueError):
        decompress_snap(b"not a snap")


def _container_body(snap, with_crc: bool) -> bytes:
    """A container body built by hand: the header JSON with one blob
    marker per buffer, then the packed blobs."""
    payload = snap.to_dict()
    blobs: list[bytes] = []
    for buffer in payload["buffers"]:
        blob = pack_words(buffer["words"])
        marker = ["blob", len(blobs), len(blob)]
        buffer["words"] = marker + [zlib.crc32(blob)] if with_crc else marker
        blobs.append(blob)
    header = json.dumps(payload).encode()
    return struct.pack("<I", len(header)) + header + b"".join(blobs)


def test_tbsz1_container_is_refused(tmp_path, capsys):
    """Only checksummed ``TBSZ2`` containers load: a well-formed
    ``TBSZ1`` one (no CRCs, no length word) is refused, by
    ``tbtrace info`` too, in one line."""
    from repro.tools.tb import main

    body = _container_body(run_with_memory().snap, with_crc=False)
    data = b"TBSZ1\n" + zlib.compress(body)
    with pytest.raises(ArchiveError, match="not a compressed snap container"):
        decompress_snap(data)
    assert salvage_decompress(data) == (
        None, ["not a compressed snap container"]
    )
    path = tmp_path / "v1.tbsz"
    path.write_bytes(data)
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a compressed snap container" in err


def test_blob_marker_without_crc_is_damage():
    body = _container_body(run_with_memory().snap, with_crc=False)
    data = b"TBSZ2\n" + struct.pack("<I", len(body)) + zlib.compress(body)
    with pytest.raises(ArchiveError, match="blob marker carries no CRC"):
        decompress_snap(data)
    snap, notes = salvage_decompress(data)
    assert snap is not None and notes
    assert all("blob marker carries no CRC" in note for note in notes)
    info = inspect_container(data)
    assert info["crc_ok"] is False
    assert {blob["crc"] for blob in info["blobs"]} == {"missing"}


def _crasher_container() -> tuple:
    """A ``random_crasher(3)`` snap (six buffers) and its container."""
    session = TraceSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        )
    )
    session.add_minic(random_crasher(3), name="rnd", file_name="rnd.c")
    snap = session.run(max_cycles=30_000_000).snap
    return snap, compress_snap(snap)


def _rewrite_first_marker(data: bytes, position: int, value) -> bytes:
    """``data`` with item ``position`` of its first blob marker set to
    ``value``, repacked with a matching length word."""
    body = zlib.decompress(data[len(MAGIC) + 4 :])
    (header_len,) = struct.unpack_from("<I", body)
    header = json.loads(body[4 : 4 + header_len])
    header["buffers"][0]["words"][position] = value
    raw = json.dumps(header).encode()
    body = struct.pack("<I", len(raw)) + raw + body[4 + header_len :]
    return MAGIC + struct.pack("<I", len(body)) + zlib.compress(body)


def test_damaged_marker_tag_is_one_note_and_shifts_no_blob():
    """Every buffer entry carries a marker, so a marker whose only
    damage is its tag is named once and the walk goes on by its size:
    every later CRC passes and every word comes back."""
    snap, data = _crasher_container()
    bad = _rewrite_first_marker(data, 0, "bnob")
    note = f"buffer {snap.buffers[0].index}: blob marker tag 'bnob' is not 'blob'"
    recovered, notes = salvage_decompress(bad)
    assert notes == [note]
    assert [b.words for b in recovered.buffers] == [
        b.words for b in snap.buffers
    ]
    info = inspect_container(bad)
    assert info["crc_ok"] is True
    assert [blob["crc"] for blob in info["blobs"]] == ["ok"] * 6
    with pytest.raises(ArchiveError) as excinfo:
        decompress_snap(bad)
    assert str(excinfo.value) == note


def test_unsized_marker_stops_the_walk_and_no_marker_becomes_words():
    """A marker without a byte-count size is the walk's one note: the
    entries it did not reach keep their metadata and no words."""
    snap, data = _crasher_container()
    recovered, notes = salvage_decompress(_rewrite_first_marker(data, 2, "72"))
    assert notes == [
        f"buffer {snap.buffers[0].index}: blob marker size '72' is not a "
        "byte count; no later blob can be located"
    ]
    assert [b.index for b in recovered.buffers] == [
        b.index for b in snap.buffers
    ]
    assert all(b.words == [] for b in recovered.buffers)


# ----------------------------------------------------------------------
# Variables
# ----------------------------------------------------------------------
def test_globals_resolved_with_values():
    run = run_with_memory()
    names = {v.name for v in global_variables(run.snap, run.mapfiles)}
    assert {"counters", "total"} <= names
    total = variable(run.snap, run.mapfiles, "total")
    assert total.scalar == 300
    counters = variable(run.snap, run.mapfiles, "counters")
    assert sum(counters.values) == 300


def test_corrupted_neighbour_visible():
    """The Fidelity diagnosis: the overwritten neighbour's value is in
    the snap's variable pane."""
    from repro.workloads.scenarios import FIDELITY_C

    session = TraceSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled\ninclude memory on")
        )
    )
    session.add_minic(FIDELITY_C, name="fidelity", file_name="feed.c")
    run = session.run()
    neighbor = variable(run.snap, run.mapfiles, "neighbor")
    # Initialized {1000, 2000, 3000, 4000}; the overrun stomped the
    # first two entries with small loop values.
    assert neighbor.values[0] < 1000
    assert neighbor.values[2:] == [3000, 4000]


def test_variables_without_memory_dump():
    run = trace_program(LOOPY.replace("snap(1);", "snap(1); //"))
    # Default policy has no memory dump: values report as absent.
    values = global_variables(run.snap, run.mapfiles)
    assert values  # symbols still resolve...
    assert all(v.values is None for v in values)  # ...but without data


def test_render_variables_text():
    run = run_with_memory()
    text = render_variables(run.snap, run.mapfiles)
    assert "app.total = 300" in text
    assert "app.counters[16]" in text


def test_string_literals_excluded():
    run = run_with_memory(
        'int g = 1;\nint main() { print_str("hi"); snap(1); return 0; }'
    )
    names = {v.name for v in global_variables(run.snap, run.mapfiles)}
    assert "g" in names
    assert not any(n.startswith("__str_") for n in names)
