"""One table of snap-metadata damage, read by every decoder.

Each row damages one field (or one header shape) of a snap's metadata.
Strict readers refuse it with a typed error naming the field
(``SnapFile.from_dict`` with :class:`SnapMetadataError`,
``decompress_snap`` with :class:`ArchiveError`); the salvage readers
(``SnapFile.from_dict_salvage``, ``salvage_decompress``) note the same
loss, and ``inspect_container`` lists exactly salvage's notes.
"""

import json
import struct
import zlib

import pytest

from repro.runtime import (
    ArchiveError,
    BufferDump,
    ModuleDump,
    SnapFile,
    SnapMetadataError,
    ThreadDump,
)
from repro.runtime.archive import (
    MAGIC,
    decompress_snap,
    inspect_container,
    pack_words,
    salvage_decompress,
)
from repro.runtime.buffers import HEADER_WORDS
from repro.runtime.buffers import MAGIC as BUFFER_MAGIC


def clean_snap() -> SnapFile:
    words = [BUFFER_MAGIC] + [0] * (HEADER_WORDS - 1) + [0] * 8
    return SnapFile(
        reason="api",
        detail={"code": 1},
        process_name="p",
        pid=7,
        machine_name="m",
        clock=5,
        modules=[ModuleDump("app", "c0ffee", 0, 0, 4, 0x1000, True)],
        buffers=[
            BufferDump(0, 0, 0x2000, 2, 4, 1, list(words)),
            BufferDump(1, 0, 0x3000, 2, 4, None, list(words)),
        ],
        threads=[ThreadDump(1, "main", "running", 0x1004, 0x2000, None)],
        memory={"data": (0x4000, [1, 2, 3])},
        replay={"seed": {"pid": 7}},
    )


def container(mutate) -> bytes:
    """``clean_snap()`` packed as a ``TBSZ2`` container, its header JSON
    passed through ``mutate`` after the blob markers are in place."""
    header = clean_snap().to_dict()
    blobs = []
    for buffer in header["buffers"]:
        blob = pack_words(buffer["words"])
        buffer["words"] = ["blob", len(blobs), len(blob), zlib.crc32(blob)]
        blobs.append(blob)
    header = mutate(header)
    raw = json.dumps(header).encode()
    body = struct.pack("<I", len(raw)) + raw + b"".join(blobs)
    return MAGIC + struct.pack("<I", len(body)) + zlib.compress(body)


def drop(*path):
    def mutate(doc):
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        del target[key]
        return doc

    return mutate


def put(value, *path):
    def mutate(doc):
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        return doc

    return mutate


TOP_LEVEL = (
    "reason", "detail", "process_name", "pid", "machine_name", "clock",
    "modules", "buffers", "threads", "memory",
)
#: A wrong-typed value per top-level field (``replay`` may be absent,
#: not wrongly typed).
WRONG = {
    "reason": 3, "detail": [], "process_name": 4, "pid": "7",
    "machine_name": None, "clock": "5", "modules": {}, "buffers": "b",
    "threads": 1, "memory": [], "replay": [],
}
MODULE_REQUIRED = (
    "name", "checksum", "dag_base_default", "dag_base_actual", "dag_count",
    "code_base", "loaded",
)
BUFFER_FIELDS = (
    "index", "flags", "base", "sub_count", "sub_size", "owner_tid", "words",
)
THREAD_FIELDS = ("tid", "name", "state", "pc", "trace_ptr", "block_reason")

#: id -> (mutation, text every reader's note or error must contain).
METADATA_ROWS = {
    **{f"missing-{k}": (drop(k), f"snap metadata missing {k!r}") for k in TOP_LEVEL},
    **{
        f"wrong-{k}": (put(v, k), f"snap metadata {k!r} is {type(v).__name__}")
        for k, v in WRONG.items()
    },
    **{
        f"module-{k}": (drop("modules", 0, k), f"module entry 0: malformed "
                        f"metadata dropped (missing {k!r})")
        for k in MODULE_REQUIRED
    },
    **{
        f"buffer-{k}": (drop("buffers", 1, k), f"buffer entry 1: malformed "
                        f"metadata dropped (missing {k!r})")
        for k in BUFFER_FIELDS
    },
    **{
        f"thread-{k}": (drop("threads", 0, k), f"thread entry 0: malformed "
                        f"metadata dropped (missing {k!r})")
        for k in THREAD_FIELDS
    },
    "module-not-object": (put(5, "modules", 0), "module entry 0: malformed "
                          "metadata dropped (not an object)"),
    "thread-not-object": (put("t", "threads", 0), "thread entry 0: malformed "
                          "metadata dropped (not an object)"),
    "module-wrong-field": (put("x", "modules", 0, "dag_count"),
                           "module entry 0: malformed metadata dropped "
                           "('dag_count' is str, not int)"),
    "thread-unknown-field": (put(1, "threads", 0, "colour"),
                             "thread entry 0: malformed metadata dropped "
                             "(unknown field 'colour')"),
    "memory-segment": (put([1], "memory", "data"),
                       "memory segment 'data': malformed, dropped"),
}

#: Header shapes the container walk must check before it locates blobs.
HEADER_ROWS = {
    "header-not-object": (lambda doc: [doc],
                          "metadata header is a list, not an object"),
    "buffers-not-a-list": (put({"0": 1}, "buffers"),
                           "snap metadata 'buffers' is dict"),
    "buffer-entry-not-object": (put(7, "buffers", 0),
                                "buffer entry 0 is not an object; no later "
                                "blob can be located"),
    "blob-size-not-int": (put(["blob", 0, "72", 0], "buffers", 0, "words"),
                          "buffer 0: blob marker size '72' is not a byte "
                          "count; no later blob can be located"),
}


def test_the_clean_snap_reads_without_a_note():
    doc = clean_snap().to_dict()
    assert SnapFile.from_dict_salvage(doc)[1] == []
    assert SnapFile.from_dict(doc).to_dict() == doc
    data = container(lambda header: header)
    assert salvage_decompress(data)[1] == []
    assert decompress_snap(data).to_dict() == doc
    assert inspect_container(data)["problems"] == []


@pytest.mark.parametrize("row", sorted(METADATA_ROWS))
def test_metadata_damage_is_named_by_every_decoder(row):
    mutate, text = METADATA_ROWS[row]
    doc = mutate(clean_snap().to_dict())
    with pytest.raises(SnapMetadataError) as excinfo:
        SnapFile.from_dict(doc)
    assert text in str(excinfo.value)
    snap, notes = SnapFile.from_dict_salvage(doc)
    assert str(excinfo.value) == notes[0]
    assert any(text in note for note in notes)
    check_container(container(mutate), text)


@pytest.mark.parametrize("row", sorted(HEADER_ROWS))
def test_header_shapes_are_losses(row):
    mutate, text = HEADER_ROWS[row]
    check_container(container(mutate), text)


def check_container(data: bytes, text: str) -> None:
    snap, notes = salvage_decompress(data)
    assert any(text in note for note in notes), notes
    with pytest.raises(ArchiveError) as excinfo:
        decompress_snap(data)
    assert str(excinfo.value) == notes[0]
    assert text in str(excinfo.value)
    assert inspect_container(data)["problems"] == notes


def test_a_non_object_header_recovers_nothing():
    data = container(lambda doc: [doc])
    assert salvage_decompress(data) == (
        None, ["metadata header is a list, not an object"]
    )
    info = inspect_container(data)
    assert info["meta"] is None and info["crc_ok"] is None


def test_salvage_keeps_what_a_stand_in_replaces():
    """A wrongly typed top-level field takes its stand-in; the rest of
    the snap survives, every buffer included."""
    doc = put("7", "pid")(put(4, "process_name")(clean_snap().to_dict()))
    snap, notes = SnapFile.from_dict_salvage(doc)
    assert notes == [
        "snap metadata 'process_name' is int, not str",
        "snap metadata 'pid' is str, not int",
    ]
    assert (snap.process_name, snap.pid) == ("<unknown>", -1)
    assert [b.words for b in snap.buffers] == [
        b.words for b in clean_snap().buffers
    ]


def test_optional_fields_may_be_absent():
    """``replay`` and a module's section bases have defaults: absent,
    they are no loss."""
    doc = clean_snap().to_dict()
    del doc["replay"]
    del doc["modules"][0]["data_base"]
    del doc["modules"][0]["rodata_base"]
    snap = SnapFile.from_dict(doc)
    assert snap.replay == {}
    assert (snap.modules[0].data_base, snap.modules[0].rodata_base) == (-1, -1)


def test_clean_word_lists_are_not_copied():
    doc = clean_snap().to_dict()
    snap = SnapFile.from_dict(doc)
    assert snap.buffers[0].words is doc["buffers"][0]["words"]
