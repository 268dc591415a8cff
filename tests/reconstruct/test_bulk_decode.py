"""The bulk (vectorized) resync scan is output-identical to its scalar
reference on every input class: clean streams, every record shape,
damaged words, zeroed holes, truncation, and fuzzed buffers.

The scalar reference in :mod:`repro.runtime.records` states the scan's
rules; the bulk form exists purely for throughput
(``bench_interpreter.py``'s decode section holds it to >=3x), so any
divergence is a bug in the bulk path by definition.  Values that are
not 32-bit words never reach either: loading a snap stops them.
"""

from __future__ import annotations

import random

import pytest

from repro.runtime.records import (
    INVALID,
    SENTINEL,
    DagRecord,
    ExtKind,
    ExtRecord,
    read_forward_salvage,
    read_forward_salvage_bulk,
)
from repro.runtime.snap import BufferDump, SnapFile


def assert_all_agree(words: list[int]) -> tuple[list, int]:
    """The bulk scan matches its scalar reference on ``words``; returns
    their common ``(records, words_lost)``."""
    end = len(words)
    scanned = read_forward_salvage_bulk(words, 0, end)
    assert scanned == read_forward_salvage(words, 0, end)
    return scanned


def _stream(*records) -> list[int]:
    words: list[int] = []
    for record in records:
        if isinstance(record, DagRecord):
            words.append(record.encode())
        else:
            words.extend(record.encode())
    return words


DAGS = [DagRecord(dag_id=i, path_bits=(i * 7) & 0x7FF) for i in range(1, 40)]
EXTS = [
    ExtRecord(ExtKind.SYNC, 3, (1, 2, 3, 4, 5)),
    ExtRecord(ExtKind.TIMESTAMP, 9, (10, 20)),
    ExtRecord(ExtKind.THREAD_START, 0, (7, 0, 1)),
    ExtRecord(ExtKind.SNAP_MARK, 0),
]


def test_clean_dag_stream():
    assert_all_agree(_stream(*DAGS))


def test_mixed_stream_with_zero_tail():
    words = _stream(DAGS[0], EXTS[0], DAGS[1], EXTS[3], *DAGS[2:10])
    records, lost = assert_all_agree(words + [INVALID] * 6)
    assert len(records) == 12 and lost == 0  # the tail is unwritten space


def test_zeroed_hole_before_data_is_lost():
    """Zeros with written data after them are a hole, not a tail: the
    runtime only leaves zeros at a sub-buffer's end."""
    words = _stream(*DAGS[:3]) + [INVALID] * 8 + _stream(*DAGS[3:6])
    records, lost = assert_all_agree(words + [INVALID] * 4)
    assert records == DAGS[:6] and lost == 8
    assert assert_all_agree([INVALID, *_stream(DAGS[0])]) == ([DAGS[0]], 1)
    # Zeros inside a payload are payload...
    record = EXTS[0].encode()
    record[2:4] = [INVALID, INVALID]
    assert assert_all_agree(record + _stream(DAGS[0]))[1] == 0
    # ...but a zeroed trailer strands the header and its payload.
    record = EXTS[0].encode()
    record[-1] = INVALID
    assert assert_all_agree(record + _stream(DAGS[0])) == ([DAGS[0]], 7)


def test_high_id_dag_records_near_sentinel():
    # High bytes 0xFF: real records the classifier must not mistake for
    # the sentinel.
    words = [
        DagRecord(dag_id=0xFFFFE, path_bits=0x7FF).encode(),
        DagRecord(dag_id=0xFF800, path_bits=0).encode(),
        SENTINEL,
        DagRecord(dag_id=1, path_bits=1).encode(),
    ]
    assert_all_agree(words)


def test_sentinel_inside_span_is_lost():
    words = _stream(*DAGS[:4]) + [SENTINEL] + _stream(*DAGS[4:8])
    assert assert_all_agree(words) == (DAGS[:8], 1)


def test_truncated_ext_record():
    header = ExtRecord(ExtKind.SYNC, 1, (9, 9, 9, 9, 9)).encode()[0]
    words = _stream(*DAGS[:3]) + [header, 9, 9]  # payload cut short
    assert_all_agree(words)


def test_garbage_words_resync():
    words = _stream(*DAGS[:3])
    words += [0x12345678, 0x00000007]  # neither DAG nor ext
    words += _stream(*DAGS[3:6], EXTS[1])
    assert_all_agree(words)


def test_trailer_in_header_position():
    trailer = EXTS[0].encode()[-1]
    words = [trailer] + _stream(*DAGS[:3])
    assert_all_agree(words)


def test_ext_header_with_wrong_trailer():
    words = _stream(DAGS[0])
    bad = list(EXTS[0].encode())
    bad[-1] = EXTS[1].encode()[-1]  # kind/length mismatch
    words += bad + _stream(*DAGS[1:4])
    assert_all_agree(words)


def test_non_word_values_are_refused_at_load():
    """The scan packs its span as 32-bit words and has no fallback:
    loading a snap is where any other value stops (strict) or is zeroed
    in place with a note (salvage), which the scan then counts as a
    lost word.  Both read the one note naming the buffer, the count and
    the first position."""
    for bad in ("x", -5, 1 << 40):
        words = _stream(*DAGS[:3]) + [bad] + _stream(*DAGS[3:5])
        snap = SnapFile(
            reason="api", detail={}, process_name="p", pid=1,
            machine_name="m", clock=0, modules=[], threads=[],
            buffers=[BufferDump(3, 0, 0, 1, len(words) + 1, None, words)],
        )
        d = snap.to_dict()
        note = (
            "buffer 3: 1 of 6 values are not 32-bit words "
            f"(the first is word 3, {bad!r})"
        )
        with pytest.raises(ValueError) as excinfo:
            SnapFile.from_dict(d)
        assert str(excinfo.value) == note
        salvaged, notes = SnapFile.from_dict_salvage(d)
        assert notes == [note]
        zeroed = salvaged.buffers[0].words
        assert zeroed == _stream(*DAGS[:3]) + [INVALID] + _stream(*DAGS[3:5])
        assert assert_all_agree(zeroed) == (DAGS[:5], 1)


def test_empty_and_single_word_spans():
    assert_all_agree([])
    assert_all_agree([INVALID])
    assert_all_agree([SENTINEL])
    assert_all_agree([DAGS[0].encode()])


@pytest.mark.parametrize("seed", range(30))
def test_fuzzed_buffers_agree(seed):
    """Random mixtures of records, garbage, zeros, and torn ext records."""
    rng = random.Random(seed)
    words: list[int] = []
    for _ in range(rng.randrange(1, 120)):
        roll = rng.random()
        if roll < 0.55:
            words.append(
                DagRecord(
                    dag_id=rng.randrange(0, 1 << 20),
                    path_bits=rng.randrange(0, 1 << 11),
                ).encode()
            )
        elif roll < 0.70:
            record = ExtRecord(
                rng.randrange(0, 32),
                rng.randrange(0, 1 << 16),
                tuple(
                    rng.randrange(0, 1 << 32)
                    for _ in range(rng.randrange(0, 6))
                ),
            )
            words.extend(record.encode())
        elif roll < 0.80:
            words.append(rng.randrange(0, 1 << 32))  # raw garbage
        elif roll < 0.90:
            words.extend([INVALID] * rng.randrange(1, 5))
        else:
            # A torn ext record: header plus a slice of its body.
            encoded = ExtRecord(
                rng.randrange(0, 32),
                rng.randrange(0, 1 << 16),
                tuple(rng.randrange(0, 1 << 32) for _ in range(3)),
            ).encode()
            words.extend(encoded[: rng.randrange(1, len(encoded))])
    assert_all_agree(words)
    # Sub-spans exercise boundary clamping.
    lo = rng.randrange(0, len(words))
    hi = rng.randrange(lo, len(words) + 1)
    assert read_forward_salvage_bulk(words, lo, hi) == read_forward_salvage(
        words, lo, hi
    )
