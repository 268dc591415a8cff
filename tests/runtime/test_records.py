"""Trace record format — the exact Figure 1 bit layout."""

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import (
    BAD_DAG_ID,
    INVALID,
    SENTINEL,
    DagRecord,
    ExtKind,
    ExtRecord,
    dag_header_word,
    decode_dag,
    is_dag_word,
    is_ext_header,
    is_ext_trailer,
)
from repro.runtime.records import (
    MAX_DAG_ID,
    PATH_BITS,
    RESERVED_DAG_ID,
    read_forward_salvage_bulk,
)


def test_dag_record_bit_layout():
    """Bit 31 = type, bits 30..11 = DAG id, bits 10..0 = path bits."""
    record = DagRecord(dag_id=0x12345, path_bits=0b101)
    word = record.encode()
    assert word >> 31 == 1
    assert (word >> 11) & 0xFFFFF == 0x12345
    assert word & 0x7FF == 0b101
    assert decode_dag(word) == record


def test_dag_header_word_has_no_path_bits():
    word = dag_header_word(42)
    assert decode_dag(word) == DagRecord(dag_id=42, path_bits=0)


def test_sentinel_is_all_ones_and_reserved():
    assert SENTINEL == 0xFFFFFFFF
    assert not is_dag_word(SENTINEL)
    rec = decode_dag(SENTINEL)
    assert rec.dag_id == RESERVED_DAG_ID  # never allocated


def test_invalid_is_zero():
    assert INVALID == 0
    assert not is_dag_word(INVALID)
    assert not is_ext_header(INVALID)


def test_bad_dag_id_below_reserved():
    assert BAD_DAG_ID == RESERVED_DAG_ID - 1
    assert MAX_DAG_ID < BAD_DAG_ID
    assert DagRecord(dag_id=BAD_DAG_ID, path_bits=0).is_bad


def test_single_word_extended_record():
    record = ExtRecord(kind=ExtKind.TIMESTAMP, inline=7)
    words = record.encode()
    assert len(words) == 1
    assert is_ext_header(words[0])
    assert not is_ext_trailer(words[0])


def test_multi_word_extended_record_has_trailer():
    record = ExtRecord(kind=ExtKind.SYNC, inline=2, payload=(1, 2, 3))
    words = record.encode()
    assert len(words) == 5
    assert is_ext_header(words[0])
    assert is_ext_trailer(words[-1])
    assert record.size == 5


def test_forward_read_stops_at_invalid():
    """Zeros end the history only as the unwritten tail: a zero with a
    record after it is a lost word."""
    words = [DagRecord(1, 0).encode(), DagRecord(2, 0).encode(), 0, 0]
    assert read_forward_salvage_bulk(words, 0, 4) == (
        [DagRecord(1, 0), DagRecord(2, 0)], 0
    )
    words = [DagRecord(1, 0).encode(), 0, DagRecord(2, 0).encode()]
    assert read_forward_salvage_bulk(words, 0, 3) == (
        [DagRecord(1, 0), DagRecord(2, 0)], 1
    )


def test_forward_read_loses_a_sentinel_inside_the_span():
    words = [DagRecord(1, 0).encode(), SENTINEL, DagRecord(2, 0).encode()]
    assert read_forward_salvage_bulk(words, 0, 3) == (
        [DagRecord(1, 0), DagRecord(2, 0)], 1
    )


def test_forward_read_truncated_extended_record():
    full = ExtRecord(kind=ExtKind.SYNC, inline=1, payload=(9, 9, 9)).encode()
    words = [DagRecord(1, 0).encode()] + full[:2]  # header+1 payload word
    assert read_forward_salvage_bulk(words, 0, len(words)) == (
        [DagRecord(1, 0)], 2
    )


def test_payload_can_contain_any_bit_pattern():
    """Payload words that look like sentinels, DAG records or zeroed
    space must not confuse the scan (the trailer exists for this)."""
    tricky = ExtRecord(
        kind=ExtKind.EXCEPTION,
        inline=0,
        payload=(SENTINEL, DagRecord(5, 1).encode(), 0),
    )
    words = [DagRecord(3, 0).encode(), *tricky.encode(), DagRecord(4, 2).encode()]
    assert read_forward_salvage_bulk(words, 0, len(words)) == (
        [DagRecord(3, 0), tricky, DagRecord(4, 2)], 0
    )


@st.composite
def record_stream(draw):
    records = []
    count = draw(st.integers(min_value=0, max_value=12))
    for _ in range(count):
        if draw(st.booleans()):
            records.append(
                DagRecord(
                    dag_id=draw(st.integers(0, MAX_DAG_ID)),
                    path_bits=draw(st.integers(0, (1 << PATH_BITS) - 1)),
                )
            )
        else:
            payload = tuple(
                draw(
                    st.lists(
                        st.integers(0, 0xFFFFFFFF), min_size=0, max_size=5
                    )
                )
            )
            records.append(
                ExtRecord(
                    kind=draw(st.integers(1, 8)),
                    inline=draw(st.integers(0, 0xFFFF)),
                    payload=payload,
                )
            )
    return records


@given(record_stream())
def test_write_then_read_forward_round_trip(records):
    words = []
    for record in records:
        if isinstance(record, DagRecord):
            words.append(record.encode())
        else:
            words.extend(record.encode())
    assert read_forward_salvage_bulk(words, 0, len(words)) == (records, 0)
