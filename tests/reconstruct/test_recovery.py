"""Record recovery (§4.1): mining, sub-buffer ordering, thread splitting."""

import pytest

from repro.reconstruct import (
    RecoveryError,
    mine_buffer,
    mine_buffer_salvage,
    recover_spans,
    recover_spans_salvage,
    split_by_thread,
    sub_buffer_order,
    verify_buffer,
)
from repro.runtime import BufferFlags, TraceBuffer
from repro.runtime.buffers import HEADER_WORDS
from repro.runtime.records import DagRecord, ExtKind, ExtRecord, is_dag_word
from repro.runtime.snap import BufferDump
from repro.vm import Machine


def fresh_buffer(sub_count=2, sub_size=8, flags=0):
    machine = Machine()
    process = machine.create_process("t")
    return TraceBuffer.allocate(
        process, index=0, sub_count=sub_count, sub_size=sub_size, flags=flags
    )


def dump_of(buf: TraceBuffer) -> BufferDump:
    return BufferDump(
        index=buf.index,
        flags=buf.flags,
        base=buf.base,
        sub_count=buf.sub_count,
        sub_size=buf.sub_size,
        owner_tid=buf.owner_tid,
        words=buf.snapshot(),
    )


def test_verify_rejects_bad_magic():
    buf = fresh_buffer()
    buf.mapped.words[0] = 0xBAD
    dump = dump_of(buf)
    assert verify_buffer(dump) == [
        ("bad-magic", "buffer 0: bad magic 0xbad")
    ]
    with pytest.raises(RecoveryError, match="^buffer 0: bad magic 0xbad$"):
        mine_buffer(dump)


def test_verify_rejects_truncated_dump():
    buf = fresh_buffer()
    dump = dump_of(buf)
    dump.words = dump.words[:-1]
    message = "buffer 0: 25 words, header implies 26"
    assert verify_buffer(dump) == [("length-mismatch", message)]
    with pytest.raises(RecoveryError, match=f"^{message}$"):
        mine_buffer(dump)


def test_sub_buffer_order_no_commits():
    buf = fresh_buffer(sub_count=3)
    order = sub_buffer_order(dump_of(buf))
    assert order == [1, 2, 0]  # current sub (0) last


def test_sub_buffer_order_after_commit():
    buf = fresh_buffer(sub_count=3)
    buf.commit_sub(0)  # now filling sub 1
    assert sub_buffer_order(dump_of(buf)) == [2, 0, 1]


def test_mine_empty_buffer():
    assert mine_buffer(dump_of(fresh_buffer())) == []


def test_mine_collects_across_sub_buffers():
    buf = fresh_buffer(sub_count=2, sub_size=6)
    cursor = buf.sub_start(0) - 1
    records = [ExtRecord(ExtKind.TIMESTAMP, inline=i) for i in range(8)]
    for record in records:
        cursor = buf.append(cursor, record)
    mined = mine_buffer(dump_of(buf))
    # Wrapping may have discarded the oldest sub-buffer's records, but
    # what remains is a suffix of what was written, in order.
    assert mined == records[len(records) - len(mined):]
    assert len(mined) >= 4


def test_split_by_thread_simple_lifetimes():
    buf = fresh_buffer(sub_count=1, sub_size=32)
    cursor = buf.sub_start(0) - 1
    seq = [
        ExtRecord(ExtKind.THREAD_START, inline=0, payload=(5, 0, 0)),
        DagRecord(1, 0),
        ExtRecord(ExtKind.THREAD_END, inline=0, payload=(5, 0, 0)),
        ExtRecord(ExtKind.THREAD_START, inline=0, payload=(9, 0, 0)),
        DagRecord(2, 0),
    ]
    for record in seq:
        cursor = buf.append(cursor, record)
    buf.owner_tid = 9
    spans = split_by_thread(dump_of(buf), mine_buffer(dump_of(buf)))
    assert [s.tid for s in spans] == [5, 9]
    assert spans[0].has_start and spans[0].has_end
    assert spans[1].has_start and not spans[1].has_end
    assert not spans[0].truncated


def test_anonymous_leading_span_gets_owner():
    """A wrapped buffer whose THREAD_START was overwritten attributes
    the surviving records to the current owner."""
    buf = fresh_buffer(sub_count=1, sub_size=32)
    cursor = buf.sub_start(0) - 1
    cursor = buf.append(cursor, ExtRecord(ExtKind.TIMESTAMP, inline=1))
    buf.owner_tid = 7
    spans = split_by_thread(dump_of(buf), mine_buffer(dump_of(buf)))
    assert len(spans) == 1
    assert spans[0].tid == 7
    assert spans[0].truncated


def test_anonymous_span_closed_by_end_uses_end_tid():
    buf = fresh_buffer(sub_count=1, sub_size=32)
    cursor = buf.sub_start(0) - 1
    cursor = buf.append(cursor, DagRecord(3, 0))
    cursor = buf.append(
        cursor, ExtRecord(ExtKind.THREAD_END, inline=0, payload=(4, 0, 0))
    )
    buf.owner_tid = None
    spans = split_by_thread(dump_of(buf), mine_buffer(dump_of(buf)))
    assert spans[0].tid == 4


def test_recover_spans_skips_shared_buffers():
    buf = fresh_buffer(flags=BufferFlags.SHARED)
    cursor = buf.sub_start(0) - 1
    buf.append(cursor, DagRecord(1, 0))
    spans, notes = recover_spans([dump_of(buf)])
    assert spans == []
    assert notes and "desperation" in notes[0]


def test_recover_spans_skips_probation():
    machine = Machine()
    process = machine.create_process("t")
    probation = TraceBuffer.probation(process)
    spans, notes = recover_spans([dump_of(probation)])
    assert spans == [] and notes == []


FIB = """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(12));
    int z;
    z = 1 / 0;
    return 0;
}
"""


@pytest.fixture(scope="module")
def fib_run():
    from repro import trace_program

    run = trace_program(FIB)
    assert run.snap is not None
    return run


def test_real_traces_mine_without_loss(fib_run):
    """The runtime writes whole records and leaves zeros only at a
    sub-buffer's tail, so strict mining of a real, wrapped ring loses
    no word and agrees with salvage."""
    checked = 0
    for dump in fib_run.snap.buffers:
        if dump.flags:
            continue
        records, report = mine_buffer_salvage(dump)
        assert not report.damaged
        assert mine_buffer(dump) == records
        checked += bool(records)
    assert checked >= 1


def _damage(snap, kind: str) -> tuple[int, int, int]:
    """Damage the middle of the oldest sub-buffer of the snap's wrapped
    ring; returns (buffer index, sub-buffer, words the damage loses)."""
    dump = next(
        d for d in snap.buffers if not d.flags and d.words[4] != 0xFFFFFFFF
    )
    sub = sub_buffer_order(dump)[0]
    mid = HEADER_WORDS + sub * dump.sub_size + dump.sub_size // 2
    assert all(is_dag_word(w) for w in dump.words[mid : mid + 8])
    if kind == "garbage":
        dump.words[mid] = 0x12345678
        return dump.index, sub, 1
    if kind == "hole":
        dump.words[mid : mid + 8] = [0] * 8
        return dump.index, sub, 8
    # A SYNC record whose trailer names another kind: header, payload
    # and trailer all fail to place.
    record = ExtRecord(ExtKind.SYNC, 1, (1, 2, 3)).encode()
    record[-1] = ExtRecord(ExtKind.TIMESTAMP, 0, (1, 2, 3)).encode()[-1]
    dump.words[mid : mid + 5] = record
    return dump.index, sub, 5


@pytest.mark.parametrize("kind", ["garbage", "hole", "bad-trailer"])
def test_strict_refuses_any_lost_word(fib_run, kind, tmp_path, capsys):
    """Strict recovery and ``tbtrace view`` refuse a sub-buffer the scan
    lost a word in, naming it; salvage counts the loss."""
    from repro.chaos import copy_snap
    from repro.tools.tb import main

    snap = copy_snap(fib_run.snap)
    index, sub, lost = _damage(snap, kind)
    with pytest.raises(
        RecoveryError, match=rf"^buffer {index}: sub-buffer {sub}: {lost} of "
    ):
        recover_spans(snap.buffers)
    report = next(
        r for r in recover_spans_salvage(snap.buffers).reports
        if r.buffer_index == index
    )
    assert report.words_skipped == lost
    snap_path, map_path = tmp_path / "snap.json", tmp_path / "app.map.json"
    snap.save(str(snap_path))
    fib_run.mapfiles[0].save(str(map_path))
    assert main(["view", str(snap_path), str(map_path)]) == 1
    err = capsys.readouterr().err
    assert "re-run with --salvage" in err and err.count("\n") == 1


def test_a_span_that_fails_to_expand_is_one_loss(fib_run, monkeypatch):
    """Strict refuses a span expansion cannot decode as a
    RecoveryError naming the span; salvage notes the same text."""
    import repro.reconstruct.session as session

    def explode(span, index, snap):
        raise IndexError("DAG record out of range")

    monkeypatch.setattr(session, "expand_span", explode)
    reconstructor = session.Reconstructor(fib_run.mapfiles)
    salvaged = reconstructor.reconstruct(fib_run.snap, strict=False)
    losses = [r.loss for r in salvaged.salvage if r.loss is not None]
    assert losses and salvaged.threads == []
    assert losses[0].endswith(
        "span failed to expand (IndexError: DAG record out of range)"
    )
    with pytest.raises(RecoveryError) as excinfo:
        reconstructor.reconstruct(fib_run.snap)
    assert str(excinfo.value) == losses[0]
