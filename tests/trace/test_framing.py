"""Chunk framing: round-trips, corruption detection, the .cls container."""

import io

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace.framing import (
    FRAME_HEADER_SIZE,
    decode_frame,
    encode_records_frame,
    encode_trailer_frame,
    iter_frames,
    read_frame,
    sort_stream_records,
    split_records,
)
from repro.trace.reader import read_trace
from repro.trace.schema import EVENT_DTYPE, ROW_DTYPE
from repro.trace.writer import header_dict


def test_records_frame_roundtrip(micro_trace):
    blob = encode_records_frame(micro_trace.records, 7)
    frame, consumed = decode_frame(blob)
    assert consumed == len(blob)
    assert frame.chunk_id == 7
    assert not frame.is_trailer
    assert np.array_equal(frame.records, micro_trace.records)


def test_trailer_frame_roundtrip(micro_trace):
    header = header_dict(micro_trace)
    frame, _ = decode_frame(encode_trailer_frame(header, 3))
    assert frame.is_trailer
    assert frame.header == header


def test_non_utf8_trailer_rejected():
    from repro.trace.framing import FRAME_TRAILER, _encode

    # The CRC is computed over the bad payload, so only decoding can fail.
    frame, _ = decode_frame(_encode(FRAME_TRAILER, 3, b'{"name": "\xff"}'))
    with pytest.raises(TraceFormatError, match="corrupt trailer header"):
        frame.header


def test_iter_frames_concatenated(micro_trace):
    blocks = list(split_records(micro_trace.records, 10))
    blob = b"".join(
        encode_records_frame(b, i) for i, b in enumerate(blocks)
    ) + encode_trailer_frame(header_dict(micro_trace), len(blocks))
    frames = list(iter_frames(blob))
    assert [f.chunk_id for f in frames] == list(range(len(blocks) + 1))
    assert frames[-1].is_trailer
    joined = np.concatenate([f.records for f in frames[:-1]])
    assert np.array_equal(joined, micro_trace.records)


def test_crc_corruption_detected(micro_trace):
    blob = bytearray(encode_records_frame(micro_trace.records, 0))
    blob[FRAME_HEADER_SIZE + 5] ^= 0xFF
    with pytest.raises(TraceFormatError, match="CRC"):
        decode_frame(bytes(blob))


def test_truncated_payload_detected(micro_trace):
    blob = encode_records_frame(micro_trace.records, 0)
    with pytest.raises(TraceFormatError, match="truncated frame payload"):
        decode_frame(blob[:-4])


def test_truncated_header_detected():
    with pytest.raises(TraceFormatError, match="truncated frame header"):
        decode_frame(b"CLCHUNK1\x00")


def test_bad_magic_detected():
    with pytest.raises(TraceFormatError, match="bad chunk magic"):
        decode_frame(b"X" * 64)


def test_partial_record_in_frame_rejected(micro_trace):
    # Shave 1 byte off the payload but fix the CRC so only the
    # whole-record check can catch it.
    import struct
    import zlib

    payload = micro_trace.records[:2].tobytes()[:-1]
    head = struct.pack(
        "<8sBQQI", b"CLCHUNK1", 0, 0, len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    frame, _ = decode_frame(head + payload)
    with pytest.raises(TraceFormatError, match="whole number of"):
        frame.records


def test_read_frame_from_file(micro_trace):
    blob = encode_records_frame(micro_trace.records, 0) + encode_trailer_frame(
        header_dict(micro_trace), 1
    )
    fh = io.BytesIO(blob)
    f0 = read_frame(fh)
    f1 = read_frame(fh)
    assert not f0.is_trailer and f1.is_trailer
    assert read_frame(fh) is None  # clean EOF


def test_read_frame_partial_raises(micro_trace):
    blob = encode_records_frame(micro_trace.records, 0)
    fh = io.BytesIO(blob[:-3])
    with pytest.raises(TraceFormatError):
        read_frame(fh)


def test_split_records_covers_everything(micro_trace):
    blocks = list(split_records(micro_trace.records, 7))
    assert all(len(b) <= 7 for b in blocks)
    assert np.array_equal(np.concatenate(blocks), micro_trace.records)


def test_split_records_empty():
    assert list(split_records(np.empty(0, dtype=EVENT_DTYPE), 10)) == []


def test_sort_stream_records_matches_from_events(micro_trace):
    rng = np.random.default_rng(0)
    shuffled = micro_trace.records[rng.permutation(len(micro_trace.records))]
    restored = sort_stream_records(shuffled)
    assert np.array_equal(restored, micro_trace.records)


def _stream_with_ties(micro_trace):
    """Chunks of a trace arriving out of order, with tied times, one
    chunk re-sent (identical records, so tied ``(time, seq)`` pairs),
    and two records sharing a ``(time, seq)`` pair with different
    threads."""
    rng = np.random.default_rng(3)
    records = micro_trace.records.copy()
    records["time"] = np.floor(records["time"])  # many tied times
    chunks = list(split_records(records, 5))
    order = rng.permutation(len(chunks))
    resent = chunks[order[0]]
    stream = np.concatenate([chunks[i] for i in order] + [resent])
    clash = stream[:2].copy()
    clash["seq"] = 10_000
    clash["time"] = 2.0
    clash["tid"] = [7, 3]  # field order disagrees with arrival order
    return np.concatenate([stream, clash])


def test_sort_stream_records_lexsort_permutation(micro_trace):
    """The (time, seq) lexsort is the stable sort ``Trace.from_events``
    applies: ties on both keys keep arrival order.  It gives the same
    permutation as ``argsort(order=("time", "seq"), kind="stable")``
    except where that call breaks a ``(time, seq)`` tie by the remaining
    fields."""
    stream = _stream_with_ties(micro_trace)
    perm = np.lexsort((stream["seq"], stream["time"]))
    stable = sorted(range(len(stream)), key=lambda i: (stream["time"][i], stream["seq"][i]))
    assert perm.tolist() == stable

    by_fields = np.argsort(stream, order=("time", "seq"), kind="stable")
    clash = len(stream) - 2
    differs = np.flatnonzero(perm != by_fields)
    assert set(perm[differs]) == {clash, clash + 1}
    head = stream[:-2]  # tied times, out-of-order and re-sent chunks
    assert np.array_equal(
        np.lexsort((head["seq"], head["time"])),
        np.argsort(head, order=("time", "seq"), kind="stable"),
    )

    restored = sort_stream_records(stream)
    assert np.array_equal(restored["seq"], np.arange(len(stream)))
    kept = stream[perm]
    for name in ("time", "tid", "etype", "obj", "arg"):
        assert np.array_equal(restored[name], kept[name])


def _reference_sort(records):
    """The plain lexsort-and-gather normalization."""
    out = records[np.lexsort((records["seq"], records["time"]))]
    out["seq"] = np.arange(len(out), dtype=out["seq"].dtype)
    return out.astype(EVENT_DTYPE, copy=False)


def _fast_path_cases(records):
    gapped = records.copy()
    gapped["seq"] = gapped["seq"] * 3 + 5
    equal_desc = records.copy()
    equal_desc["time"] = 1.0
    equal_desc["seq"] = equal_desc["seq"][::-1]
    nan = records.copy()
    nan["time"][4] = np.nan
    # Decreasing above 2**63 at equal times: a diff-based check wraps
    # 2**63 - (2**63 + 10) to a huge positive step and calls it ordered.
    high = records[:4].copy()
    high["time"] = 2.0
    high["seq"] = np.array([2**63 + 10, 2**63, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
    across = records[:3].copy()
    across["time"] = 2.0
    across["seq"] = np.array([2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    rows = records.astype(ROW_DTYPE)
    rows["seq"] -= 3  # synthetic leading events sort first
    rows_unordered = rows.copy()
    rows_unordered["time"][:3] = rows_unordered["time"][0]
    rows_unordered["seq"][:3] = [-1, -3, -2]
    return {
        "canonical": records.copy(),
        "gapped": gapped,
        "equal-time-seq-descending": equal_desc,
        "nan-time": nan,
        "uint64-seq-decreasing-above-2**63": high,
        "uint64-seq-increasing-across-2**63": across,
        "row-dtype-negative-seq": rows,
        "row-dtype-negative-seq-unordered": rows_unordered,
        "empty": records[:0].copy(),
        "one": records[:1].copy(),
    }


@pytest.mark.parametrize("case", [
    "canonical", "gapped", "equal-time-seq-descending", "nan-time",
    "uint64-seq-decreasing-above-2**63", "uint64-seq-increasing-across-2**63",
    "row-dtype-negative-seq", "row-dtype-negative-seq-unordered", "empty", "one",
])
def test_sort_stream_records_fast_path_is_byte_identical(micro_trace, case):
    """Skipping the sort for ordered input never changes a byte."""
    records = _fast_path_cases(micro_trace.records)[case]
    expected = _reference_sort(records.copy())
    out = sort_stream_records(records.copy())
    assert out.dtype == EVENT_DTYPE
    assert out.tobytes() == expected.tobytes()


def test_sort_stream_records_ordered_input_renumbered_in_place(micro_trace):
    records = micro_trace.records.copy()
    records["seq"] = records["seq"] * 2 + 1
    out = sort_stream_records(records)
    assert out is records
    assert np.array_equal(records["seq"], np.arange(len(records)))


@pytest.mark.parametrize("case", [
    "equal-time-seq-descending", "nan-time", "uint64-seq-decreasing-above-2**63",
    "row-dtype-negative-seq-unordered",
])
def test_sort_stream_records_leaves_unordered_input_unmodified(micro_trace, case):
    records = _fast_path_cases(micro_trace.records)[case]
    before = records.copy()
    sort_stream_records(records)
    assert records.tobytes() == before.tobytes()
    rng = np.random.default_rng(5)
    shuffled = micro_trace.records[rng.permutation(len(micro_trace.records))]
    before = shuffled.copy()
    sort_stream_records(shuffled)
    assert shuffled.tobytes() == before.tobytes()


def test_cls_container_readable(micro_trace, tmp_path):
    path = tmp_path / "t.cls"
    blocks = list(split_records(micro_trace.records, 9))
    with open(path, "wb") as fh:
        for i, block in enumerate(blocks):
            fh.write(encode_records_frame(block, i))
        fh.write(encode_trailer_frame(header_dict(micro_trace), len(blocks)))
    back = read_trace(path)
    assert np.array_equal(back.records, micro_trace.records)
    assert back.objects == micro_trace.objects
    assert back.threads == micro_trace.threads


def test_cls_without_trailer_rejected_by_read_trace(micro_trace, tmp_path):
    path = tmp_path / "open.cls"
    path.write_bytes(encode_records_frame(micro_trace.records, 0))
    with pytest.raises(TraceFormatError, match="trailer"):
        read_trace(path)
