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
    from repro.trace.schema import empty_records

    assert list(split_records(empty_records(), 10)) == []


def test_sort_stream_records_matches_from_events(micro_trace):
    rng = np.random.default_rng(0)
    shuffled = micro_trace.records[rng.permutation(len(micro_trace.records))]
    restored = sort_stream_records(shuffled)
    assert np.array_equal(restored, micro_trace.records)


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
