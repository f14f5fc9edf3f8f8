"""Round-trip and corruption tests for trace serialization."""

import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace.reader import read_trace
from repro.trace.writer import MAGIC, write_trace


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    assert np.array_equal(a.records, b.records)
    assert a.objects == b.objects
    assert a.threads == b.threads
    assert a.meta == b.meta


class TestBinaryFormat:
    def test_roundtrip(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.clt")
        assert_traces_equal(micro_trace, read_trace(path))

    def test_sniffing_ignores_extension(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.bin", fmt="clt")
        assert_traces_equal(micro_trace, read_trace(path))

    def test_truncated_body_rejected(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.clt")
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TraceFormatError, match="bytes of records"):
            read_trace(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.clt"
        path.write_bytes(MAGIC + struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(TraceFormatError, match="truncated header"):
            read_trace(path)

    def test_corrupt_header_json_rejected(self, tmp_path):
        path = tmp_path / "t.clt"
        bad = b"not json!!"
        path.write_bytes(MAGIC + struct.pack("<Q", len(bad)) + bad)
        with pytest.raises(TraceFormatError, match="corrupt header"):
            read_trace(path)

    def test_empty_file_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "t.clt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="empty file"):
            read_trace(path)


class TestJsonlFormat:
    def test_roundtrip(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.jsonl")
        assert_traces_equal(micro_trace, read_trace(path))

    def test_bad_line_rejected(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.jsonl")
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(TraceFormatError, match="not JSON"):
            read_trace(path)

    def test_missing_field_rejected(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.jsonl")
        with open(path, "a") as fh:
            fh.write('{"seq": 99999, "time": 1.0}\n')
        with pytest.raises(TraceFormatError, match="bad event record"):
            read_trace(path)

    def test_blank_lines_tolerated(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.jsonl")
        text = path.read_text()
        path.write_text(text.replace("\n", "\n\n", 3))
        assert_traces_equal(micro_trace, read_trace(path))


def test_metadata_preserved(micro_trace, tmp_path):
    trace = read_trace(write_trace(micro_trace, tmp_path / "x.clt"))
    assert trace.meta["name"] == "micro"
    assert trace.objects[0].name == "L1"
    assert trace.threads[0] == "worker-0"


class TestExplicitFormat:
    """write_trace(fmt=) and the ambiguous-suffix guard."""

    def test_ambiguous_suffix_rejected(self, micro_trace, tmp_path):
        with pytest.raises(TraceFormatError, match="ambiguous suffix"):
            write_trace(micro_trace, tmp_path / "t.json")

    def test_no_suffix_rejected(self, micro_trace, tmp_path):
        with pytest.raises(TraceFormatError, match="ambiguous suffix"):
            write_trace(micro_trace, tmp_path / "trace")

    def test_explicit_fmt_overrides_suffix(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.json", fmt="jsonl")
        assert path.read_text().startswith('{"header"')
        assert_traces_equal(micro_trace, read_trace(path))

    def test_unknown_fmt_rejected(self, micro_trace, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            write_trace(micro_trace, tmp_path / "t.clt", fmt="csv")

    def test_known_suffixes_still_infer(self, micro_trace, tmp_path):
        assert write_trace(micro_trace, tmp_path / "a.clt").exists()
        assert write_trace(micro_trace, tmp_path / "a.jsonl").exists()


class TestFormatSniffing:
    """Degenerate files must fail with TraceFormatError, not raw decode errors."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.clt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="empty file"):
            read_trace(path)

    def test_file_shorter_than_magic(self, tmp_path):
        path = tmp_path / "tiny.clt"
        path.write_bytes(b"CLT")
        with pytest.raises(TraceFormatError, match="too short"):
            read_trace(path)

    def test_binary_garbage(self, tmp_path):
        path = tmp_path / "garbage.clt"
        path.write_bytes(bytes(range(200, 256)) * 4)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_text_garbage(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("this is not a trace at all\n")
        with pytest.raises(TraceFormatError, match="not JSON"):
            read_trace(path)


class TestUnknownEventType:
    """An etype byte outside 1-14 is a format error naming path and record."""

    @pytest.fixture
    def bad_trace(self, micro_trace):
        from repro.trace.trace import Trace

        records = micro_trace.records.copy()
        records["etype"][5] = 15
        return Trace(records=records, objects=micro_trace.objects, threads=micro_trace.threads)

    def test_binary(self, bad_trace, tmp_path):
        path = write_trace(bad_trace, tmp_path / "bad.clt")
        with pytest.raises(TraceFormatError, match=r"bad\.clt: record 5: unknown event type 15"):
            read_trace(path)

    def test_binary_chunks(self, bad_trace, tmp_path):
        from repro.trace.reader import iter_trace_chunks

        path = write_trace(bad_trace, tmp_path / "bad.clt")
        with pytest.raises(TraceFormatError, match="record 5: unknown event type 15"):
            list(iter_trace_chunks(path, chunk_events=2))

    def test_chunk_stream(self, bad_trace, tmp_path):
        from repro.trace.framing import encode_records_frame, encode_trailer_frame
        from repro.trace.reader import iter_trace_chunks
        from repro.trace.writer import header_dict

        path = tmp_path / "bad.cls"
        path.write_bytes(
            encode_records_frame(bad_trace.records[:4], 0)
            + encode_records_frame(bad_trace.records[4:], 1)
            + encode_trailer_frame(header_dict(bad_trace), 2)
        )
        with pytest.raises(TraceFormatError, match=r"bad\.cls: record 5: unknown event type 15"):
            read_trace(path)
        with pytest.raises(TraceFormatError, match="record 5: unknown event type 15"):
            list(iter_trace_chunks(path))

    @pytest.mark.parametrize("etype", ["NOPE", 15, None])
    def test_jsonl(self, micro_trace, tmp_path, etype):
        import json

        path = write_trace(micro_trace, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        event = json.loads(lines[6])  # line 1 is the header: record 5
        event["etype"] = etype
        lines[6] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        match = rf"t\.jsonl:7: record 5: unknown event type {etype!r}"
        with pytest.raises(TraceFormatError, match=match):
            read_trace(path)
