"""Out-of-range JSONL field values are typed errors naming file and line.

A value that does not fit its record field (``tid``/``obj`` are int32,
``arg`` int64, ``seq`` a non-negative int64) or a non-finite time must
surface as :class:`TraceFormatError` on every JSONL surface — never as
a raw ``OverflowError`` from packing, and never accepted by one reader
while the other rejects it.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import TraceFormatError
from repro.trace.importers import import_perf_jsonl
from repro.trace.reader import iter_trace_chunks, read_trace

HEADER = {"header": {"version": 1, "objects": {"0": {"kind": 1, "name": "L"}}}}
GOOD = {"seq": 0, "time": 0.0, "tid": 0, "etype": "THREAD_START"}

BAD_FIELDS = {
    "tid-2^40": {"tid": 2**40},
    "obj-2^40": {"obj": 2**40},
    "arg-2^70": {"arg": 2**70},
    "seq-2^70": {"seq": 2**70},
    "seq-negative": {"seq": -5},
    "time-nan": {"time": float("nan")},
    "time-inf": {"time": float("inf")},
    "tid-infinite-float": {"tid": float("inf")},
}


def _trace_file(tmp_path, bad: dict):
    path = tmp_path / "t.jsonl"
    lines = [HEADER, GOOD, {**GOOD, "seq": 1, **bad}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


@pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_read_trace_rejects_out_of_range_fields(tmp_path, bad):
    path = _trace_file(tmp_path, bad)
    with pytest.raises(TraceFormatError, match=re.escape(f"{path}:3: ")):
        read_trace(path)


@pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_chunk_iterator_rejects_out_of_range_fields(tmp_path, bad):
    path = _trace_file(tmp_path, bad)
    with pytest.raises(TraceFormatError, match=re.escape(f"{path}:3: ")):
        list(iter_trace_chunks(path, chunk_events=1))


PERF_BAD = {
    "tid-2^40": {"tid": 2**40},
    "tid-negative-2^40": {"tid": -(2**40)},
    "tid-infinite-float": {"tid": float("inf")},
    "ts-nan": {"ts": float("nan")},
    "ts-inf": {"ts": float("inf")},
}


@pytest.mark.parametrize("bad", PERF_BAD.values(), ids=PERF_BAD.keys())
def test_perf_import_rejects_out_of_range_fields(tmp_path, bad):
    path = tmp_path / "perf.jsonl"
    good = {"ts": 0.0, "tid": 7, "event": "acquired", "lock": "L"}
    lines = [good, {**good, "ts": 0.1, "event": "release"}, {**good, "ts": 0.2, **bad}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(TraceFormatError, match=re.escape(f"{path}:3: ")):
        import_perf_jsonl(path)
