"""Trace substrate: event records, containers, file formats and validation.

This package is the equivalent of the paper's trace file (Fig. 3): the
instrumentation module (real threads, :mod:`repro.instrument`) and the
simulator (:mod:`repro.sim`) both emit the event stream defined here, and
the analysis module (:mod:`repro.core`) consumes it.
"""

from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.builder import TraceBuilder
from repro.trace.digest import file_digest, trace_digest
from repro.trace.framing import (
    CHUNK_MAGIC,
    Frame,
    decode_frame,
    encode_records_frame,
    encode_trailer_frame,
    iter_frames,
    sort_stream_records,
    split_records,
)
from repro.trace.importers import IMPORT_FORMATS, import_perf_jsonl, import_trace
from repro.trace.merge import merge_traces
from repro.trace.reader import iter_trace_chunks, read_trace
from repro.trace.stats import TraceStats, compute_trace_stats
from repro.trace.transform import demote_orphan_contention, filter_threads, slice_time
from repro.trace.writer import write_trace
from repro.trace.validate import validate_trace

__all__ = [
    "Event",
    "EventType",
    "ObjectKind",
    "ObjectInfo",
    "Trace",
    "TraceBuilder",
    "read_trace",
    "iter_trace_chunks",
    "CHUNK_MAGIC",
    "Frame",
    "decode_frame",
    "encode_records_frame",
    "encode_trailer_frame",
    "iter_frames",
    "split_records",
    "sort_stream_records",
    "merge_traces",
    "slice_time",
    "filter_threads",
    "demote_orphan_contention",
    "IMPORT_FORMATS",
    "import_trace",
    "import_perf_jsonl",
    "TraceStats",
    "compute_trace_stats",
    "write_trace",
    "validate_trace",
    "trace_digest",
    "file_digest",
]
