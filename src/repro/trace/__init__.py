"""Trace substrate: event records, containers, file formats and validation.

This package is the equivalent of the paper's trace file (Fig. 3): the
instrumentation module (real threads, :mod:`repro.instrument`) and the
simulator (:mod:`repro.sim`) both emit the event stream defined here, and
the analysis module (:mod:`repro.core`) consumes it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
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

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.trace.events": ("Event", "EventType", "ObjectKind"),
    "repro.trace.trace": ("ObjectInfo", "Trace"),
    "repro.trace.builder": ("TraceBuilder",),
    "repro.trace.digest": ("file_digest", "trace_digest"),
    "repro.trace.framing": (
        "CHUNK_MAGIC", "Frame", "decode_frame", "encode_records_frame",
        "encode_trailer_frame", "iter_frames", "sort_stream_records", "split_records",
    ),
    "repro.trace.importers": ("IMPORT_FORMATS", "import_perf_jsonl", "import_trace"),
    "repro.trace.merge": ("merge_traces",),
    "repro.trace.reader": ("iter_trace_chunks", "read_trace"),
    "repro.trace.stats": ("TraceStats", "compute_trace_stats"),
    "repro.trace.transform": ("demote_orphan_contention", "filter_threads", "slice_time"),
    "repro.trace.writer": ("write_trace",),
    "repro.trace.validate": ("validate_trace",),
})
