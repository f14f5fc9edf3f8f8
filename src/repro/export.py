"""Export traces to the Chrome trace-event format (Perfetto / about:tracing).

Turns a trace (plus, optionally, its analysis) into the JSON array the
Chrome tracing UI and Perfetto load: one timeline row per thread with

* complete events (``X``) for critical sections, named after their lock;
* instant events for barrier arrivals and condition signals;
* a dedicated "critical path" row showing which thread the path runs
  through at every instant (the paper's Fig. 1 picture, interactive).

Times are exported in microseconds (the format's unit); virtual-time
traces use 1 virtual time unit = 1 ms so sub-unit critical sections
remain visible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.analyzer import AnalysisResult
from repro.core.model import WAIT_KIND_CODES, WaitKind
from repro.trace.trace import Trace

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_JOIN_CODE = WAIT_KIND_CODES.index(WaitKind.JOIN)

#: Microseconds per trace time unit (1 unit -> 1 ms keeps zooming sane).
_SCALE_US = 1000.0


def to_chrome_trace(
    trace: Trace, analysis: AnalysisResult | None = None
) -> list[dict[str, Any]]:
    """Build the trace-event list (JSON-serializable)."""
    if analysis is None:
        from repro.core.analyzer import analyze

        analysis = analyze(trace, validate=False)
    pid = 1
    t0 = trace.start_time

    def thread_name(tid: int, name: str) -> dict[str, Any]:
        return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name}}

    def span(name: str, cat: str, tid: int, start: float, end: float,
             args: dict[str, Any] | None = None) -> dict[str, Any]:
        event = {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
                 "ts": (start - t0) * _SCALE_US,
                 "dur": max(0.0, (end - start) * _SCALE_US)}
        if args is not None:
            event["args"] = args
        return event

    events = [thread_name(tid, trace.thread_name(tid)) for tid in trace.thread_ids]
    ct = analysis.timeline_columns
    for i, tid in enumerate(ct.tids.tolist()):
        for obj in ct.hold_obj_order.get(tid, ()):
            name = trace.object_name(obj)
            lo, hi = ct.hold_groups[(tid, obj)]
            for start, end, contended in zip(
                ct.h_start[lo:hi].tolist(), ct.h_end[lo:hi].tolist(),
                ct.h_contended[lo:hi].tolist(),
            ):
                events.append(span(name, "critical-section", tid, start, end,
                                   {"contended": contended}))
        lo, hi = ct.wait_lo[i], ct.wait_hi[i]
        for kind, obj, start, end, waker_tid in zip(
            ct.w_kind[lo:hi].tolist(), ct.w_obj[lo:hi].tolist(),
            ct.w_start[lo:hi].tolist(), ct.w_end[lo:hi].tolist(),
            ct.w_waker_tid[lo:hi].tolist(),
        ):
            label = (f"join {trace.thread_name(obj)}" if kind == _JOIN_CODE
                     else trace.object_name(obj))
            events.append(span(f"wait:{label}", "blocked", tid, start, end,
                               {"waker": trace.thread_name(waker_tid)}))

    # The critical path as its own row (tid 10000): one slice per piece,
    # named after the thread the path runs through.
    cp = analysis.critical_path
    for tid, start, end in zip(
        cp.piece_tid.tolist(), cp.piece_start.tolist(), cp.piece_end.tolist()
    ):
        if end > start:
            events.append(span(f"on {trace.thread_name(tid)}", "critical-path", 10_000,
                               start, end))
    events.append(thread_name(10_000, "CRITICAL PATH"))
    return events


def write_chrome_trace(
    trace: Trace, path: str | Path, analysis: AnalysisResult | None = None
) -> Path:
    """Write the Chrome trace JSON to ``path`` (open it in Perfetto)."""
    path = Path(path)
    # One dumps call: json.dump would stream through the pure-Python
    # iterencode, several times slower for the same bytes.
    path.write_text(json.dumps(to_chrome_trace(trace, analysis)), encoding="utf-8")
    return path
