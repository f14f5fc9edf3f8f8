"""The analysis façade: one call from trace to report.

Mirrors the paper's post-processing analysis module (Fig. 3): validate
the trace, build timelines, resolve wakers, run the backward critical-
path walk, compute TYPE 1 / TYPE 2 metrics and wrap everything in an
:class:`AnalysisReport`.

The pipeline keeps the trace's numpy columns end to end
(:mod:`repro.core.columnar`), and so does every layer built on its
result: the event DAG, what-if and plan, and the views (windows,
phases, blame, the Eyerman model, forecast, Chrome/SVG export and the
ASCII timeline) read the timeline, critical-path and record columns.
The per-event chain survives as
the test reference :func:`repro.check.reference.reference_analyze`; the
``engine-equiv`` invariant of ``repro.check`` holds the two to
bit-identical output on every fuzzed seed.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.columnar.metrics import (
    compute_metrics_columnar,
    compute_thread_stats_columnar,
)
from repro.core.columnar.timelines import ColumnarTimelines, build_timelines_columnar
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.core.columnar.walk import compute_critical_path_columnar
from repro.core.dag import EventGraph, build_event_graph
from repro.core.model import CriticalPath
from repro.core.report import AnalysisReport
from repro.core.whatif import WhatIfResult, predict_no_contention, predict_shrink
from repro.trace.trace import Trace
from repro.trace.validate import validate_trace

__all__ = ["AnalysisResult", "analyze"]


class AnalysisResult:
    """Everything produced by one analysis pass over a trace.

    ``waker_columns`` and ``timeline_columns`` are the pipeline's own
    columnar structures.
    """

    def __init__(
        self,
        trace: Trace,
        critical_path: CriticalPath,
        report: AnalysisReport,
        waker_columns: ColumnarWakers,
        timeline_columns: ColumnarTimelines,
    ):
        self.trace = trace
        self.critical_path = critical_path
        self.report = report
        self.waker_columns = waker_columns
        self.timeline_columns = timeline_columns

    @cached_property
    def graph(self) -> EventGraph:
        """Event DAG (built lazily; used by cross-checks and what-if)."""
        return build_event_graph(self.trace, self.timeline_columns, self.waker_columns)

    def what_if(self, lock: int | str, factor: float = 0.0) -> WhatIfResult:
        """Predict the speedup from shrinking ``lock``'s critical sections."""
        return predict_shrink(self.trace, lock, factor, graph=self.graph)

    def what_if_no_contention(self, lock: int | str) -> WhatIfResult:
        """Predict the speedup if ``lock``'s acquisitions never blocked.

        The paper's §VII scenario (ACS / speculation / transactional
        memory): waiters stop serializing behind holders while the
        critical sections' own work is kept.
        """
        return predict_no_contention(self.trace, lock, graph=self.graph)

    def render(self, n: int | None = 10) -> str:
        """Convenience passthrough to :meth:`AnalysisReport.render`."""
        return self.report.render(n)


def analyze(trace: Trace, validate: bool = True) -> AnalysisResult:
    """Run the full critical lock analysis pipeline on a trace."""
    if validate:
        validate_trace(trace)
    cw = resolve_wakers_columnar(trace)
    ct = build_timelines_columnar(trace, cw)
    cp = compute_critical_path_columnar(trace, ct)
    report = AnalysisReport(
        name=str(trace.meta.get("name", "")),
        nthreads=len(ct.tids),
        duration=trace.duration,
        cp=cp,
        locks=compute_metrics_columnar(trace, ct, cp),
        thread_stats=compute_thread_stats_columnar(ct, cp),
    )
    return AnalysisResult(trace, cp, report, cw, ct)
