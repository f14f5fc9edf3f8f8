"""The analysis façade: one call from trace to report.

Mirrors the paper's post-processing analysis module (Fig. 3): validate
the trace, build timelines, resolve wakers, run the backward critical-
path walk, compute TYPE 1 / TYPE 2 metrics and wrap everything in an
:class:`AnalysisReport`.

The pipeline keeps the trace's numpy columns end to end
(:mod:`repro.core.columnar`) and only materializes
``Wait``/``HoldInterval``/``ThreadTimeline`` objects lazily, when a
caller actually reads :attr:`AnalysisResult.timelines` or
:attr:`AnalysisResult.wakers` (the DAG, what-if and viz layers do).  The
per-event object pipeline survives as the test reference
:func:`repro.check.reference.reference_analyze`; the ``engine-equiv``
invariant of ``repro.check`` holds the two to bit-identical output on
every fuzzed seed.
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
from repro.core.critical_path import CriticalPath
from repro.core.dag import EventGraph, build_event_graph
from repro.core.model import ThreadTimeline
from repro.core.report import AnalysisReport
from repro.core.wakers import WakerTable
from repro.core.whatif import WhatIfResult, predict_no_contention, predict_shrink
from repro.trace.trace import Trace
from repro.trace.validate import validate_trace

__all__ = ["AnalysisResult", "analyze"]


class AnalysisResult:
    """Everything produced by one analysis pass over a trace.

    ``wakers`` and ``timelines`` are materialized lazily from the columnar
    structures: the hot path never builds per-event Python objects, but
    every downstream consumer (DAG cross-check, what-if, viz, export)
    still sees the exact object-engine structures on first access.  The
    reference pipeline passes its object structures directly.
    """

    def __init__(
        self,
        trace: Trace,
        critical_path: CriticalPath,
        report: AnalysisReport,
        wakers: WakerTable | None = None,
        timelines: dict[int, ThreadTimeline] | None = None,
        columnar: tuple[ColumnarWakers, ColumnarTimelines] | None = None,
    ):
        if columnar is None and (wakers is None or timelines is None):
            raise ValueError("AnalysisResult needs object structures or columnar ones")
        self.trace = trace
        self.critical_path = critical_path
        self.report = report
        self._wakers = wakers
        self._timelines = timelines
        self._columnar = columnar

    @property
    def wakers(self) -> WakerTable:
        if self._wakers is None:
            self._wakers = self._columnar[0].to_table(self.trace.records)
        return self._wakers

    @property
    def timelines(self) -> dict[int, ThreadTimeline]:
        if self._timelines is None:
            self._timelines = self._columnar[1].to_object()
        return self._timelines

    @cached_property
    def graph(self) -> EventGraph:
        """Event DAG (built lazily; used by cross-checks and what-if)."""
        return build_event_graph(self.trace, self.timelines, self.wakers)

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
    return AnalysisResult(trace=trace, critical_path=cp, report=report, columnar=(cw, ct))
