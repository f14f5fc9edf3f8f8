"""Exact live snapshots: the critical lock analysis of a growing trace.

The paper's future work (§VII) wants critical-lock information *at run
time*.  :class:`OnlineAnalyzer` answers with the exact analysis of the
events seen so far: :meth:`~OnlineAnalyzer.observe_batch` appends each
record batch as it arrives, and :meth:`~OnlineAnalyzer.snapshot` and
:meth:`~OnlineAnalyzer.render` normalize the records so far with
:func:`~repro.trace.framing.sort_stream_records` and run
:func:`~repro.core.analyzer.analyze` (without validation) on them.  A
prefix with open holds and pending blocks analyzes like a truncated
trace (the ``truncated`` oracle invariant), so locks rank by their
exact ``cp_time_frac`` of the program so far; once the stream is
complete the snapshot is the batch report itself, byte for byte.

Lock, thread and trace names come with the JSON trace header, when the
producer has sent it (``observe_batch(..., header=)``).  Until then a
lock is ``obj#N``.  The analysis is cached per batch count, so repeated
snapshots between two batches analyze once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.framing import sort_stream_records
from repro.trace.schema import EVENT_DTYPE
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.writer import header_fields

if TYPE_CHECKING:  # analyze loads on the first snapshot, not at import
    from repro.core.analyzer import AnalysisResult

__all__ = ["OnlineAnalyzer"]

_LOCK_VERBS = [int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE)]


class OnlineAnalyzer:
    """Feed record batches as they arrive; read the exact report at any moment."""

    def __init__(self) -> None:
        self._batches: list[np.ndarray] = []
        self._fields: dict[str, Any] = {"objects": {}, "threads": {}, "meta": {}}
        self._cached: tuple[int, AnalysisResult] | None = None
        self.events_seen = 0

    def observe_batch(
        self, records: np.ndarray, header: dict[str, Any] | None = None
    ) -> "OnlineAnalyzer":
        """Append one ``EVENT_DTYPE`` record batch, in any order, and adopt
        the JSON trace ``header`` (objects, threads, meta) if one is given.
        A malformed header raises :class:`~repro.errors.TraceFormatError`."""
        if header is not None:
            fields = header_fields(header)
            if fields != self._fields:
                self._fields = fields
                self._cached = None
        if len(records):
            self._batches.append(records)
            self.events_seen += len(records)
        return self

    def result(self) -> AnalysisResult:
        """The exact analysis of every record observed so far."""
        from repro.core.analyzer import analyze

        if self._cached is None or self._cached[0] != len(self._batches):
            self._cached = (len(self._batches), analyze(self._trace(), validate=False))
        return self._cached[1]

    def _trace(self) -> Trace:
        # concatenate copies, so the in-place renumbering never touches a batch
        records = sort_stream_records(
            np.concatenate(self._batches) if self._batches else np.empty(0, EVENT_DTYPE)
        )
        objects = dict(self._fields["objects"])
        lock_rows = np.isin(records["etype"], _LOCK_VERBS) & (records["obj"] != NO_OBJECT)
        for obj in np.unique(records["obj"][lock_rows]).tolist():
            objects.setdefault(obj, ObjectInfo(obj, ObjectKind.MUTEX, f"obj#{obj}"))
        return Trace(
            records=records,
            objects=objects,
            threads=dict(self._fields["threads"]),
            meta=dict(self._fields["meta"]),
        )

    def snapshot(self, top: int | None = None) -> dict[str, Any]:
        """JSON view: the ``top`` locks by exact critical-path time fraction."""
        report = self.result().report
        return {
            "events": self.events_seen,
            "elapsed": report.duration,
            "nthreads": report.nthreads,
            "nlocks": len(report.locks),
            "locks": [
                {
                    "obj": m.obj,
                    "name": m.name,
                    "cp_time_frac": m.cp_fraction,
                    "invocations": m.total_invocations,
                    "contended": m.contended_invocations,
                    "cont_prob": m.avg_cont_prob,
                    "wait_time": m.total_wait_time,
                    "hold_time": m.total_hold_time,
                }
                for m in report.top_locks(top)
            ],
        }

    def render(self, top: int | None = 10) -> str:
        """The report text, as ``critical-lock-analysis analyze`` prints it."""
        return self.result().render(top)
