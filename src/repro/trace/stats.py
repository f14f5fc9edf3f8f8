"""Descriptive trace statistics (exploration aid; CLI ``stats``).

Quick facts about a trace before running the full analysis: event counts
by type, the busiest synchronization objects, per-thread event rates and
hold/wait distribution summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tables import format_table
from repro.trace.events import EventType
from repro.trace.trace import Trace
from repro.units import format_duration

__all__ = ["TraceStats", "compute_trace_stats"]

_OBTAIN = int(EventType.OBTAIN)


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace."""

    nevents: int
    nthreads: int
    nobjects: int
    duration: float
    events_by_type: dict[str, int]
    events_by_object: list[tuple[str, int]]  # busiest first
    events_per_thread: dict[int, int]
    hold_time_quantiles: tuple[float, float, float]  # p50, p90, p99

    def render(self, n_objects: int = 8) -> str:
        head = (
            f"{self.nevents} events, {self.nthreads} threads, "
            f"{self.nobjects} sync objects, duration {format_duration(self.duration)}"
        )
        type_rows = sorted(
            self.events_by_type.items(), key=lambda kv: kv[1], reverse=True
        )
        t1 = format_table(["Event type", "Count"], type_rows, title="Events by type")
        t2 = format_table(
            ["Object", "Events"],
            self.events_by_object[:n_objects],
            title="Busiest synchronization objects",
        )
        p50, p90, p99 = self.hold_time_quantiles
        holds = (
            "critical section sizes: "
            f"p50 {format_duration(p50)}, p90 {format_duration(p90)}, "
            f"p99 {format_duration(p99)}"
        )
        return "\n\n".join([head, t1, t2, holds])


def compute_trace_stats(trace: Trace) -> TraceStats:
    """Descriptive statistics from the trace's columns and its index."""
    records = trace.records
    per_type = np.bincount(records["etype"], minlength=256).tolist()
    by_type = {et.name: per_type[et] for et in EventType if per_type[et]}

    objs = records["obj"]
    ids, counts = np.unique(objs[objs >= 0], return_counts=True)
    busiest = sorted(
        zip(map(trace.object_name, ids.tolist()), counts.tolist()),
        key=lambda t: t[1],
        reverse=True,
    )

    ix = trace.index
    per_thread = dict(
        zip(ix.tids.tolist(), np.diff(ix.thread_starts, append=len(records)).tolist())
    )

    # Hold durations: OBTAIN..RELEASE pairs per (tid, obj), LIFO.
    close, _ = ix.lifo_closes()
    obtains = ix.lock_rows[ix.lock_etype == _OBTAIN]
    paired = close >= 0
    times = records["time"]
    durations = times[ix.lock_rows[close[paired]]] - times[obtains[paired]]
    if len(durations):
        q = np.quantile(durations, [0.5, 0.9, 0.99])
        quantiles = (float(q[0]), float(q[1]), float(q[2]))
    else:
        quantiles = (0.0, 0.0, 0.0)

    return TraceStats(
        nevents=len(trace),
        nthreads=len(per_thread),
        nobjects=len(trace.objects),
        duration=trace.duration,
        events_by_type=by_type,
        events_by_object=busiest,
        events_per_thread=per_thread,
        hold_time_quantiles=quantiles,
    )
