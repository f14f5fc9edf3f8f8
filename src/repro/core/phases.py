"""Phase analysis: per-barrier-phase critical lock statistics.

Barrier-structured programs (Radiosity's iterations, Water's timesteps)
have distinct phases whose bottlenecks differ; a whole-run ranking blurs
them.  This module cuts the critical path at *global* barrier crossings
(junctions where every thread synchronized) and computes each phase's
lock CP shares, complementing the fixed-width windows of
:mod:`repro.core.windows` with program-structure-aligned boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import cp_hold_by_interval
from repro.trace.events import EventType
from repro.trace.ops import dense_keys
from repro.trace.trace import Trace
from repro.tables import format_table
from repro.units import format_duration, format_percent

__all__ = ["Phase", "PhaseReport", "split_phases"]

_ARRIVE = int(EventType.BARRIER_ARRIVE)
_DEPART = int(EventType.BARRIER_DEPART)


@dataclass(frozen=True)
class Phase:
    """One barrier-delimited span of the execution."""

    index: int
    start: float
    end: float
    boundary_obj: int  # barrier object ending this phase (-1 for the last)
    lock_cp_shares: dict[str, float]  # lock name -> share of phase CP time

    @property
    def duration(self) -> float:
        return self.end - self.start

    def dominant_lock(self) -> str | None:
        if not self.lock_cp_shares:
            return None
        name, share = max(self.lock_cp_shares.items(), key=lambda kv: kv[1])
        return name if share > 0 else None


@dataclass
class PhaseReport:
    """Phases of one execution with per-phase lock criticality."""

    phases: list[Phase]

    def render(self, top: int = 2) -> str:
        rows = []
        for ph in self.phases:
            ranked = sorted(
                ph.lock_cp_shares.items(), key=lambda kv: kv[1], reverse=True
            )[:top]
            desc = ", ".join(
                f"{name} {format_percent(share)}" for name, share in ranked if share > 0
            )
            rows.append(
                [ph.index, f"{ph.start:.4g}", f"{ph.end:.4g}",
                 format_duration(ph.duration), desc or "(no lock time)"]
            )
        return format_table(
            ["Phase", "Start", "End", "Duration", "Top locks (share of phase CP)"],
            rows,
            title="Barrier-phase critical lock analysis",
        )


def split_phases(analysis: AnalysisResult) -> PhaseReport:
    """Cut the execution at barrier generations crossed by every thread.

    A barrier generation is a *global* phase boundary when its cohort
    includes every thread of the trace; its departure time splits the
    critical path.
    """
    trace = analysis.trace
    edges, objs = _global_barriers(trace, len(analysis.timeline_columns.tids))
    locks = trace.locks
    _, hold_time = cp_hold_by_interval(
        analysis.timeline_columns, analysis.critical_path, np.array(edges),
        [info.obj for info in locks],
    )
    phases: list[Phase] = []
    for i, (start, end) in enumerate(zip(edges[:-1], edges[1:])):
        # Skip degenerate spans (consecutive barriers at one instant).
        if end <= start:
            continue
        phases.append(
            Phase(
                index=len(phases),
                start=start,
                end=end,
                boundary_obj=objs[i],
                lock_cp_shares={
                    info.display_name: float(hold_time[i, col]) / (end - start)
                    for col, info in enumerate(locks)
                },
            )
        )
    return PhaseReport(phases=phases)


def _global_barriers(trace: Trace, nthreads: int) -> tuple[list[float], list[int]]:
    """Phase edges (trace start, each global departure, trace end) and
    the barrier ending each phase (``-1`` for the last).

    A generation ``(obj, gen)`` is global when ``nthreads`` threads
    arrive at it; its departure time is the latest of its departures.
    """
    rows = trace.records[np.isin(trace.records["etype"], (_ARRIVE, _DEPART))]
    keys, gen = np.unique(dense_keys(rows["obj"], rows["arg"]), return_inverse=True)
    arrive = rows["etype"] == _ARRIVE
    cohort = np.bincount(gen[arrive], minlength=len(keys))
    departed = np.bincount(gen[~arrive], minlength=len(keys)) > 0
    depart_time = np.full(len(keys), -np.inf)
    np.maximum.at(depart_time, gen[~arrive], rows["time"][~arrive])
    gen_obj = np.zeros(len(keys), dtype=np.int64)
    gen_obj[gen] = rows["obj"]
    is_global = departed & (cohort == nthreads)
    times, objs = depart_time[is_global], gen_obj[is_global]
    order = np.lexsort((objs, times))
    return (
        [trace.start_time] + times[order].tolist() + [trace.end_time],
        objs[order].tolist() + [-1],
    )
