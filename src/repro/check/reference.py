"""Per-event reference implementations — the ``engine-equiv`` and
``validate-equiv`` oracles.

* The analysis chain, written one ``Event`` at a time over its own
  object model (:class:`Wait`, :class:`HoldInterval`,
  :class:`ThreadTimeline`, :class:`WakerTable` and the path's
  :class:`CPPiece` / :class:`Junction`):
  :func:`resolve_wakers` (the paper's §IV.B waker rules),
  :func:`build_timelines`, the backward walk :func:`compute_critical_path`
  (paper Fig. 2) and :func:`compute_metrics` /
  :func:`compute_thread_stats` (paper Table 2).
  :func:`reference_analyze` runs them in order.  Production ``analyze``
  and every layer on top of it (DAG, what-if, plan, replay, the views)
  run the columnar twins in :mod:`repro.core.columnar`, which keep
  columns only; the oracle and the tests demand bit-identical results
  from both, turning the production columns into these objects with
  :func:`timelines_from_columns`, :func:`path_from_columns` and
  :func:`waker_table_from_columns`.
* :func:`critical_events` backtracks one longest path through the
  event DAG (:class:`~repro.core.dag.EventGraph`), for the ``dag-path``
  invariant.
* :func:`reference_trace_problems` holds the structural checks of
  :mod:`repro.trace.validate`, written with plain dicts.  The oracle and
  the tests demand that it and the vectorized checker produce the
  *identical* problem list, order included, on clean and corrupted
  traces.

Being slow but obviously correct is their job.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.timelines import ColumnarTimelines
from repro.core.columnar.wakers import ColumnarWakers
from repro.core.dag import EventGraph
from repro.core.model import (
    WAIT_KIND_CODES,
    CriticalPath,
    LockMetrics,
    ThreadStats,
    WaitKind,
    WakeInfo,
)
from repro.core.report import AnalysisReport
from repro.errors import AnalysisError, WakerResolutionError
from repro.trace.events import NO_OBJECT, Event, EventType, ObjectKind
from repro.trace.trace import Trace

__all__ = [
    "CPPiece",
    "HoldInterval",
    "Junction",
    "PathObjects",
    "ReferenceResult",
    "ThreadTimeline",
    "Wait",
    "WakerTable",
    "build_timelines",
    "compute_critical_path",
    "compute_metrics",
    "compute_thread_stats",
    "critical_events",
    "path_from_columns",
    "reference_analyze",
    "reference_trace_problems",
    "resolve_wakers",
    "timelines_from_columns",
    "waker_table_from_columns",
]

_KNOWN_ETYPES = frozenset(int(e) for e in EventType)
_THREAD_EXIT = int(EventType.THREAD_EXIT)


# -- the object model ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Wait:
    """One blocked interval of one thread.

    ``waker_*`` identify the event that ended the wait: the matching lock
    RELEASE, the last BARRIER_ARRIVE of the cohort, the COND_SIGNAL /
    COND_BROADCAST, or the joinee's THREAD_EXIT.  ``wake_seq`` is the
    sequence number of this thread's own wake event (OBTAIN,
    BARRIER_DEPART, COND_WAKE, JOIN_END); the backward walk cursors on it.
    """

    tid: int
    kind: WaitKind
    obj: int
    start: float  # when the thread started blocking
    end: float  # when the thread was woken
    wake_seq: int  # seq of this thread's wake event
    waker_tid: int
    waker_time: float
    waker_seq: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class HoldInterval:
    """One critical section: a lock held from ``start`` to ``end``."""

    tid: int
    obj: int
    start: float  # OBTAIN time
    end: float  # RELEASE time
    contended: bool  # whether the acquisition blocked
    acquire_time: float  # ACQUIRE time (start - acquire_time is the wait)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wait(self) -> float:
        return self.start - self.acquire_time


@dataclass(slots=True)
class ThreadTimeline:
    """One thread's waits and holds as objects: the per-event reference's
    form of what the analysis keeps as ``ColumnarTimelines`` columns.

    ``waits`` and each ``holds[obj]`` list are in increasing time order.
    """

    tid: int
    name: str
    start: float
    end: float
    creator_tid: int | None = None  # None for root threads
    create_time: float = 0.0
    create_seq: int = -1  # seq of the creator's THREAD_CREATE event
    waits: list[Wait] = field(default_factory=list)
    holds: dict[int, list[HoldInterval]] = field(default_factory=dict)

    @property
    def lifetime(self) -> float:
        """Wall time between the thread's first and last event."""
        return self.end - self.start

    def wait_time_by_kind(self) -> dict[WaitKind, float]:
        """Total blocked time per synchronization kind."""
        out: dict[WaitKind, float] = {}
        for w in self.waits:
            out[w.kind] = out.get(w.kind, 0.0) + w.duration
        return out


@dataclass(frozen=True, slots=True)
class CPPiece:
    """One contiguous execution span on the critical path.

    Pieces tile the whole execution: consecutive pieces share boundary
    times, the first starts at the trace start and the last ends at the
    trace end, so their durations sum to the end-to-end completion time.
    """

    tid: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class Junction:
    """A point where the critical path crosses from one thread to another.

    ``kind``/``obj`` describe the synchronization dependency at the
    crossing; ``obj`` is ``-1`` for thread-creation junctions.
    """

    time: float
    from_tid: int  # the waker (earlier on the path)
    to_tid: int  # the woken thread (later on the path)
    kind: WaitKind | None  # None for thread creation
    obj: int


@dataclass(frozen=True, slots=True)
class WakerTable:
    """Resolved wakers of one trace, keyed by event seq.

    ``wakes`` maps the *seq of a wake event* (OBTAIN with contended flag,
    BARRIER_DEPART, COND_WAKE, JOIN_END) to its waker; ``creations`` maps
    a child tid to the parent's THREAD_CREATE info.
    """

    wakes: dict[int, WakeInfo]
    creations: dict[int, WakeInfo]


@dataclass
class PathObjects:
    """A critical path as objects: ``pieces`` in forward time order;
    ``junctions`` marking the thread crossings between consecutive
    pieces (``len(junctions) == len(pieces) - 1``); ``waits``, the
    blocked intervals the walk traversed (one per synchronization
    junction, none for creations)."""

    pieces: list[CPPiece]
    junctions: list[Junction]
    waits: list[Wait]

    @property
    def length(self) -> float:
        """Sum of piece durations, added left to right."""
        total = 0.0
        for p in self.pieces:
            total += p.duration
        return total


@dataclass
class ReferenceResult:
    """What :func:`reference_analyze` produces: the object structures of
    every stage, the path's columns and the report."""

    trace: Trace
    critical_path: CriticalPath
    path: PathObjects
    report: AnalysisReport
    wakers: WakerTable
    timelines: dict[int, ThreadTimeline]

    def render(self, n: int | None = 10) -> str:
        return self.report.render(n)


def reference_analyze(trace: Trace) -> ReferenceResult:
    """Analyze ``trace`` with the per-event object pipeline.

    Resolve wakers → build timelines → backward walk → metrics, with no
    validation: callers that need it run ``validate_trace`` first.
    """
    wakers = resolve_wakers(trace)
    timelines = build_timelines(trace, wakers)
    path = compute_critical_path(trace, timelines, wakers)
    cp = _path_columns(path, timelines, trace.duration)
    report = AnalysisReport(
        name=str(trace.meta.get("name", "")),
        nthreads=len(timelines),
        duration=trace.duration,
        cp=cp,
        locks=compute_metrics(trace, timelines, path),
        thread_stats=compute_thread_stats(timelines, path),
    )
    return ReferenceResult(
        trace=trace, critical_path=cp, path=path, report=report, wakers=wakers,
        timelines=timelines,
    )


def _path_columns(
    path: PathObjects, timelines: dict[int, ThreadTimeline], duration: float
) -> CriticalPath:
    """``path`` as the columns production keeps.  A wait's row is its
    position among all waits ordered by (tid, wake seq), as in
    ``ColumnarTimelines``."""
    row_of = {
        w.wake_seq: k
        for k, w in enumerate(w for tl in timelines.values() for w in tl.waits)
    }
    waits = iter(path.waits)
    # The first piece begins at its thread's start; piece k + 1 begins
    # after junction k.
    piece_wait = [-1] + [
        row_of[next(waits).wake_seq] if j.kind is not None else -1
        for j in path.junctions
    ]
    return CriticalPath(
        piece_tid=np.array([p.tid for p in path.pieces], dtype=np.int64),
        piece_start=np.array([p.start for p in path.pieces], dtype=np.float64),
        piece_end=np.array([p.end for p in path.pieces], dtype=np.float64),
        piece_wait=np.array(piece_wait[:len(path.pieces)], dtype=np.int64),
        trace_duration=duration,
    )


# -- waker resolution -----------------------------------------------------


def resolve_wakers(trace: Trace) -> WakerTable:
    """Resolve the waker of every wake event in one pass over the trace.

    The paper's §IV.B rules: a contended OBTAIN is woken by the RELEASE
    just before it on that lock; a BARRIER_DEPART by its cohort's final
    BARRIER_ARRIVE; a COND_WAKE by the matching COND_SIGNAL /
    COND_BROADCAST; a JOIN_END by the joined thread's THREAD_EXIT; and a
    child's THREAD_START by the parent's THREAD_CREATE (``creations``).
    """
    wakes: dict[int, WakeInfo] = {}
    creations: dict[int, WakeInfo] = {}
    last_release: dict[int, WakeInfo] = {}  # obj -> most recent RELEASE
    last_signal: dict[int, WakeInfo] = {}  # cond obj -> most recent SIGNAL/BROADCAST
    exits: dict[int, WakeInfo] = {}  # tid -> THREAD_EXIT
    last_event: dict[int, WakeInfo] = {}  # tid -> that thread's latest event

    # Pass 1: the cohort's final arrival per (barrier, generation).  Done
    # up front because hand-built traces may interleave a departure before
    # the cohort's last ARRIVE at equal timestamps.
    last_arrival: dict[tuple[int, int], WakeInfo] = {}
    for ev in trace:
        if ev.etype == EventType.BARRIER_ARRIVE:
            last_arrival[(ev.obj, ev.arg)] = WakeInfo(ev.tid, ev.time, ev.seq)

    for ev in trace:
        et = ev.etype
        here = WakeInfo(ev.tid, ev.time, ev.seq)
        if et == EventType.RELEASE:
            last_release[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.OBTAIN:
            if ev.arg:  # contended acquisition: waker is the previous releaser
                rel = last_release.get(ev.obj)
                if rel is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: contended OBTAIN on "
                        f"{trace.object_name(ev.obj)} with no preceding RELEASE"
                    )
                wakes[ev.seq] = rel
        elif et == EventType.BARRIER_DEPART:
            arr = last_arrival.get((ev.obj, ev.arg))
            if arr is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: BARRIER_DEPART on {trace.object_name(ev.obj)} "
                    f"generation {ev.arg} with no arrivals"
                )
            wakes[ev.seq] = arr
        elif et in (EventType.COND_SIGNAL, EventType.COND_BROADCAST):
            last_signal[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.COND_WAKE:
            sig = last_signal.get(ev.obj)
            if sig is None or sig.waker_tid != ev.arg:
                # Hand-built traces may omit the COND_SIGNAL event; fall
                # back to the recorded signaller thread's latest event,
                # which is still causally before this wake.
                sig = last_event.get(ev.arg)
                if sig is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: COND_WAKE signalled by T{ev.arg} "
                        "which has no prior events"
                    )
            wakes[ev.seq] = sig
        elif et == EventType.THREAD_EXIT:
            exits[ev.tid] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.JOIN_END:
            target = exits.get(ev.arg)
            if target is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: JOIN_END on T{ev.arg} which has not exited"
                )
            wakes[ev.seq] = target
        elif et == EventType.THREAD_CREATE:
            creations[ev.arg] = here
        last_event[ev.tid] = here
    return WakerTable(wakes=wakes, creations=creations)


# -- columns -> objects ------------------------------------------------------


def _waits_from_columns(ct: ColumnarTimelines, rows=slice(None)) -> list[Wait]:
    """:class:`Wait` objects for the given rows of ``ct``'s wait columns."""
    fields = [
        col[rows].tolist()
        for col in (
            ct.w_tid, ct.w_kind, ct.w_obj, ct.w_start, ct.w_end, ct.w_wake_seq,
            ct.w_waker_tid, ct.w_waker_time, ct.w_waker_seq,
        )
    ]
    fields[1] = [WAIT_KIND_CODES[k] for k in fields[1]]
    return [Wait(*row) for row in zip(*fields)]


def waker_table_from_columns(cw: ColumnarWakers, records: np.ndarray) -> WakerTable:
    """The :func:`resolve_wakers` table that ``cw`` holds as columns."""
    seq = records["seq"]
    wakes: dict[int, WakeInfo] = {}
    for i in np.flatnonzero(cw.waker_seq >= 0):
        wakes[int(seq[i])] = WakeInfo(
            int(cw.waker_tid[i]), float(cw.waker_time[i]), int(cw.waker_seq[i])
        )
    return WakerTable(wakes=wakes, creations=dict(cw.creations))


def path_from_columns(result: AnalysisResult) -> PathObjects:
    """The :func:`compute_critical_path` objects that ``result`` holds as
    columns: pieces from the critical-path columns, traversed waits from
    its ``piece_wait`` rows into ``result.timeline_columns``."""
    cp = result.critical_path
    tids, starts = cp.piece_tid.tolist(), cp.piece_start.tolist()
    pieces = [CPPiece(*row) for row in zip(tids, starts, cp.piece_end.tolist())]
    waits = _waits_from_columns(result.timeline_columns, cp.piece_wait[cp.piece_wait >= 0])
    by_wait = iter(waits)
    junctions: list[Junction] = []
    # The first piece begins at its thread's start, never after a wait.
    for k, row in enumerate(cp.piece_wait.tolist()[1:], start=1):
        if row >= 0:
            w = next(by_wait)
            junctions.append(Junction(w.end, w.waker_tid, tids[k], w.kind, w.obj))
        else:
            junctions.append(Junction(starts[k], tids[k - 1], tids[k], None, -1))
    return PathObjects(pieces, junctions, waits)


def timelines_from_columns(ct: ColumnarTimelines) -> dict[int, ThreadTimeline]:
    """The :func:`build_timelines` objects that ``ct`` holds as columns,
    ``tl.holds`` key order included, for comparing the two pipelines."""
    waits = _waits_from_columns(ct)
    holds = [
        HoldInterval(*row)
        for row in zip(*(c.tolist() for c in (
            ct.h_tid, ct.h_obj, ct.h_start, ct.h_end, ct.h_contended, ct.h_acquire
        )))
    ]
    out: dict[int, ThreadTimeline] = {}
    for i, tid in enumerate(ct.tids.tolist()):
        tl = out[tid] = ThreadTimeline(
            tid, ct.names[i], float(ct.t_start[i]), float(ct.t_end[i])
        )
        if ct.creator_tid[i] >= 0:
            tl.creator_tid = int(ct.creator_tid[i])
            tl.create_time = float(ct.create_time[i])
            tl.create_seq = int(ct.create_seq[i])
        tl.waits = waits[ct.wait_lo[i]:ct.wait_hi[i]]
        for obj in ct.hold_obj_order.get(tid, ()):
            lo, hi = ct.hold_groups[(tid, obj)]
            tl.holds[obj] = holds[lo:hi]
    return out


# -- timelines -------------------------------------------------------------


def build_timelines(
    trace: Trace,
    wakers: WakerTable | None = None,
) -> dict[int, ThreadTimeline]:
    """Build every thread's timeline from a trace: its lifetime, its
    blocked intervals with resolved wakers, and its lock-hold intervals.

    ``wakers`` may be passed to reuse an existing resolution (the
    analyzer resolves once and shares it).
    """
    if wakers is None:
        wakers = resolve_wakers(trace)
    per_thread: dict[int, list[Event]] = defaultdict(list)
    for ev in trace:
        per_thread[ev.tid].append(ev)
    timelines: dict[int, ThreadTimeline] = {}
    for tid, events in sorted(per_thread.items()):
        timelines[tid] = _build_one(trace, tid, events, wakers)
    return timelines


def _build_one(
    trace: Trace,
    tid: int,
    events: list[Event],
    wakers: WakerTable,
) -> ThreadTimeline:
    tl = ThreadTimeline(tid, trace.thread_name(tid), events[0].time, events[-1].time)
    creation = wakers.creations.get(tid)
    if creation is not None:
        tl.creator_tid = creation.waker_tid
        tl.create_time = creation.waker_time
        tl.create_seq = creation.waker_seq

    pending_acquire: dict[int, float] = {}  # obj -> ACQUIRE time
    open_holds: dict[int, list[tuple[float, bool, float]]] = defaultdict(list)
    pending_barrier: dict[tuple[int, int], float] = {}  # (obj, gen) -> arrive time
    pending_cond: dict[int, float] = {}  # cond obj -> block time
    pending_join: dict[int, float] = {}  # target tid -> begin time

    def add_wait(kind: WaitKind, obj: int, start: float, ev: Event) -> None:
        info = wakers.wakes.get(ev.seq)
        if info is None:
            raise AnalysisError(f"seq {ev.seq}: wake event without resolved waker")
        wait = Wait(
            tid, kind, obj, start, ev.time, ev.seq,
            info.waker_tid, info.waker_time, info.waker_seq,
        )
        # A wait that never actually delayed the thread must not redirect
        # the backward walk: the thread was the barrier's last arriver
        # (waker is itself), the dependency was satisfied in the past
        # (e.g. joining an already-exited thread), or — equal timestamps
        # are routine in virtual time — the handoff was instantaneous.
        # The old ``waker_time < start`` form kept the instantaneous
        # case and could route the path through a dependency that cost
        # the thread nothing.
        if wait.duration == 0:
            return
        tl.waits.append(wait)

    for ev in events:
        et = ev.etype
        if et == EventType.ACQUIRE:
            pending_acquire[ev.obj] = ev.time
        elif et == EventType.OBTAIN:
            acquire_time = pending_acquire.pop(ev.obj, ev.time)
            if ev.arg:  # contended: this is a wake event
                add_wait(WaitKind.LOCK, ev.obj, acquire_time, ev)
            open_holds[ev.obj].append((ev.time, bool(ev.arg), acquire_time))
        elif et == EventType.RELEASE:
            stack = open_holds[ev.obj]
            if not stack:
                raise AnalysisError(
                    f"seq {ev.seq}: T{tid} RELEASE on "
                    f"{trace.object_name(ev.obj)} without OBTAIN"
                )
            obtain_time, contended, acquire_time = stack.pop()
            tl.holds.setdefault(ev.obj, []).append(
                HoldInterval(tid, ev.obj, obtain_time, ev.time, contended, acquire_time)
            )
        elif et == EventType.BARRIER_ARRIVE:
            pending_barrier[(ev.obj, ev.arg)] = ev.time
        elif et == EventType.BARRIER_DEPART:
            arrive = pending_barrier.pop((ev.obj, ev.arg), ev.time)
            add_wait(WaitKind.BARRIER, ev.obj, arrive, ev)
        elif et == EventType.COND_BLOCK:
            pending_cond[ev.obj] = ev.time
        elif et == EventType.COND_WAKE:
            block = pending_cond.pop(ev.obj, ev.time)
            add_wait(WaitKind.CONDITION, ev.obj, block, ev)
        elif et == EventType.JOIN_BEGIN:
            pending_join[ev.arg] = ev.time
        elif et == EventType.JOIN_END:
            begin = pending_join.pop(ev.arg, ev.time)
            add_wait(WaitKind.JOIN, ev.arg, begin, ev)

    # Unreleased holds extend to thread end (the validator flags these,
    # but the analyzer stays usable on truncated traces).
    for obj, stack in open_holds.items():
        for obtain_time, contended, acquire_time in stack:
            tl.holds.setdefault(obj, []).append(
                HoldInterval(tid, obj, obtain_time, tl.end, contended, acquire_time)
            )
    for hold_list in tl.holds.values():
        hold_list.sort(key=lambda h: (h.start, h.end))
    tl.waits.sort(key=lambda w: w.wake_seq)
    return tl


# -- the backward walk -----------------------------------------------------


def compute_critical_path(
    trace: Trace,
    timelines: dict[int, ThreadTimeline] | None = None,
    wakers: WakerTable | None = None,
) -> PathObjects:
    """Run the backward walk and return the critical path.

    Starting from the last event of the last finished thread, walk
    backwards; whenever the cursor follows a blocked interval, jump to
    the event that released it, otherwise keep walking the same thread.
    The cursor's seq strictly decreases at every jump, which bounds the
    walk.  ``timelines`` may be passed to reuse a previous
    :func:`build_timelines` result.
    """
    if len(trace) == 0:
        return PathObjects([], [], [])
    if timelines is None:
        timelines = build_timelines(trace, wakers)

    # Pre-extract each thread's wake-seq array for bisection.
    wake_seqs: dict[int, list[int]] = {
        tid: [w.wake_seq for w in tl.waits] for tid, tl in timelines.items()
    }

    last = trace[len(trace) - 1]
    tid, time, seq = last.tid, last.time, last.seq  # the cursor
    pieces: list[CPPiece] = []
    junctions: list[Junction] = []
    waits: list[Wait] = []

    # For traces produced by the simulator or the instrumentation layer a
    # waker's event always precedes the wake, so the cursor seq strictly
    # decreases and the walk visits at most one piece per wake event.  The
    # guard protects against hand-built traces that violate that ordering.
    max_steps = len(trace) + len(timelines) + 1

    while True:
        if len(pieces) > max_steps:
            raise AnalysisError(
                "backward walk did not terminate: trace has wake events "
                "recorded before their wakers"
            )
        tl = timelines[tid]
        idx = bisect_right(wake_seqs[tid], seq) - 1
        if idx >= 0:
            w = tl.waits[idx]
            pieces.append(CPPiece(tid, w.end, time))
            junctions.append(Junction(w.end, w.waker_tid, tid, w.kind, w.obj))
            waits.append(w)
            tid, time, seq = w.waker_tid, w.waker_time, w.waker_seq
        else:
            pieces.append(CPPiece(tid, tl.start, time))
            if tl.creator_tid is None:
                break
            junctions.append(Junction(tl.start, tl.creator_tid, tid, None, -1))
            tid, time, seq = tl.creator_tid, tl.create_time, tl.create_seq

    return PathObjects(pieces[::-1], junctions[::-1], waits[::-1])


# -- the event DAG's longest path --------------------------------------------


def critical_events(
    graph: EventGraph,
    weights: np.ndarray | None = None,
    dist: np.ndarray | None = None,
) -> list[int]:
    """Record positions of one longest path through ``graph``, in forward
    order.

    ``dist`` lets callers that already ran ``graph.longest_dist`` — or
    an equivalent recomputation, e.g. in rescaled time units — reuse it
    instead of paying the O(E) sweep again.  A supplied ``dist`` only
    has to be consistent with the weights up to float tolerance; see
    the backtracking comparison below.
    """
    w = (graph.edge_w if weights is None else weights).tolist()
    if dist is None:
        dist = graph.longest_dist(weights)
    exits = np.flatnonzero(graph.trace.records["etype"] == _THREAD_EXIT)
    if len(exits) == 0:  # truncated trace: end at the farthest event
        exits = np.flatnonzero(np.isfinite(dist))
        if len(exits) == 0:
            return []
    pos = int(exits[np.argmax(dist[exits])])
    # Incoming edges of event p are edges first_in[p]:first_in[p + 1].
    first_in = np.searchsorted(graph.edge_dst, np.arange(graph.n_events + 1)).tolist()
    src = graph.edge_src.tolist()
    dist = dist.tolist()
    path = [pos]
    while True:
        best_src = None
        for e in range(first_in[pos], first_in[pos + 1]):
            s = src[e]
            # Tolerant comparison: an independently-derived distance
            # array (a caller-supplied ``dist``, e.g. recomputed in
            # rescaled time units) accumulates float error along long
            # edge chains, leaving the true predecessor a few ulps
            # off dist[pos]; exact equality would truncate the walk.
            if math.isclose(
                dist[s] + w[e], dist[pos], rel_tol=1e-9, abs_tol=1e-12
            ) and (best_src is None or dist[s] > dist[best_src]):
                best_src = s
        if best_src is None:
            break
        pos = best_src
        path.append(pos)
    path.reverse()
    return path


# -- metrics ---------------------------------------------------------------


def _hold_cp_overlap(
    holds: list[HoldInterval], pieces: list[CPPiece]
) -> tuple[float, int, int]:
    """(overlap time, invocations on CP, contended invocations on CP).

    ``holds`` and ``pieces`` both belong to one thread and are sorted and
    pairwise disjoint, so a two-pointer sweep suffices.  A hold counts as
    "on the critical path" if it overlaps a piece for positive time, or —
    for zero-length holds — if it lies inside a piece.
    """
    total = 0.0
    on_cp = 0
    contended = 0
    pi = 0
    for h in holds:
        h_overlap = 0.0
        inside = False
        while pi < len(pieces) and pieces[pi].end < h.start:
            pi += 1
        pj = pi
        while pj < len(pieces) and pieces[pj].start <= h.end:
            p = pieces[pj]
            h_overlap += max(0.0, min(h.end, p.end) - max(h.start, p.start))
            if h.duration == 0 and p.start <= h.start <= p.end:
                inside = True
            pj += 1
        total += h_overlap
        if h_overlap > 0 or (h.duration == 0 and inside):
            on_cp += 1
            if h.contended:
                contended += 1
    return total, on_cp, contended


def compute_metrics(
    trace: Trace,
    timelines: dict[int, ThreadTimeline],
    path: PathObjects,
) -> dict[int, LockMetrics]:
    """Compute :class:`LockMetrics` for every lock-like object in the trace."""
    nthreads = max(1, len(timelines))
    cp_length = path.length
    pieces_by_thread: dict[int, list[CPPiece]] = defaultdict(list)
    for p in sorted(path.pieces, key=lambda p: (p.start, p.end)):
        pieces_by_thread[p.tid].append(p)

    out: dict[int, LockMetrics] = {}
    for info in trace.locks:
        obj = info.obj
        cp_hold = 0.0
        inv_on_cp = 0
        cont_on_cp = 0
        total_inv = 0
        cont_inv = 0
        total_wait = 0.0
        total_hold = 0.0
        wait_fracs = 0.0
        hold_fracs = 0.0
        for tid, tl in timelines.items():
            holds = tl.holds.get(obj, [])
            t_hold = sum(h.duration for h in holds)
            t_wait = sum(h.wait for h in holds)
            total_inv += len(holds)
            cont_inv += sum(1 for h in holds if h.contended)
            total_hold += t_hold
            total_wait += t_wait
            if tl.lifetime > 0:
                wait_fracs += t_wait / tl.lifetime
                hold_fracs += t_hold / tl.lifetime
            pieces = pieces_by_thread.get(tid)
            if pieces and holds:
                o, n, c = _hold_cp_overlap(holds, pieces)
                cp_hold += o
                inv_on_cp += n
                cont_on_cp += c
        avg_inv = total_inv / nthreads
        avg_hold_frac = hold_fracs / nthreads
        cp_frac = cp_hold / cp_length if cp_length > 0 else 0.0
        out[obj] = LockMetrics(
            obj=obj,
            name=info.display_name,
            kind=info.kind,
            cp_hold_time=cp_hold,
            cp_fraction=cp_frac,
            invocations_on_cp=inv_on_cp,
            contended_on_cp=cont_on_cp,
            invocation_increase=(inv_on_cp / avg_inv) if avg_inv > 0 else 0.0,
            size_increase=(cp_frac / avg_hold_frac) if avg_hold_frac > 0 else 0.0,
            cp_crossings=sum(
                1 for j in path.junctions if j.obj == obj and j.kind == WaitKind.LOCK
            ),
            total_invocations=total_inv,
            contended_invocations=cont_inv,
            avg_invocations=avg_inv,
            total_wait_time=total_wait,
            avg_wait_fraction=wait_fracs / nthreads,
            total_hold_time=total_hold,
            avg_hold_fraction=avg_hold_frac,
        )
    return out


def compute_thread_stats(
    timelines: dict[int, ThreadTimeline], path: PathObjects
) -> list[ThreadStats]:
    """Per-thread breakdown: execution vs each kind of blocking, CP share."""
    cp_by_tid: dict[int, float] = {}
    for p in path.pieces:
        cp_by_tid[p.tid] = cp_by_tid.get(p.tid, 0.0) + p.duration
    stats = []
    for tid, tl in sorted(timelines.items()):
        by_kind = tl.wait_time_by_kind()
        total_wait = sum(by_kind.values())
        stats.append(
            ThreadStats(
                tid=tid,
                name=tl.name,
                lifetime=tl.lifetime,
                exec_time=tl.lifetime - total_wait,
                lock_wait=by_kind.get(WaitKind.LOCK, 0.0),
                barrier_wait=by_kind.get(WaitKind.BARRIER, 0.0),
                cond_wait=by_kind.get(WaitKind.CONDITION, 0.0),
                join_wait=by_kind.get(WaitKind.JOIN, 0.0),
                cp_time=cp_by_tid.get(tid, 0.0),
            )
        )
    return stats


# -- structural checks -----------------------------------------------------


def reference_trace_problems(trace: Trace) -> list[str]:
    """Return the structural problems of ``trace``, checked event by event.

    Records whose event type is outside :class:`EventType` are reported
    first and then left out of every other check: no rule can interpret
    them.
    """
    problems: list[str] = []
    known = [int(row["etype"]) in _KNOWN_ETYPES for row in trace.records]
    for row, ok in zip(trace.records, known):
        if not ok:
            problems.append(f"seq {int(row['seq'])}: unknown event type {int(row['etype'])}")
    if problems:
        trace = Trace(
            records=trace.records[known],
            objects=trace.objects,
            threads=trace.threads,
            meta=trace.meta,
        )
    problems += _check_thread_lifecycles(trace)
    problems += _check_lock_protocol(trace)
    problems += _check_barriers(trace)
    problems += _check_condition_variables(trace)
    problems += _check_joins(trace)
    return problems


def _events_by_thread(trace: Trace) -> dict[int, list[Event]]:
    per: dict[int, list[Event]] = defaultdict(list)
    for ev in trace:
        per[ev.tid].append(ev)
    return per


def _check_thread_lifecycles(trace: Trace) -> list[str]:
    problems = []
    per = _events_by_thread(trace)
    created = {
        ev.arg for ev in trace if ev.etype == EventType.THREAD_CREATE
    }
    for tid, evs in sorted(per.items()):
        if evs[0].etype != EventType.THREAD_START:
            problems.append(f"T{tid}: first event is {evs[0].etype.name}, expected THREAD_START")
        if evs[-1].etype != EventType.THREAD_EXIT:
            problems.append(f"T{tid}: last event is {evs[-1].etype.name}, expected THREAD_EXIT")
        starts = sum(1 for ev in evs if ev.etype == EventType.THREAD_START)
        exits = sum(1 for ev in evs if ev.etype == EventType.THREAD_EXIT)
        if starts != 1:
            problems.append(f"T{tid}: {starts} THREAD_START events, expected 1")
        if exits != 1:
            problems.append(f"T{tid}: {exits} THREAD_EXIT events, expected 1")
    for child in sorted(created):
        if child not in per:
            problems.append(f"THREAD_CREATE names T{child} which emitted no events")
    return problems


def _check_lock_protocol(trace: Trace) -> list[str]:
    problems = []
    # Per (object, thread): pending ACQUIRE awaiting OBTAIN, held count.
    pending: dict[tuple[int, int], int] = defaultdict(int)
    held: dict[tuple[int, int], int] = defaultdict(int)
    owner: dict[int, int | None] = {}  # mutex exclusivity tracking
    for ev in trace:
        if ev.obj == NO_OBJECT or ev.etype not in (
            EventType.ACQUIRE,
            EventType.OBTAIN,
            EventType.RELEASE,
        ):
            continue
        info = trace.objects.get(ev.obj)
        kind = info.kind if info is not None else ObjectKind.MUTEX
        if not kind.is_lock_like:
            problems.append(
                f"seq {ev.seq}: {ev.etype.name} on non-lock object {trace.object_name(ev.obj)}"
            )
            continue
        key = (ev.obj, ev.tid)
        name = trace.object_name(ev.obj)
        if ev.etype == EventType.ACQUIRE:
            if pending[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} double-ACQUIRE on {name}")
            pending[key] += 1
        elif ev.etype == EventType.OBTAIN:
            if not pending[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} OBTAIN without ACQUIRE on {name}")
            else:
                pending[key] -= 1
            if kind == ObjectKind.MUTEX:
                prev = owner.get(ev.obj)
                if prev is not None:
                    problems.append(
                        f"seq {ev.seq}: T{ev.tid} OBTAIN on {name} while held by T{prev}"
                    )
                owner[ev.obj] = ev.tid
            held[key] += 1
        else:  # RELEASE
            if not held[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} RELEASE without OBTAIN on {name}")
            else:
                held[key] -= 1
            if kind == ObjectKind.MUTEX and owner.get(ev.obj) == ev.tid:
                owner[ev.obj] = None
    for (obj, tid), n in held.items():
        if n:
            problems.append(f"T{tid} exited holding {trace.object_name(obj)} ({n} levels)")
    for (obj, tid), n in pending.items():
        if n:
            problems.append(f"T{tid} exited with pending ACQUIRE on {trace.object_name(obj)}")
    return problems


def _check_barriers(trace: Trace) -> list[str]:
    problems = []
    arrivals: dict[tuple[int, int], list[int]] = defaultdict(list)
    departures: dict[tuple[int, int], list[int]] = defaultdict(list)
    for ev in trace:
        if ev.etype == EventType.BARRIER_ARRIVE:
            arrivals[(ev.obj, ev.arg)].append(ev.tid)
        elif ev.etype == EventType.BARRIER_DEPART:
            departures[(ev.obj, ev.arg)].append(ev.tid)
    for key in sorted(set(arrivals) | set(departures)):
        obj, gen = key
        a, d = sorted(arrivals.get(key, [])), sorted(departures.get(key, []))
        if a != d:
            problems.append(
                f"barrier {trace.object_name(obj)} generation {gen}: "
                f"arrivals {a} != departures {d}"
            )
    return problems


def _check_condition_variables(trace: Trace) -> list[str]:
    problems = []
    blocked: dict[tuple[int, int], int] = defaultdict(int)  # (cv, tid) -> pending blocks
    thread_ids = set(trace.thread_ids)
    for ev in trace:
        if ev.etype == EventType.COND_BLOCK:
            blocked[(ev.obj, ev.tid)] += 1
        elif ev.etype == EventType.COND_WAKE:
            key = (ev.obj, ev.tid)
            if not blocked[key]:
                problems.append(
                    f"seq {ev.seq}: T{ev.tid} COND_WAKE without COND_BLOCK on "
                    f"{trace.object_name(ev.obj)}"
                )
            else:
                blocked[key] -= 1
            if ev.arg not in thread_ids:
                problems.append(
                    f"seq {ev.seq}: COND_WAKE names unknown signaller T{ev.arg}"
                )
    for (obj, tid), n in blocked.items():
        if n:
            problems.append(
                f"T{tid} exited still blocked on condition {trace.object_name(obj)}"
            )
    return problems


def _check_joins(trace: Trace) -> list[str]:
    problems = []
    exit_seq: dict[int, int] = {}
    for ev in trace:
        if ev.etype == EventType.THREAD_EXIT:
            exit_seq[ev.tid] = ev.seq
    begun: dict[tuple[int, int], int] = defaultdict(int)
    for ev in trace:
        if ev.etype == EventType.JOIN_BEGIN:
            begun[(ev.tid, ev.arg)] += 1
        elif ev.etype == EventType.JOIN_END:
            key = (ev.tid, ev.arg)
            if not begun[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} JOIN_END without JOIN_BEGIN on T{ev.arg}")
            else:
                begun[key] -= 1
            target_exit = exit_seq.get(ev.arg)
            if target_exit is None:
                problems.append(f"seq {ev.seq}: T{ev.tid} joined T{ev.arg} which never exited")
            elif target_exit > ev.seq:
                problems.append(
                    f"seq {ev.seq}: T{ev.tid} JOIN_END precedes T{ev.arg} THREAD_EXIT"
                )
    return problems
