"""Forward event-graph formulation of the critical path.

An independent cross-check of the backward walk, and the engine behind
what-if predictions: events are nodes; edges are

* same-thread program order, weighted by the elapsed execution time
  (weight 0 across blocked intervals),
* wake dependencies (lock RELEASE → contended OBTAIN, last
  BARRIER_ARRIVE → BARRIER_DEPART, COND_SIGNAL → COND_WAKE,
  THREAD_EXIT → JOIN_END), weight 0,
* THREAD_CREATE → THREAD_START, weight 0.

The longest weighted path to the last event equals the critical path
length; re-weighting execution edges (e.g. shrinking the spans during
which a given lock is held) and recomputing yields the paper's
"expected speedup" — including the path shift the paper observes when an
optimized lock stops dominating (§V.D.3).

The graph is built from the columnar wakers and timelines
(:mod:`repro.core.columnar`) and the trace index's thread order, with
no per-event objects: each edge kind is one array, and one stable sort
by destination puts them in the order the longest-path sweep relaxes
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.columnar.metrics import interval_overlaps
from repro.core.columnar.timelines import ColumnarTimelines, build_timelines_columnar
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["EventGraph", "build_event_graph"]

_OBTAIN = int(EventType.OBTAIN)
_THREAD_START = int(EventType.THREAD_START)
_THREAD_EXIT = int(EventType.THREAD_EXIT)


@dataclass
class EventGraph:
    """Weighted DAG over trace events (see module docstring).

    ``edge_src``/``edge_dst`` index into trace record positions, sorted
    by destination; ``edge_w`` are base weights.  The execution edges
    (candidates for what-if re-weighting) are the span columns
    ``span_edge``/``span_tid``/``span_t0``/``span_t1``, grouped by
    ascending tid.  ``wake_obj`` is the lock object of each contended
    lock handoff edge and ``-1`` on every other edge (candidates for
    contention-elimination what-ifs).
    """

    trace: Trace
    timelines: ColumnarTimelines
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_w: np.ndarray
    span_edge: np.ndarray
    span_tid: np.ndarray
    span_t0: np.ndarray
    span_t1: np.ndarray
    wake_obj: np.ndarray
    # Record positions of root THREAD_START events (the longest-path
    # sources).  Computed once by :func:`build_event_graph`; graphs built
    # by hand get it lazily on first use.
    source_pos: np.ndarray | None = None
    _overlaps: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def n_events(self) -> int:
        return len(self.trace)

    @property
    def sources(self) -> np.ndarray:
        """Root THREAD_START positions (cached; see ``source_pos``)."""
        if self.source_pos is None:
            self.source_pos = _root_start_positions(self.trace)
        return self.source_pos

    @cached_property
    def _edge_lists(self) -> tuple[list[int], list[int]]:
        """``edge_src`` / ``edge_dst`` as Python lists, for the sweeps."""
        return self.edge_src.tolist(), self.edge_dst.tolist()

    def longest_dist(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Longest-path distance to every event (source-anchored).

        THREAD_START events of root threads are sources with distance
        equal to their offset from the trace start, so distances read as
        "earliest completion time since trace start".  An edge of weight
        ``-inf`` is never relaxed.
        """
        w = (self.edge_w if weights is None else weights).tolist()
        times = self.trace.records["time"]
        start = self.trace.start_time
        dist = [-math.inf] * self.n_events
        for pos in self.sources.tolist():
            dist[pos] = float(times[pos]) - start
        # Edges are sorted by destination, so one ordered sweep relaxes
        # the whole DAG.  Python floats add exactly like float64.
        src, dst = self._edge_lists
        for s, d, we in zip(src, dst, w):
            cand = dist[s] + we
            if cand > dist[d]:
                dist[d] = cand
        return np.array(dist, dtype=np.float64)

    def completion_time(self, weights: np.ndarray | None = None) -> float:
        """Longest-path length to the end of the execution.

        Traces with no THREAD_EXIT events (truncated captures) fall back
        to the max distance over all events, so what-if and forecasting
        on partial traces report finite times instead of zero.
        """
        dist = self.longest_dist(weights)
        exits = np.flatnonzero(self.trace.records["etype"] == _THREAD_EXIT)
        if len(exits) == 0:
            finite = dist[np.isfinite(dist)]
            return float(np.max(finite)) if len(finite) else 0.0
        return float(np.max(dist[exits]))

    def span_hold_overlap(self, obj: int) -> np.ndarray:
        """Per execution span, its overlap with lock ``obj``'s holds by the
        same thread (cached per lock).

        For a span ``[t0, t1]`` the holds considered start at the last
        one whose start is ``<= t0`` and run up to the first starting at
        or after ``t1``, in start order.
        """
        cached = self._overlaps.get(obj)
        if cached is not None:
            return cached
        ct = self.timelines
        out = np.zeros(len(self.span_edge), dtype=np.float64)
        for (tid, o), (glo, ghi) in ct.hold_groups.items():
            if o != obj:
                continue
            lo = int(np.searchsorted(self.span_tid, tid, side="left"))
            hi = int(np.searchsorted(self.span_tid, tid, side="right"))
            h_s, h_e = ct.h_start[glo:ghi], ct.h_end[glo:ghi]
            t0, t1 = self.span_t0[lo:hi], self.span_t1[lo:hi]
            first = np.maximum(np.searchsorted(h_s, t0, side="right") - 1, 0)
            last = np.searchsorted(h_s, t1, side="left")
            out[lo:hi] = interval_overlaps(t0, t1, h_s, h_e, first, last)
        self._overlaps[obj] = out
        return out

    def shrunk_weights(self, obj: int, factor: float) -> np.ndarray:
        """Edge weights with lock ``obj``'s critical sections scaled by ``factor``.

        Execution time that overlaps a hold of ``obj`` is multiplied by
        ``factor`` (0 removes the critical sections entirely, 0.5 halves
        them); all other time is untouched.
        """
        if factor < 0:
            raise ValueError(f"shrink factor must be >= 0, got {factor}")
        overlap = self.span_hold_overlap(obj)
        hit = overlap > 0
        weights = self.edge_w.copy()
        weights[self.span_edge[hit]] -= (1.0 - factor) * overlap[hit]
        return weights


def _root_start_positions(trace: Trace) -> np.ndarray:
    """Record positions of THREAD_START events of root (uncreated) threads."""
    records = trace.records
    etypes = records["etype"]
    created = records["arg"][etypes == int(EventType.THREAD_CREATE)]
    start_pos = np.flatnonzero(etypes == _THREAD_START)
    return start_pos[~np.isin(records["tid"][start_pos], created)]


def build_event_graph(
    trace: Trace,
    timelines: ColumnarTimelines | None = None,
    wakers: ColumnarWakers | None = None,
) -> EventGraph:
    """Construct the event DAG from a trace's columnar wakers and timelines."""
    if wakers is None:
        wakers = resolve_wakers_columnar(trace)
    if timelines is None:
        timelines = build_timelines_columnar(trace, wakers)
    rec = trace.records
    n = len(rec)
    etype, tid = trace.index.etype, trace.index.tid
    time = rec["time"]
    seq = rec["seq"].astype(np.int64)  # the waker columns' dtype

    # Program order: consecutive rows of each thread.  The edge into a
    # thread's wake event spans a blocked wait and weighs 0; every other
    # one carries execution time.
    order = trace.index.thread_order.astype(np.int64)
    same = tid[order[1:]] == tid[order[:-1]]
    p_src, p_dst = order[:-1][same], order[1:][same]
    after_wait = np.zeros(n, dtype=bool)
    after_wait[np.searchsorted(seq, timelines.w_wake_seq)] = True
    runs = ~after_wait[p_dst]
    p_w = np.where(runs, time[p_dst] - time[p_src], 0.0)

    # Wake edges: waker event -> wake event.
    w_dst = np.flatnonzero(wakers.waker_seq >= 0)
    w_src = np.searchsorted(seq, wakers.waker_seq[w_dst])
    w_obj = np.where(etype[w_dst] == _OBTAIN, trace.index.obj[w_dst], -1)

    # Creation edges: THREAD_CREATE -> every THREAD_START of the child.
    c_dst = np.flatnonzero(etype == _THREAD_START)
    creator = {child: c.waker_seq for child, c in wakers.creations.items()}
    creator_seq = np.array([creator.get(t, -1) for t in tid[c_dst].tolist()], dtype=np.int64)
    c_dst = c_dst[creator_seq >= 0]
    c_src = np.searchsorted(seq, creator_seq[creator_seq >= 0])

    # Per destination: program-order edge, then wake edge, then creation
    # edge; the stable sort keeps that order among equal destinations.
    dst = np.concatenate([p_dst, w_dst, c_dst]).astype(np.int64)
    by_dst = np.argsort(dst, kind="stable")
    rank = np.empty_like(by_dst)
    rank[by_dst] = np.arange(len(by_dst))
    src = np.concatenate([p_src, w_src, c_src]).astype(np.int64)
    weight = np.concatenate([p_w, np.zeros(len(w_dst) + len(c_dst))])
    wake_obj = np.concatenate(
        [np.full(len(p_dst), -1), w_obj, np.full(len(c_dst), -1)]
    ).astype(np.int64)

    return EventGraph(
        trace=trace,
        timelines=timelines,
        edge_src=src[by_dst],
        edge_dst=dst[by_dst],
        edge_w=weight[by_dst],
        span_edge=rank[: len(p_dst)][runs],
        span_tid=tid[p_dst[runs]].astype(np.int64),
        span_t0=time[p_src[runs]].astype(np.float64),
        span_t1=time[p_dst[runs]].astype(np.float64),
        wake_obj=wake_obj[by_dst],
        source_pos=_root_start_positions(trace),
    )
