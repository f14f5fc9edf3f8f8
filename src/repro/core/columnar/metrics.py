"""Columnar TYPE 1 / TYPE 2 metrics, bit-identical to the per-event
reference :func:`repro.check.reference.compute_metrics`.

Bit-identity constrains the implementation everywhere floats are summed:
the reference accumulates left to right, and IEEE addition is not
associative, so every per-group total here is a sequential ``np.cumsum``
(empirically identical to a Python ``sum`` loop), never ``np.sum`` /
``np.add.reduceat`` (pairwise summation).  The interval-overlap kernel
(:func:`interval_overlaps`) adds each interval's terms in reference
order for the same reason; the hold/critical-path overlap
(:func:`hold_cp_overlaps`) and the event DAG's span/hold overlap
(:meth:`repro.core.dag.EventGraph.span_hold_overlap`) both run on it.
:func:`cp_hold_by_interval` cuts the same (hold, piece) pairs at
interval edges for the windowed and barrier-phase views.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar.timelines import ColumnarTimelines
from repro.core.model import (
    WAIT_KIND_CODES,
    CriticalPath,
    LockMetrics,
    ThreadStats,
    WaitKind,
)
from repro.trace.ops import exact_group_sums, group_bounds, sort_order
from repro.trace.trace import Trace

__all__ = [
    "NO_PIECES",
    "compute_metrics_columnar",
    "compute_thread_stats_columnar",
    "cp_hold_by_interval",
    "exact_sum",
    "hold_cp_overlaps",
    "interval_overlaps",
    "split_intervals",
    "thread_pieces",
]

_LOCK_CODE = WAIT_KIND_CODES.index(WaitKind.LOCK)


def exact_sum(values: np.ndarray) -> float:
    """Left-to-right IEEE sum (what a Python accumulator loop computes)."""
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _expand(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(i, first[i] + j)`` for every ``i`` and ``j < count[i]``, i-major."""
    owner = np.repeat(np.arange(len(first)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, first[owner] + offset


def interval_overlaps(
    q_s: np.ndarray,
    q_e: np.ndarray,
    r_s: np.ndarray,
    r_e: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per query interval ``i``, its total overlap with the reference
    intervals ``[lo[i], hi[i])``, added in reference order.

    Each term is ``max(0, min(q_e, r_e) - max(q_s, r_s))``.  The
    (query, reference) pairs are listed query-major and ``bincount``
    adds their terms in that order, left to right within a query: the
    order a two-pointer sweep over the references adds them in, so the
    sums are bit-identical to one.
    """
    q, r = _expand(lo, np.maximum(hi - lo, 0))
    term = np.maximum(0.0, np.minimum(q_e[q], r_e[r]) - np.maximum(q_s[q], r_s[r]))
    # A bincount of no items comes back as int64: keep the sums float.
    return np.bincount(q, term, minlength=len(q_s)).astype(np.float64)


def _piece_range(
    h_s: np.ndarray, h_e: np.ndarray, p_s: np.ndarray, p_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per hold, the ``[lo, hi)`` range of the pieces it is paired with:
    those ending at or after its start and starting at or before its end."""
    return np.searchsorted(p_e, h_s, side="left"), np.searchsorted(p_s, h_e, side="right")


def hold_cp_overlaps(
    h_s: np.ndarray,
    h_e: np.ndarray,
    p_s: np.ndarray,
    p_e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per hold of one thread, its critical-path overlap and whether it
    is on the critical path.

    ``p_s``/``p_e`` are the thread's pieces sorted by (start, end)
    (:func:`thread_pieces`); the holds are sorted by start.  A hold is
    on the path if it overlaps one of its pieces (:func:`_piece_range`)
    for positive time or, when it has zero length, lies inside one.
    """
    lo, hi = _piece_range(h_s, h_e, p_s, p_e)
    overlap = interval_overlaps(h_s, h_e, p_s, p_e, lo, hi)
    on_cp = (overlap > 0) | ((h_e == h_s) & (hi > lo))
    return overlap, on_cp


#: The pieces of a thread the critical path never visits: every hold
#: overlaps them by 0 and is off the path.
NO_PIECES = (np.zeros(0), np.zeros(0))


def thread_pieces(cp: CriticalPath) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """tid -> (piece starts, piece ends), sorted by (start, end) with
    ties in path order; threads off the path are absent (see
    :data:`NO_PIECES`)."""
    order = np.lexsort((cp.piece_end, cp.piece_start, cp.piece_tid))
    p_start, p_end = cp.piece_start[order], cp.piece_end[order]
    starts, piece_tids = group_bounds(cp.piece_tid[order])
    bounds = np.append(starts, len(order)).tolist()
    return {
        tid: (p_start[lo:hi], p_end[lo:hi])
        for tid, lo, hi in zip(piece_tids.tolist(), bounds[:-1], bounds[1:])
    }


def split_intervals(
    s: np.ndarray, e: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut intervals ``[s, e)`` at the buckets ``[lo[k], hi[k])`` (both
    ascending): for every (interval, bucket) pair that overlaps for
    positive time, the interval, the bucket and the overlap,
    interval-major."""
    first = np.searchsorted(hi, s, side="right")
    item, bucket = _expand(first, np.maximum(np.searchsorted(lo, e, side="left") - first, 0))
    overlap = np.minimum(e[item], hi[bucket]) - np.maximum(s[item], lo[bucket])
    keep = overlap > 0
    return item[keep], bucket[keep], overlap[keep]


def cp_hold_by_interval(
    ct: ColumnarTimelines, cp: CriticalPath, edges: np.ndarray, objs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Critical-path time per interval ``[edges[i], edges[i + 1])``, and
    per (interval, lock ``objs[j]``) the part of it inside that lock's
    holds.

    Each hold is paired with its thread's pieces as in
    :func:`hold_cp_overlaps`, so over intervals that cover the path the
    lock columns add up to the metrics' ``cp_hold_time`` (nested holds
    of one lock included).
    """
    nint, lo, hi = len(edges) - 1, edges[:-1], edges[1:]
    _, where, overlap = split_intervals(cp.piece_start, cp.piece_end, lo, hi)
    # A bincount of no items comes back as int64: keep the sums float.
    cp_time = np.bincount(where, overlap, minlength=nint).astype(np.float64)

    column = {obj: j for j, obj in enumerate(objs)}
    pieces = thread_pieces(cp)
    seg_s, seg_e, seg_col = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    for (tid, obj), (h_lo, h_hi) in ct.hold_groups.items():
        if obj not in column or tid not in pieces:
            continue
        p_s, p_e = pieces[tid]
        h_s, h_e = ct.h_start[h_lo:h_hi], ct.h_end[h_lo:h_hi]
        first, stop = _piece_range(h_s, h_e, p_s, p_e)
        hold, piece = _expand(first, np.maximum(stop - first, 0))
        seg_s.append(np.maximum(h_s[hold], p_s[piece]))
        seg_e.append(np.minimum(h_e[hold], p_e[piece]))
        seg_col.append(np.full(len(hold), column[obj], dtype=np.int64))
    seg, where, overlap = split_intervals(np.concatenate(seg_s), np.concatenate(seg_e), lo, hi)
    cells = where * len(objs) + np.concatenate(seg_col)[seg]
    hold_time = np.bincount(cells, overlap, minlength=nint * len(objs)).astype(np.float64)
    return cp_time, hold_time.reshape(nint, len(objs))


def compute_metrics_columnar(
    trace: Trace,
    ct: ColumnarTimelines,
    cp: CriticalPath,
) -> dict[int, LockMetrics]:
    """Columnar twin of :func:`repro.check.reference.compute_metrics`."""
    nthreads = max(1, len(ct.tids))
    cp_length = cp.length
    piece_arrays = thread_pieces(cp)
    # cp was walked over ct, so its wait rows index ct's wait columns.
    rows = cp.piece_wait[cp.piece_wait >= 0]
    rows = rows[ct.w_kind[rows] == _LOCK_CODE]
    crossed, counts = np.unique(ct.w_obj[rows], return_counts=True)
    lock_crossings = dict(zip(crossed.tolist(), counts.tolist()))

    durations = ct.h_end - ct.h_start
    hold_waits = ct.h_start - ct.h_acquire
    lifetimes = ct.t_end - ct.t_start

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
        for i, t in enumerate(ct.tids):
            tid = int(t)
            group = ct.hold_groups.get((tid, obj))
            if group is None:
                t_hold = 0.0
                t_wait = 0.0
            else:
                lo, hi = group
                t_hold = exact_sum(durations[lo:hi])
                t_wait = exact_sum(hold_waits[lo:hi])
                total_inv += hi - lo
                contended = ct.h_contended[lo:hi]
                cont_inv += int(np.count_nonzero(contended))
                overlap, on_cp = hold_cp_overlaps(
                    ct.h_start[lo:hi], ct.h_end[lo:hi], *piece_arrays.get(tid, NO_PIECES)
                )
                cp_hold += exact_sum(overlap)
                inv_on_cp += int(np.count_nonzero(on_cp))
                cont_on_cp += int(np.count_nonzero(on_cp & contended))
            total_hold += t_hold
            total_wait += t_wait
            lifetime = float(lifetimes[i])
            if lifetime > 0:
                wait_fracs += t_wait / lifetime
                hold_fracs += t_hold / lifetime
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
            cp_crossings=lock_crossings.get(obj, 0),
            total_invocations=total_inv,
            contended_invocations=cont_inv,
            avg_invocations=avg_inv,
            total_wait_time=total_wait,
            avg_wait_fraction=wait_fracs / nthreads,
            total_hold_time=total_hold,
            avg_hold_fraction=avg_hold_frac,
        )
    return out


def compute_thread_stats_columnar(
    ct: ColumnarTimelines, cp: CriticalPath
) -> list[ThreadStats]:
    """Columnar twin of :func:`repro.check.reference.compute_thread_stats`."""
    # Per-thread sums of piece durations, added in path order.
    order = sort_order(cp.piece_tid)
    starts, piece_tids = group_bounds(cp.piece_tid[order])
    ends = np.append(starts[1:], len(order))
    durations = (cp.piece_end - cp.piece_start)[order]
    cp_by_tid = dict(
        zip(piece_tids.tolist(), exact_group_sums(durations, starts, ends).tolist())
    )
    wait_durations = ct.w_end - ct.w_start
    stats = []
    for i, t in enumerate(ct.tids):
        tid = int(t)
        lo, hi = int(ct.wait_lo[i]), int(ct.wait_hi[i])
        kinds = ct.w_kind[lo:hi]
        durs = wait_durations[lo:hi]
        # dict-insertion order = first appearance of each kind
        by_kind: dict[WaitKind, float] = {}
        if hi > lo:
            codes, first = np.unique(kinds, return_index=True)
            for k in np.argsort(first):
                code = codes[k]
                by_kind[WAIT_KIND_CODES[code]] = exact_sum(durs[kinds == code])
        total_wait = sum(by_kind.values())
        lifetime = float(ct.t_end[i] - ct.t_start[i])
        stats.append(
            ThreadStats(
                tid=tid,
                name=ct.names[i],
                lifetime=lifetime,
                exec_time=lifetime - total_wait,
                lock_wait=by_kind.get(WaitKind.LOCK, 0.0),
                barrier_wait=by_kind.get(WaitKind.BARRIER, 0.0),
                cond_wait=by_kind.get(WaitKind.CONDITION, 0.0),
                join_wait=by_kind.get(WaitKind.JOIN, 0.0),
                cp_time=cp_by_tid.get(tid, 0.0),
            )
        )
    return stats
