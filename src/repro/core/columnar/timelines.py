"""Columnar timeline construction (array form of :mod:`repro.core.segments`).

The object engine walks each thread's events with five little dicts
(pending acquire/barrier/cond/join slots and per-lock hold stacks).
Here each dict becomes one vectorized pass:

* every "pending X" slot pairs a getter with the row just before it
  among its key's setters (ACQUIRE, BARRIER_ARRIVE, COND_BLOCK,
  JOIN_BEGIN) and getters, valid iff that row is a setter (getters
  always pop).  The acquire slot reads the trace index's
  ``(tid, obj)``-grouped lock rows
  (:meth:`~repro.trace.index.TraceIndex.acquire_slots`); the other
  three are one :func:`~repro.trace.ops.previous_in_key` pass each;
* the per-``(tid, lock)`` hold stacks are a parenthesis matching on the
  index's held-level walk
  (:meth:`~repro.trace.index.TraceIndex.lifo_closes`), which leaves the
  holds grouped and in start order — only equal start times need a sort;
* waits and holds end up as flat parallel arrays with per-thread /
  per-``(tid, obj)`` group index ranges, and :meth:`ColumnarTimelines.
  to_object` reconstructs the exact object-engine ``ThreadTimeline``
  dict — including the insertion order of ``holds`` keys, which viz and
  export iterate.

A wait with ``duration == 0`` never delayed its thread, so it is
dropped here and in the object engine alike (it must not redirect the
backward walk through a dependency that cost nothing; see
``docs/algorithm.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.ops import dense_keys, group_bounds, previous_in_key, sort_order
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.core.model import HoldInterval, ThreadTimeline, Wait, WaitKind
from repro.errors import AnalysisError
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["ColumnarTimelines", "build_timelines_columnar", "WAIT_KIND_CODES"]

#: Wait-kind code (uint8 column value) -> WaitKind, in a fixed order.
WAIT_KIND_CODES: list[WaitKind] = [
    WaitKind.LOCK,
    WaitKind.BARRIER,
    WaitKind.CONDITION,
    WaitKind.JOIN,
]

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)
_ARRIVE = int(EventType.BARRIER_ARRIVE)
_DEPART = int(EventType.BARRIER_DEPART)
_COND_BLOCK = int(EventType.COND_BLOCK)
_COND_WAKE = int(EventType.COND_WAKE)
_JOIN_BEGIN = int(EventType.JOIN_BEGIN)
_JOIN_END = int(EventType.JOIN_END)


def _empty_f8() -> np.ndarray:
    return np.zeros(0, dtype=np.float64)


def _empty_i8() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class ColumnarTimelines:
    """Array-of-struct free timelines: waits/holds as parallel columns.

    Waits are sorted by ``(tid, wake_seq)`` (each thread's slice is the
    object engine's ``tl.waits`` order); holds by ``(tid, obj, start,
    end, insertion)`` (each group is ``tl.holds[obj]`` post-sort order).
    """

    # per-thread scalars, aligned with the sorted ``tids`` array
    tids: np.ndarray = field(default_factory=_empty_i8)
    names: list[str] = field(default_factory=list)
    t_start: np.ndarray = field(default_factory=_empty_f8)
    t_end: np.ndarray = field(default_factory=_empty_f8)
    creator_tid: np.ndarray = field(default_factory=_empty_i8)  # -1 = root
    create_time: np.ndarray = field(default_factory=_empty_f8)
    create_seq: np.ndarray = field(default_factory=_empty_i8)
    # waits, sorted by (tid, wake_seq); [wait_lo[i], wait_hi[i]) per tid
    w_tid: np.ndarray = field(default_factory=_empty_i8)
    w_kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    w_obj: np.ndarray = field(default_factory=_empty_i8)
    w_start: np.ndarray = field(default_factory=_empty_f8)
    w_end: np.ndarray = field(default_factory=_empty_f8)
    w_wake_seq: np.ndarray = field(default_factory=_empty_i8)
    w_waker_tid: np.ndarray = field(default_factory=_empty_i8)
    w_waker_time: np.ndarray = field(default_factory=_empty_f8)
    w_waker_seq: np.ndarray = field(default_factory=_empty_i8)
    wait_lo: np.ndarray = field(default_factory=_empty_i8)
    wait_hi: np.ndarray = field(default_factory=_empty_i8)
    # holds, sorted by (tid, obj, start, end, insertion order)
    h_tid: np.ndarray = field(default_factory=_empty_i8)
    h_obj: np.ndarray = field(default_factory=_empty_i8)
    h_start: np.ndarray = field(default_factory=_empty_f8)
    h_end: np.ndarray = field(default_factory=_empty_f8)
    h_contended: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    h_acquire: np.ndarray = field(default_factory=_empty_f8)
    #: (tid, obj) -> [lo, hi) into the hold arrays
    hold_groups: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: tid -> lock objs in the object engine's ``tl.holds`` dict order
    hold_obj_order: dict[int, list[int]] = field(default_factory=dict)
    #: total event count of the underlying trace (walk-guard sizing)
    n_events: int = 0

    # -- materialization ---------------------------------------------------

    def to_object(self) -> dict[int, ThreadTimeline]:
        """Rebuild the exact ``build_timelines`` output (objects)."""
        out: dict[int, ThreadTimeline] = {}
        for i, t in enumerate(self.tids):
            tid = int(t)
            tl = ThreadTimeline(
                tid=tid,
                name=self.names[i],
                start=float(self.t_start[i]),
                end=float(self.t_end[i]),
            )
            if self.creator_tid[i] >= 0:
                tl.creator_tid = int(self.creator_tid[i])
                tl.create_time = float(self.create_time[i])
                tl.create_seq = int(self.create_seq[i])
            lo, hi = int(self.wait_lo[i]), int(self.wait_hi[i])
            tl.waits = [self._wait_at(j) for j in range(lo, hi)]
            for obj in self.hold_obj_order.get(tid, ()):
                glo, ghi = self.hold_groups[(tid, obj)]
                tl.holds[obj] = [self._hold_at(j) for j in range(glo, ghi)]
            out[tid] = tl
        return out

    def _wait_at(self, j: int) -> Wait:
        return Wait(
            tid=int(self.w_tid[j]),
            kind=WAIT_KIND_CODES[self.w_kind[j]],
            obj=int(self.w_obj[j]),
            start=float(self.w_start[j]),
            end=float(self.w_end[j]),
            wake_seq=int(self.w_wake_seq[j]),
            waker_tid=int(self.w_waker_tid[j]),
            waker_time=float(self.w_waker_time[j]),
            waker_seq=int(self.w_waker_seq[j]),
        )

    def _hold_at(self, j: int) -> HoldInterval:
        return HoldInterval(
            tid=int(self.h_tid[j]),
            obj=int(self.h_obj[j]),
            start=float(self.h_start[j]),
            end=float(self.h_end[j]),
            contended=bool(self.h_contended[j]),
            acquire_time=float(self.h_acquire[j]),
        )


def _slot_values(
    key_cols: tuple[np.ndarray, ...],
    time: np.ndarray,
    setter_pos: np.ndarray,
    getter_pos: np.ndarray,
) -> np.ndarray:
    """Dict-slot semantics: for each getter, the latest prior setter's
    time — valid only if no getter popped the slot in between.

    Getters always pop, so a getter sees a value iff the row just before
    it among the setters and getters of its key is a setter.  Invalid
    slots carry the getter's own time (the object engine's ``dict.pop``
    default).
    """
    rows = np.concatenate([setter_pos, getter_pos])
    ns = len(setter_pos)
    prev = previous_in_key(rows, dense_keys(*(c[rows] for c in key_cols)))[ns:]
    valid = (prev >= 0) & (prev < ns)
    return np.where(valid, time[rows[np.maximum(prev, 0)]], time[getter_pos])


def build_timelines_columnar(
    trace: Trace,
    wakers: ColumnarWakers | None = None,
) -> ColumnarTimelines:
    """Columnar twin of :func:`repro.core.segments.build_timelines`."""
    if wakers is None:
        wakers = resolve_wakers_columnar(trace)
    rec = trace.records
    n = len(rec)
    ct = ColumnarTimelines(n_events=n)
    if n == 0:
        return ct
    ix = trace.index
    etype, tid, obj = ix.etype, ix.tid, ix.obj
    arg = rec["arg"]
    # Contiguous: the gathers below hit it in lock order, not trace order.
    time = np.ascontiguousarray(rec["time"])
    seq = rec["seq"]

    # -- per-thread spans --------------------------------------------------
    order, starts = ix.thread_order, ix.thread_starts
    tids = ix.tids.astype(np.int64)
    ends = np.append(starts[1:], n) - 1
    ct.tids = tids
    ct.names = [trace.thread_name(int(t)) for t in tids]
    ct.t_start = time[order[starts]].astype(np.float64)
    ct.t_end = time[order[ends]].astype(np.float64)
    ct.creator_tid = np.full(len(tids), -1, dtype=np.int64)
    ct.create_time = np.zeros(len(tids), dtype=np.float64)
    ct.create_seq = np.full(len(tids), -1, dtype=np.int64)
    tindex = {int(t): i for i, t in enumerate(tids)}
    for child, info in wakers.creations.items():
        i = tindex.get(int(child))
        if i is not None:
            ct.creator_tid[i] = info.waker_tid
            ct.create_time[i] = info.waker_time
            ct.create_seq[i] = info.waker_seq

    # -- pending-slot matching per wait kind -------------------------------
    # OBTAINs stay in the index's lock order, (tid, obj, position).
    lock_ob, lock_acq = ix.acquire_slots()
    obtains = ix.lock_rows[lock_ob]
    acq_vals = time[np.where(lock_acq >= 0, ix.lock_rows[lock_acq], obtains)]

    departs = np.flatnonzero(etype == _DEPART)
    arrive_vals = _slot_values(
        (tid, obj, arg), time, np.flatnonzero(etype == _ARRIVE), departs
    )

    cond_wakes = np.flatnonzero(etype == _COND_WAKE)
    block_vals = _slot_values(
        (tid, obj), time, np.flatnonzero(etype == _COND_BLOCK), cond_wakes
    )

    join_ends = np.flatnonzero(etype == _JOIN_END)
    begin_vals = _slot_values(
        (tid, arg), time, np.flatnonzero(etype == _JOIN_BEGIN), join_ends
    )

    # -- wait rows ---------------------------------------------------------
    contended = (arg != 0)[obtains]
    lock_q = obtains[contended]
    parts = [
        (lock_q, np.uint8(0), obj[lock_q], acq_vals[contended]),
        (departs, np.uint8(1), obj[departs], arrive_vals),
        (cond_wakes, np.uint8(2), obj[cond_wakes], block_vals),
        (join_ends, np.uint8(3), arg[join_ends], begin_vals),
    ]
    w_pos = np.concatenate([p[0] for p in parts])
    w_kind = np.concatenate([np.full(len(p[0]), p[1], dtype=np.uint8) for p in parts])
    w_obj = np.concatenate([np.asarray(p[2], dtype=np.int64) for p in parts])
    w_start = np.concatenate([np.asarray(p[3], dtype=np.float64) for p in parts])
    w_end = time[w_pos].astype(np.float64)
    # Zero-duration waits never delayed the thread: drop them (both
    # engines; see module docstring).
    keep = w_end > w_start
    w_pos, w_kind, w_obj, w_start, w_end = (
        a[keep] for a in (w_pos, w_kind, w_obj, w_start, w_end)
    )
    worder = sort_order(tid[w_pos], w_pos)
    w_pos = w_pos[worder]
    ct.w_tid = tid[w_pos].astype(np.int64)
    ct.w_kind = w_kind[worder]
    ct.w_obj = w_obj[worder]
    ct.w_start = w_start[worder]
    ct.w_end = w_end[worder]
    ct.w_wake_seq = seq[w_pos].astype(np.int64)
    ct.w_waker_tid = wakers.waker_tid[w_pos]
    ct.w_waker_time = wakers.waker_time[w_pos]
    ct.w_waker_seq = wakers.waker_seq[w_pos]
    ct.wait_lo, ct.wait_hi = _spans_for(tids, ct.w_tid)

    # -- holds: LIFO matching per (tid, lock) ------------------------------
    lock_close, unmatched = ix.lifo_closes()
    if len(unmatched):
        # The object engine scans threads in sorted-tid order and raises
        # at the first bad RELEASE it meets.
        bpos = ix.lock_rows[unmatched]
        p = bpos[sort_order(tid[bpos], bpos)[0]]
        raise AnalysisError(
            f"seq {int(seq[p])}: T{int(tid[p])} RELEASE on "
            f"{trace.object_name(int(obj[p]))} without OBTAIN"
        )
    matched = lock_close >= 0
    close = ix.lock_rows[lock_close]
    h_tid = tid[obtains].astype(np.int64)
    h_start = time[obtains]
    h_end = np.where(matched, time[close], ct.t_end[np.searchsorted(tids, h_tid)])
    # Insertion rank: matched holds are appended at their RELEASE, the
    # leftovers after the event loop — ranks n + obtain pos sort last.
    h_rank = np.where(matched, close, obtains + np.int64(n))
    # Lock order leaves holds grouped by (tid, obj) and in start order;
    # only equal start times within a group still need (end, rank).
    group = ix.lock_groups()[lock_ob]
    tied = (h_start[1:] == h_start[:-1]) & (group[1:] == group[:-1])
    horder = np.lexsort((h_rank, h_end, h_start, group)) if tied.any() else slice(None)
    ct.h_tid = h_tid[horder]
    ct.h_obj = obj[obtains][horder].astype(np.int64)
    ct.h_start = h_start[horder]
    ct.h_end = h_end[horder]
    ct.h_contended = contended[horder]
    ct.h_acquire = acq_vals[horder]
    _index_hold_groups(ct, group, h_rank[horder], n)
    return ct


def _spans_for(tids: np.ndarray, sorted_item_tid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-tid [lo, hi) ranges into an array sorted by tid."""
    lo = np.searchsorted(sorted_item_tid, tids, side="left")
    hi = np.searchsorted(sorted_item_tid, tids, side="right")
    return lo.astype(np.int64), hi.astype(np.int64)


def _index_hold_groups(
    ct: ColumnarTimelines, group: np.ndarray, sorted_rank: np.ndarray, n: int
) -> None:
    """Build (tid, obj) group ranges and the ``tl.holds`` dict key order.

    ``group`` is the (ascending) lock group number of each hold.

    The object engine inserts a lock into ``tl.holds`` at its first
    RELEASE (``setdefault``) and appends leftover-only locks afterwards
    in first-OBTAIN order — reproduced via each group's minimum
    insertion rank, split on matched (< n) vs leftover (>= n) ranks.
    """
    ct.hold_groups = {}
    ct.hold_obj_order = {}
    if len(ct.h_tid) == 0:
        return
    starts, _ = group_bounds(group)
    bounds = np.append(starts, len(group))
    order_keys: dict[int, list[tuple[int, int, int]]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        t, o = int(ct.h_tid[lo]), int(ct.h_obj[lo])
        ct.hold_groups[(t, o)] = (int(lo), int(hi))
        ranks = sorted_rank[lo:hi]
        matched = ranks[ranks < n]
        if len(matched):
            key = (0, int(matched.min()))
        else:
            key = (1, int(ranks.min()) - n)
        order_keys.setdefault(t, []).append((key[0], key[1], o))
    for t, entries in order_keys.items():
        ct.hold_obj_order[t] = [o for _, _, o in sorted(entries)]
