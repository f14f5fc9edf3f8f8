"""Trace transformations: time slicing and thread filtering.

Long traces are unwieldy; these utilities cut analyzable sub-traces:

* :func:`slice_time` keeps the events of a time window and *repairs the
  boundary*: synthetic THREAD_START/THREAD_EXIT bracket each thread's
  surviving events, critical sections open at the left edge get a
  synthetic ACQUIRE/OBTAIN at the window start, and sections still open
  at the right edge get a synthetic RELEASE at the window end — so the
  slice passes validation and the analyzer runs unchanged.
* :func:`filter_threads` keeps a thread subset (plus repairs), for
  zooming into one worker pool of a larger system.

Boundary repair keeps per-thread state consistent; cross-thread
dependencies whose waker fell outside the window degrade gracefully
(the wait collapses because its OBTAIN becomes uncontended).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

import numpy as np

from repro.errors import TraceError
from repro.trace.events import EventType, ObjectKind
from repro.trace.trace import Trace

__all__ = ["slice_time", "filter_threads", "demote_orphan_contention"]


def slice_time(trace: Trace, start: float, end: float) -> Trace:
    """Extract the [start, end] window as a standalone valid trace."""
    if end <= start:
        raise TraceError(f"empty slice window [{start}, {end}]")
    times = trace.records["time"]
    kept = trace.records[(times >= start) & (times <= end)]
    return _repair(trace, kept, start, end, trace.thread_ids)


def filter_threads(trace: Trace, tids: Iterable[int]) -> Trace:
    """Keep only the given threads' events (boundary-repaired)."""
    wanted = set(tids)
    unknown = wanted - set(trace.thread_ids)
    if unknown:
        raise TraceError(f"unknown thread ids: {sorted(unknown)}")
    kept = trace.records[np.isin(trace.records["tid"], list(wanted))]
    return _repair(trace, kept, trace.start_time, trace.end_time, sorted(wanted))


_LIFECYCLE = frozenset({
    EventType.THREAD_START, EventType.THREAD_EXIT, EventType.THREAD_CREATE,
    EventType.JOIN_BEGIN, EventType.JOIN_END,
})
_BARRIER = (EventType.BARRIER_ARRIVE, EventType.BARRIER_DEPART)


def _repair(
    trace: Trace,
    kept: np.ndarray,
    start: float,
    end: float,
    tids: Iterable[int],
) -> Trace:
    """Make the kept records structurally valid (see module docstring).

    Works on ``(seq, time, tid, etype, obj, arg)`` row tuples.
    """
    rows: list[tuple] = []
    per_thread: dict[int, list[tuple]] = defaultdict(list)
    for row in kept.tolist():
        per_thread[row[2]].append(row)

    lock_ids = {
        info.obj
        for info in trace.objects.values()
        if info.kind in (ObjectKind.MUTEX, ObjectKind.SEMAPHORE, ObjectKind.RWLOCK)
    }

    # Synthetic-event ordering: leading synths (THREAD_START, pre-window
    # acquisitions) must sort before every real event at the same time,
    # trailing synths (closing RELEASEs, THREAD_EXIT) after — real events
    # keep their original seq, so leading seqs are negative and trailing
    # seqs start past the trace's maximum.
    lead_seq = [-1_000_000_000]
    tail_seq = [int(trace.records["seq"][-1]) + 1 if len(trace) else 1]

    for tid in tids:
        out: list[tuple] = []
        held: list[tuple[int, int]] = []  # (obj, mode) stack
        # obj -> (rwlock mode, the ACQUIRE row itself); keeping the row
        # lets the dangling filter below remove exactly that instance.
        pending_acquire: dict[int, tuple[int, tuple]] = {}
        # The thread exists for the window portion of its original life.
        o_start, o_end = trace.thread_span(tid)
        t_first = max(start, o_start)
        t_end = min(end, o_end)

        def synth(time, etype, obj=-1, arg=0, trailing=False):
            if trailing:
                tail_seq[0] += 1
                seq = tail_seq[0]
            else:
                lead_seq[0] += 1
                seq = lead_seq[0]
            out.append((seq, time, tid, etype, obj, arg))

        synth(t_first, EventType.THREAD_START)
        for row in per_thread.get(tid, []):
            _, time, _, et, obj, arg = row
            if et in _LIFECYCLE:
                # Lifecycle is resynthesized; joins/creates reference
                # threads that may be outside the slice: drop them.
                continue
            if obj in lock_ids:
                if et == EventType.ACQUIRE:
                    pending_acquire[obj] = (arg, row)
                    out.append(row)
                    continue
                if et == EventType.OBTAIN:
                    if obj in pending_acquire:
                        mode, _ = pending_acquire.pop(obj)
                    else:
                        # The ACQUIRE fell before the window: synthesize it
                        # (leading), keeping the original OBTAIN so it stays
                        # ordered after the previous holder's RELEASE.
                        mode = 0
                        synth(time, EventType.ACQUIRE, obj=obj)
                    out.append(row)
                    held.append((obj, mode))
                    continue
                if et == EventType.RELEASE:
                    match = next(
                        (i for i in range(len(held) - 1, -1, -1)
                         if held[i][0] == obj),
                        None,
                    )
                    if match is None:
                        # Hold opened before the window: synthesize the
                        # acquisition at the window start.
                        synth(t_first, EventType.ACQUIRE, obj=obj, arg=arg)
                        synth(t_first, EventType.OBTAIN, obj=obj)
                        # Re-sort later puts these first (same time as start).
                    else:
                        held.pop(match)
                    out.append(row)
                    continue
            out.append(row)
        # Close still-open holds and dangling acquires at the window end.
        t_last = max(t_end, max((r[1] for r in out), default=t_end))
        for obj, mode in reversed(held):
            synth(t_last, EventType.RELEASE, obj=obj, arg=mode, trailing=True)
        # Dangling ACQUIREs (their OBTAIN fell past the window) are noise —
        # remove exactly those instances, not every ACQUIRE on the object.
        dangling = {id(acq_row) for _, acq_row in pending_acquire.values()}
        out = [r for r in out if id(r) not in dangling]
        synth(t_last, EventType.THREAD_EXIT, trailing=True)
        rows.extend(out)

    # Drop barrier events whose cohort was cut in half (unmatched
    # arrivals/departures fail validation and carry no usable dependency).
    counts: dict[tuple[int, int, int], int] = defaultdict(int)  # (obj,gen,etype)
    for r in rows:
        if r[3] in _BARRIER:
            counts[(r[4], r[5], r[3])] += 1
    arrive, depart = _BARRIER
    rows = [
        r
        for r in rows
        if r[3] not in _BARRIER
        or counts[(r[4], r[5], arrive)] == counts[(r[4], r[5], depart)]
    ]
    # Cond events: drop wakes whose block was cut (and vice versa).
    cond_ok: dict[tuple[int, int], int] = defaultdict(int)
    for r in rows:
        if r[3] == EventType.COND_BLOCK:
            cond_ok[(r[4], r[2])] += 1
    rows = [r for r in rows if r[3] != EventType.COND_WAKE or cond_ok[(r[4], r[2])] > 0]

    meta = dict(trace.meta)
    meta["sliced_from"] = [trace.start_time, trace.end_time]
    meta["slice_window"] = [start, end]
    # A contended OBTAIN whose releasing predecessor fell outside the
    # window has no resolvable waker: demote it to uncontended (the wait
    # context is gone along with the waker).
    repaired, _ = demote_orphan_contention(
        Trace.from_events(rows, objects=trace.objects, threads=trace.threads, meta=meta)
    )
    return repaired


def demote_orphan_contention(trace: Trace) -> tuple[Trace, int]:
    """Demote contended OBTAINs with no surviving prior RELEASE to arg=0.

    Sampled captures (:mod:`repro.sampling`) and imported foreign dumps
    (:mod:`repro.trace.importers`) can contain a contended OBTAIN whose
    waking RELEASE was dropped or never recorded; waker resolution would
    fail on it.  As in :func:`slice_time`'s boundary repair, the wait
    context is gone along with the waker, so the acquisition is demoted
    to uncontended.  Returns ``(trace, number_of_demotions)``; the input
    trace is returned unchanged when nothing needs repair.
    """
    records = trace.records
    etype = records["etype"]
    lock_objs = {info.obj for info in trace.objects.values() if info.kind.is_lock_like}
    released: set[int] = set()
    demote: list[int] = []
    candidates = (etype == int(EventType.OBTAIN)) | (etype == int(EventType.RELEASE))
    for i in np.flatnonzero(candidates):
        obj = int(records["obj"][i])
        if obj not in lock_objs:
            continue
        if etype[i] == int(EventType.RELEASE):
            released.add(obj)
        elif records["arg"][i] and obj not in released:
            demote.append(int(i))
    if not demote:
        return trace, 0
    repaired = records.copy()
    repaired["arg"][demote] = 0
    return (
        Trace(
            records=repaired,
            objects=dict(trace.objects),
            threads=dict(trace.threads),
            meta=dict(trace.meta),
        ),
        len(demote),
    )
