"""Per-thread timeline construction.

Turns the flat event trace into one :class:`ThreadTimeline` per thread:
the thread's lifetime, its blocked intervals (paper: segments that are
"blocked in the beginning") with resolved wakers, and its lock-hold
intervals (critical sections).
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import AnalysisError
from repro.core.model import HoldInterval, ThreadTimeline, Wait, WaitKind
from repro.core.wakers import WakerTable, resolve_wakers
from repro.trace.events import Event, EventType
from repro.trace.trace import Trace

__all__ = ["build_timelines"]


def build_timelines(
    trace: Trace,
    wakers: WakerTable | None = None,
) -> dict[int, ThreadTimeline]:
    """Build every thread's timeline from a trace.

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
    tl = ThreadTimeline(
        tid=tid,
        name=trace.thread_name(tid),
        start=events[0].time,
        end=events[-1].time,
    )
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
            tid=tid,
            kind=kind,
            obj=obj,
            start=start,
            end=ev.time,
            wake_seq=ev.seq,
            waker_tid=info.waker_tid,
            waker_time=info.waker_time,
            waker_seq=info.waker_seq,
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
                HoldInterval(
                    tid=tid,
                    obj=ev.obj,
                    start=obtain_time,
                    end=ev.time,
                    contended=contended,
                    acquire_time=acquire_time,
                )
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
                HoldInterval(
                    tid=tid,
                    obj=obj,
                    start=obtain_time,
                    end=tl.end,
                    contended=contended,
                    acquire_time=acquire_time,
                )
            )
    for hold_list in tl.holds.values():
        hold_list.sort(key=lambda h: (h.start, h.end))
    tl.waits.sort(key=lambda w: w.wake_seq)
    return tl
