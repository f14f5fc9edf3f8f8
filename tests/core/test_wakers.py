"""Waker resolution rules on hand-built traces."""

import pytest

from repro.check.reference import resolve_wakers
from repro.errors import WakerResolutionError
from repro.trace.builder import TraceBuilder
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace


def test_lock_waker_is_previous_releaser(handoff_trace):
    table = resolve_wakers(handoff_trace)
    # T1's contended OBTAIN (seq of the OBTAIN event at t=4).
    wake_seq = next(
        ev.seq for ev in handoff_trace
        if ev.etype == EventType.OBTAIN and ev.arg == 1
    )
    info = table.wakes[wake_seq]
    assert info.waker_tid == 0
    assert info.waker_time == 4.0


def test_barrier_waker_is_last_arriver():
    b = TraceBuilder()
    bar = b.barrier_obj("B")
    threads = [b.thread(f"t{i}") for i in range(3)]
    for i, t in enumerate(threads):
        t.start(at=0.0)
        t.barrier(bar, arrive=float(i), depart=2.0, gen=0)
        t.exit(at=3.0)
    trace = b.build()
    table = resolve_wakers(trace)
    departs = [ev for ev in trace if ev.etype == EventType.BARRIER_DEPART]
    for ev in departs:
        info = table.wakes[ev.seq]
        assert info.waker_tid == 2  # arrived at t=2, last
        assert info.waker_time == 2.0


def test_cond_waker_is_signaller():
    b = TraceBuilder()
    cv = b.condition("cv")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.cond_block(cv, at=1.0)
    t1.cond_signal(cv, at=2.0)
    t0.cond_wake(cv, at=2.0, by=t1)
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build()
    table = resolve_wakers(trace)
    wake = next(ev for ev in trace if ev.etype == EventType.COND_WAKE)
    info = table.wakes[wake.seq]
    assert info.waker_tid == 1
    assert info.waker_time == 2.0


def test_cond_waker_fallback_without_signal_event():
    b = TraceBuilder()
    cv = b.condition("cv")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.cond_block(cv, at=1.0)
    t0.cond_wake(cv, at=2.0, by=t1)  # t1 never emits COND_SIGNAL
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build()
    table = resolve_wakers(trace)
    wake = next(ev for ev in trace if ev.etype == EventType.COND_WAKE)
    assert table.wakes[wake.seq].waker_tid == 1


def test_join_waker_is_target_exit():
    b = TraceBuilder()
    t0, t1 = b.thread("main"), b.thread("child")
    t0.start(at=0.0)
    t0.create(t1, at=0.5)
    t1.start(at=0.5)
    t1.exit(at=2.0)
    t0.join(t1, begin=1.0, end=2.0)
    t0.exit(at=3.0)
    trace = b.build()
    table = resolve_wakers(trace)
    join_end = next(ev for ev in trace if ev.etype == EventType.JOIN_END)
    info = table.wakes[join_end.seq]
    assert info.waker_tid == t1.tid
    assert info.waker_time == 2.0


def test_creation_table():
    b = TraceBuilder()
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t0.create(t1, at=1.0)
    t1.start(at=1.0)
    t1.exit(at=2.0)
    t0.exit(at=3.0)
    trace = b.build()
    table = resolve_wakers(trace)
    assert table.creations[t1.tid].waker_tid == t0.tid
    assert table.creations[t1.tid].waker_time == 1.0
    assert t0.tid not in table.creations


def test_contended_obtain_without_release_rejected():
    events = [
        Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START),
        Event(seq=1, time=1.0, tid=0, etype=EventType.ACQUIRE, obj=0),
        Event(seq=2, time=2.0, tid=0, etype=EventType.OBTAIN, obj=0, arg=1),
        Event(seq=3, time=3.0, tid=0, etype=EventType.THREAD_EXIT),
    ]
    trace = Trace.from_events(
        events, objects={0: ObjectInfo(obj=0, kind=ObjectKind.MUTEX, name="L")}
    )
    with pytest.raises(WakerResolutionError, match="no preceding RELEASE"):
        resolve_wakers(trace)


def test_join_end_without_exit_rejected():
    events = [
        Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START),
        Event(seq=1, time=1.0, tid=0, etype=EventType.JOIN_BEGIN, arg=5),
        Event(seq=2, time=2.0, tid=0, etype=EventType.JOIN_END, arg=5),
        Event(seq=3, time=3.0, tid=0, etype=EventType.THREAD_EXIT),
    ]
    trace = Trace.from_events(events)
    with pytest.raises(WakerResolutionError, match="has not exited"):
        resolve_wakers(trace)


def test_uncontended_obtains_have_no_waker(micro_trace):
    table = resolve_wakers(micro_trace)
    uncontended = [
        ev.seq for ev in micro_trace
        if ev.etype == EventType.OBTAIN and ev.arg == 0
    ]
    for seq in uncontended:
        assert seq not in table.wakes
