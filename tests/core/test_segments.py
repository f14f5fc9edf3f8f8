"""Timeline construction: waits, holds, creation links, skip rules."""

from repro.check.reference import build_timelines
from repro.core.model import WaitKind
from repro.trace.builder import TraceBuilder
from repro.trace.events import EventType


def test_handoff_waits_and_holds(handoff_trace):
    timelines = build_timelines(handoff_trace)
    t0, t1 = timelines[0], timelines[1]
    assert t0.waits == []
    assert len(t1.waits) == 1
    w = t1.waits[0]
    assert (w.start, w.end) == (2.0, 4.0)
    assert w.kind == WaitKind.LOCK
    assert w.waker_tid == 0
    # Holds: T0 [1,4], T1 [4,5].
    (h0,) = t0.holds[0]
    (h1,) = t1.holds[0]
    assert (h0.start, h0.end, h0.contended) == (1.0, 4.0, False)
    assert (h1.start, h1.end, h1.contended) == (4.0, 5.0, True)
    assert h1.wait == 2.0


def test_lifetime_and_totals(handoff_trace):
    timelines = build_timelines(handoff_trace)
    assert timelines[0].lifetime == 4.0
    assert timelines[1].lifetime == 6.0
    assert sum(w.duration for w in timelines[1].waits) == 2.0
    assert sum(h.duration for h in timelines[1].holds[0]) == 1.0
    assert timelines[0].wait_time_by_kind() == {}


def test_last_barrier_arriver_has_no_wait():
    b = TraceBuilder()
    bar = b.barrier_obj("B")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.barrier(bar, arrive=1.0, depart=2.0, gen=0)
    t1.barrier(bar, arrive=2.0, depart=2.0, gen=0)  # last arriver
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    timelines = build_timelines(b.build())
    assert len(timelines[t0.tid].waits) == 1
    assert timelines[t1.tid].waits == []  # never blocked


def test_join_of_dead_thread_not_a_wait():
    b = TraceBuilder()
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t0.create(t1, at=0.1)
    t1.start(at=0.1)
    t1.exit(at=1.0)
    t0.join(t1, begin=5.0, end=5.0)  # target exited long ago
    t0.exit(at=6.0)
    timelines = build_timelines(b.build())
    assert timelines[t0.tid].waits == []


def test_blocking_join_is_a_wait():
    b = TraceBuilder()
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t0.create(t1, at=0.1)
    t1.start(at=0.1)
    t1.exit(at=4.0)
    t0.join(t1, begin=1.0, end=4.0)
    t0.exit(at=5.0)
    timelines = build_timelines(b.build())
    (w,) = timelines[t0.tid].waits
    assert w.kind == WaitKind.JOIN
    assert (w.start, w.end) == (1.0, 4.0)
    assert w.waker_tid == t1.tid


def test_creation_links():
    b = TraceBuilder()
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t0.create(t1, at=1.5)
    t1.start(at=1.5)
    t1.exit(at=2.0)
    t0.exit(at=3.0)
    timelines = build_timelines(b.build())
    assert timelines[t0.tid].creator_tid is None
    assert timelines[t1.tid].creator_tid == t0.tid
    assert timelines[t1.tid].create_time == 1.5


def test_zero_length_contended_handoff_dropped():
    # A contended "wait" of zero duration (acquire at the exact release
    # instant) never delayed the thread, so it must not become a Wait —
    # keeping it would redirect the backward walk through a dependency
    # that cost nothing.  The hold is still recorded as contended.
    b = TraceBuilder()
    lock = b.mutex("L")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.critical_section(lock, acquire=0.0, obtain=0.0, release=2.0)
    t1._emit(2.0, EventType.ACQUIRE, obj=lock)
    t1._emit(2.0, EventType.OBTAIN, obj=lock, arg=1)
    t1.release(lock, at=3.0)
    t0.exit(at=2.0)
    t1.exit(at=3.0)
    timelines = build_timelines(b.build())
    assert timelines[t1.tid].waits == []
    (h,) = timelines[t1.tid].holds[lock]
    assert h.contended


def test_multiple_locks_tracked_independently(micro_trace):
    timelines = build_timelines(micro_trace)
    for tid, tl in timelines.items():
        assert len(tl.holds[0]) == 1  # L1
        assert len(tl.holds[1]) == 1  # L2
        assert tl.holds[0][0].duration == 2.0
        assert tl.holds[1][0].duration == 2.5
