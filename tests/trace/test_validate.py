"""Each class of trace malformation is detected with the exact message list.

Every case checks the vectorized checker against the per-event reference
(``repro.check.reference``) for *exact* list equality, order included,
and pins the expected list itself.
"""

import tracemalloc

import numpy as np
import pytest

from repro.check.reference import reference_trace_problems
from repro.core.analyzer import analyze
from repro.errors import TraceValidationError
from repro.trace.builder import TraceBuilder
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.validate import trace_problems, validate_trace
from repro.workloads import SyntheticLocks


def problems(trace):
    """The vectorized problem list, asserted identical to the reference."""
    got = trace_problems(trace)
    assert got == reference_trace_problems(trace)
    return got


def test_valid_micro_trace_passes(micro_trace):
    validate_trace(micro_trace)  # no exception
    assert problems(micro_trace) == []


def test_valid_handoff_passes(handoff_trace):
    assert problems(handoff_trace) == []


def test_empty_trace_passes():
    assert problems(Trace.from_events([])) == []


def _trace(events, objects=None):
    return Trace.from_events(events, objects=objects or {})


LOCK = {0: ObjectInfo(obj=0, kind=ObjectKind.MUTEX, name="L")}


def _ev(seq, time, tid, etype, obj=-1, arg=0):
    return Event(seq=seq, time=time, tid=tid, etype=etype, obj=obj, arg=arg)


def _lifecycle(tid, start, end, middle=()):
    return [
        _ev(0, start, tid, EventType.THREAD_START),
        *middle,
        _ev(10_000, end, tid, EventType.THREAD_EXIT),
    ]


class TestLifecycleChecks:
    def test_missing_start(self):
        t = _trace(
            [
                _ev(0, 0.0, 0, EventType.ACQUIRE, obj=0),
                _ev(1, 0.0, 0, EventType.OBTAIN, obj=0),
                _ev(2, 1.0, 0, EventType.RELEASE, obj=0),
                _ev(3, 1.0, 0, EventType.THREAD_EXIT),
            ],
            LOCK,
        )
        assert problems(t) == [
            "T0: first event is ACQUIRE, expected THREAD_START",
            "T0: 0 THREAD_START events, expected 1",
        ]

    def test_missing_exit(self):
        t = _trace([_ev(0, 0.0, 0, EventType.THREAD_START)])
        assert problems(t) == [
            "T0: last event is THREAD_START, expected THREAD_EXIT",
            "T0: 0 THREAD_EXIT events, expected 1",
        ]

    def test_phantom_created_thread(self):
        t = _trace(
            _lifecycle(0, 0.0, 1.0, middle=[_ev(1, 0.5, 0, EventType.THREAD_CREATE, arg=7)])
        )
        assert problems(t) == ["THREAD_CREATE names T7 which emitted no events"]

    def test_threads_reported_in_tid_order(self):
        t = _trace(
            [
                _ev(0, 0.0, 5, EventType.THREAD_START),
                _ev(1, 0.0, 2, EventType.THREAD_EXIT),
                _ev(2, 0.0, 2, EventType.THREAD_START),
                _ev(3, 1.0, 2, EventType.THREAD_EXIT),
                _ev(4, 1.0, 5, EventType.THREAD_START),
                _ev(5, 2.0, 5, EventType.THREAD_EXIT),
                _ev(6, 2.0, 5, EventType.THREAD_CREATE, arg=9),
                _ev(7, 2.0, 5, EventType.THREAD_CREATE, arg=8),
            ]
        )
        assert problems(t) == [
            "T2: first event is THREAD_EXIT, expected THREAD_START",
            "T2: 2 THREAD_EXIT events, expected 1",
            "T5: last event is THREAD_CREATE, expected THREAD_EXIT",
            "T5: 2 THREAD_START events, expected 1",
            "THREAD_CREATE names T8 which emitted no events",
            "THREAD_CREATE names T9 which emitted no events",
        ]


class TestLockChecks:
    def test_obtain_without_acquire(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    _ev(1, 0.5, 0, EventType.OBTAIN, obj=0),
                    _ev(2, 1.0, 0, EventType.RELEASE, obj=0),
                ],
            ),
            LOCK,
        )
        assert problems(t) == ["seq 1: T0 OBTAIN without ACQUIRE on L"]

    def test_release_without_obtain(self):
        t = _trace(
            _lifecycle(0, 0.0, 2.0, middle=[_ev(1, 0.5, 0, EventType.RELEASE, obj=0)]),
            LOCK,
        )
        assert problems(t) == ["seq 1: T0 RELEASE without OBTAIN on L"]

    def test_exit_while_holding(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    _ev(1, 0.5, 0, EventType.ACQUIRE, obj=0),
                    _ev(2, 0.5, 0, EventType.OBTAIN, obj=0),
                ],
            ),
            LOCK,
        )
        assert problems(t) == ["T0 exited holding L (1 levels)"]

    def test_double_acquire_and_pending_at_exit(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    _ev(1, 0.5, 0, EventType.ACQUIRE, obj=0),
                    _ev(2, 0.6, 0, EventType.ACQUIRE, obj=0),
                ],
            ),
            LOCK,
        )
        assert problems(t) == [
            "seq 2: T0 double-ACQUIRE on L",
            "T0 exited with pending ACQUIRE on L",
        ]

    def test_mutex_exclusivity_violation(self):
        events = [
            _ev(0, 0.0, 0, EventType.THREAD_START),
            _ev(1, 0.0, 1, EventType.THREAD_START),
            _ev(2, 0.1, 0, EventType.ACQUIRE, obj=0),
            _ev(3, 0.1, 0, EventType.OBTAIN, obj=0),
            _ev(4, 0.2, 1, EventType.ACQUIRE, obj=0),
            _ev(5, 0.2, 1, EventType.OBTAIN, obj=0),  # still held!
            _ev(6, 0.3, 0, EventType.RELEASE, obj=0),
            _ev(7, 0.3, 1, EventType.RELEASE, obj=0),
            _ev(8, 0.4, 0, EventType.THREAD_EXIT),
            _ev(9, 0.4, 1, EventType.THREAD_EXIT),
        ]
        assert problems(_trace(events, LOCK)) == ["seq 5: T1 OBTAIN on L while held by T0"]

    def test_owner_release_frees_mutex_whatever_the_level(self):
        # Ownership is not level-aware: T0's first RELEASE of a mutex it
        # obtained twice frees it, so T1's OBTAIN after it is legal.
        events = [
            _ev(0, 0.0, 0, EventType.THREAD_START),
            _ev(1, 0.0, 1, EventType.THREAD_START),
            _ev(2, 0.1, 0, EventType.ACQUIRE, obj=0),
            _ev(3, 0.1, 0, EventType.OBTAIN, obj=0),
            _ev(4, 0.2, 0, EventType.ACQUIRE, obj=0),
            _ev(5, 0.2, 0, EventType.OBTAIN, obj=0),
            _ev(6, 0.3, 0, EventType.RELEASE, obj=0),
            _ev(7, 0.3, 1, EventType.ACQUIRE, obj=0),
            _ev(8, 0.3, 1, EventType.OBTAIN, obj=0),
            _ev(9, 0.4, 1, EventType.RELEASE, obj=0),
            _ev(10, 0.4, 0, EventType.RELEASE, obj=0),
            _ev(11, 0.5, 0, EventType.THREAD_EXIT),
            _ev(12, 0.5, 1, EventType.THREAD_EXIT),
        ]
        assert problems(_trace(events, LOCK)) == ["seq 5: T0 OBTAIN on L while held by T0"]

    def test_semaphores_allow_concurrent_holders(self):
        sem = {0: ObjectInfo(obj=0, kind=ObjectKind.SEMAPHORE, name="S")}
        events = [
            _ev(0, 0.0, 0, EventType.THREAD_START),
            _ev(1, 0.0, 1, EventType.THREAD_START),
            _ev(2, 0.1, 0, EventType.ACQUIRE, obj=0),
            _ev(3, 0.1, 0, EventType.OBTAIN, obj=0),
            _ev(4, 0.2, 1, EventType.ACQUIRE, obj=0),
            _ev(5, 0.2, 1, EventType.OBTAIN, obj=0),
            _ev(6, 0.3, 0, EventType.RELEASE, obj=0),
            _ev(7, 0.3, 1, EventType.RELEASE, obj=0),
            _ev(8, 0.4, 0, EventType.THREAD_EXIT),
            _ev(9, 0.4, 1, EventType.THREAD_EXIT),
        ]
        assert problems(_trace(events, sem)) == []

    def test_lock_event_on_barrier_object(self):
        objects = {0: ObjectInfo(obj=0, kind=ObjectKind.BARRIER, name="B")}
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    _ev(1, 0.5, 0, EventType.ACQUIRE, obj=0),
                    _ev(2, 0.5, 0, EventType.OBTAIN, obj=0),
                    _ev(3, 1.0, 0, EventType.RELEASE, obj=0),
                ],
            ),
            objects,
        )
        assert problems(t) == [
            "seq 1: ACQUIRE on non-lock object B",
            "seq 2: OBTAIN on non-lock object B",
            "seq 3: RELEASE on non-lock object B",
        ]

    def test_one_record_two_problems_and_tails_in_first_touch_order(self):
        # seq 3 breaks two rules at once (no ACQUIRE *and* L is owned);
        # the exit-time tails list L2 before L because T1 touched it first.
        objects = {
            0: ObjectInfo(obj=0, kind=ObjectKind.MUTEX, name="L"),
            1: ObjectInfo(obj=1, kind=ObjectKind.MUTEX, name="L2"),
        }
        events = [
            _ev(0, 0.0, 0, EventType.THREAD_START),
            _ev(1, 0.0, 1, EventType.THREAD_START),
            _ev(2, 0.1, 1, EventType.ACQUIRE, obj=1),
            _ev(3, 0.1, 1, EventType.OBTAIN, obj=1),
            _ev(4, 0.2, 0, EventType.ACQUIRE, obj=0),
            _ev(5, 0.2, 0, EventType.OBTAIN, obj=0),
            _ev(6, 0.3, 1, EventType.OBTAIN, obj=0),
            _ev(7, 0.3, 1, EventType.ACQUIRE, obj=0),
            _ev(8, 0.4, 0, EventType.THREAD_EXIT),
            _ev(9, 0.4, 1, EventType.THREAD_EXIT),
        ]
        assert problems(_trace(events, objects)) == [
            "seq 6: T1 OBTAIN without ACQUIRE on L",
            "seq 6: T1 OBTAIN on L while held by T0",
            "T1 exited holding L2 (1 levels)",
            "T0 exited holding L (1 levels)",
            "T1 exited holding L (1 levels)",
            "T1 exited with pending ACQUIRE on L",
        ]


class TestBarrierChecks:
    def test_mismatched_cohort(self):
        b = TraceBuilder()
        bar = b.barrier_obj("B")
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.barrier(bar, arrive=1.0, depart=2.0)
        # t1 arrives but never departs:
        t1._emit(2.0, EventType.BARRIER_ARRIVE, obj=bar, arg=0)
        t0.exit(at=3.0)
        t1.exit(at=3.0)
        trace = b.build(validate=False)
        assert problems(trace) == ["barrier B generation 0: arrivals [0, 1] != departures [0]"]

    def test_generations_reported_in_order(self):
        b = TraceBuilder()
        bar = b.barrier_obj("B")
        t0 = b.thread()
        t0.start(at=0.0)
        t0._emit(1.0, EventType.BARRIER_DEPART, obj=bar, arg=3)
        t0._emit(2.0, EventType.BARRIER_ARRIVE, obj=bar, arg=1)
        t0._emit(3.0, EventType.BARRIER_ARRIVE, obj=bar, arg=2)
        t0._emit(3.5, EventType.BARRIER_DEPART, obj=bar, arg=2)
        t0.exit(at=4.0)
        trace = b.build(validate=False)
        assert problems(trace) == [
            "barrier B generation 1: arrivals [0] != departures []",
            "barrier B generation 3: arrivals [] != departures [0]",
        ]


class TestCondChecks:
    def test_wake_without_block(self):
        b = TraceBuilder()
        cv = b.condition("c")
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.cond_wake(cv, at=1.0, by=t1)
        t0.exit(at=2.0)
        t1.exit(at=2.0)
        trace = b.build(validate=False)
        assert problems(trace) == ["seq 2: T0 COND_WAKE without COND_BLOCK on c"]

    def test_unknown_signaller(self):
        b = TraceBuilder()
        cv = b.condition("c")
        t0 = b.thread()
        t0.start(at=0.0)
        t0.cond_block(cv, at=0.5)
        t0._emit(1.0, EventType.COND_WAKE, obj=cv, arg=42)  # no thread 42
        t0.exit(at=2.0)
        trace = b.build(validate=False)
        assert problems(trace) == ["seq 2: COND_WAKE names unknown signaller T42"]

    def test_exit_still_blocked(self):
        b = TraceBuilder()
        cv = b.condition("c")
        t0 = b.thread()
        t0.start(at=0.0)
        t0.cond_block(cv, at=0.5)
        t0.exit(at=2.0)
        trace = b.build(validate=False)
        assert problems(trace) == ["T0 exited still blocked on condition c"]


class TestJoinChecks:
    def test_join_end_before_target_exit(self):
        b = TraceBuilder()
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.join(t1, begin=1.0, end=2.0)
        t0.exit(at=3.0)
        t1.exit(at=5.0)  # exits after the join "completed"
        trace = b.build(validate=False)
        assert problems(trace) == ["seq 3: T0 JOIN_END precedes T1 THREAD_EXIT"]

    def test_join_never_exited(self):
        b = TraceBuilder()
        t0 = b.thread()
        t0.start(at=0.0)
        t0._emit(1.0, EventType.JOIN_BEGIN, arg=9)
        t0._emit(2.0, EventType.JOIN_END, arg=9)
        t0.exit(at=3.0)
        trace = b.build(validate=False)
        assert problems(trace) == ["seq 2: T0 joined T9 which never exited"]

    def test_join_end_without_begin_and_never_exited(self):
        b = TraceBuilder()
        t0 = b.thread()
        t0.start(at=0.0)
        t0._emit(2.0, EventType.JOIN_END, arg=9)
        t0.exit(at=3.0)
        trace = b.build(validate=False)
        assert problems(trace) == [
            "seq 1: T0 JOIN_END without JOIN_BEGIN on T9",
            "seq 1: T0 joined T9 which never exited",
        ]


class TestUnknownEventTypes:
    def test_reported_first_and_excluded_from_other_checks(self, micro_trace):
        records = micro_trace.records.copy()
        records["etype"][5] = 15
        records["etype"][7] = 0
        t = Trace(records=records, objects=micro_trace.objects, threads=micro_trace.threads)
        got = problems(t)
        assert got[:2] == ["seq 5: unknown event type 15", "seq 7: unknown event type 0"]
        assert all("unknown event type" not in p for p in got[2:])

    def test_validate_raises_typed_error(self, micro_trace):
        records = micro_trace.records.copy()
        records["etype"][3] = 200
        t = Trace(records=records, objects=micro_trace.objects)
        with pytest.raises(TraceValidationError, match="unknown event type 200"):
            validate_trace(t)


def test_sections_come_in_fixed_order():
    # One problem of every section, emitted in reverse section order.
    b = TraceBuilder()
    lock = b.mutex("L")
    bar = b.barrier_obj("B")
    cv = b.condition("c")
    t0 = b.thread()
    t0.start(at=0.0)
    t0._emit(1.0, EventType.JOIN_END, arg=0)
    t0._emit(2.0, EventType.COND_WAKE, obj=cv, arg=0)
    t0._emit(3.0, EventType.BARRIER_DEPART, obj=bar, arg=0)
    t0._emit(4.0, EventType.RELEASE, obj=lock)
    t0.exit(at=5.0)
    t0._emit(6.0, EventType.THREAD_CREATE, arg=3)
    trace = b.build(validate=False)
    assert problems(trace) == [
        "T0: last event is THREAD_CREATE, expected THREAD_EXIT",
        "THREAD_CREATE names T3 which emitted no events",
        "seq 4: T0 RELEASE without OBTAIN on L",
        "barrier B generation 0: arrivals [] != departures [0]",
        "seq 2: T0 COND_WAKE without COND_BLOCK on c",
        "seq 1: T0 JOIN_END without JOIN_BEGIN on T0",
        "seq 1: T0 JOIN_END precedes T0 THREAD_EXIT",
    ]


def test_validation_error_lists_problems():
    t = _trace([_ev(0, 0.0, 0, EventType.THREAD_START)])
    with pytest.raises(TraceValidationError) as exc_info:
        validate_trace(t)
    assert exc_info.value.problems
    assert "invalid trace" in str(exc_info.value)


# -- cost guards on a realistically sized trace ------------------------------


@pytest.fixture(scope="module")
def large_trace():
    trace = SyntheticLocks(ops_per_thread=2100, nlocks=8, barrier_every=250).run(
        nthreads=8, seed=0
    ).trace
    assert len(trace) >= 50_000
    return trace


def test_validation_builds_no_per_event_objects(large_trace, monkeypatch):
    import repro.trace.schema as schema
    import repro.trace.trace as trace_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("validation built a per-event object")

    monkeypatch.setattr(schema, "event_from_row", forbidden)
    monkeypatch.setattr(trace_mod, "event_from_row", forbidden)
    monkeypatch.setattr(Event, "__init__", forbidden)
    validate_trace(large_trace)
    with pytest.raises(AssertionError, match="per-event object"):
        next(iter(large_trace))  # the patches are live


def test_validation_peak_memory_within_analysis(large_trace):
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    analysis_peak = peak(lambda: analyze(large_trace, validate=False))
    validate_peak = peak(lambda: trace_problems(large_trace))
    assert validate_peak <= analysis_peak, (validate_peak, analysis_peak)


def test_large_corrupted_trace_matches_reference(large_trace):
    records = large_trace.records[:20_000].copy()
    rng = np.random.default_rng(0)
    for i in rng.choice(len(records), size=40, replace=False):
        records["tid"][i] = (records["tid"][i] + 1) % 8
    t = Trace(records=records, objects=large_trace.objects, threads=large_trace.threads)
    assert len(problems(t)) > 40
