"""Traced barriers and condition variables on real threads."""

import time

from repro.core.analyzer import analyze
from repro.core.model import WAIT_KIND_CODES, WaitKind
from repro.instrument import ProfilingSession
from repro.trace.events import EventType
from repro.trace.validate import validate_trace


def test_barrier_cohort_traced():
    with ProfilingSession() as s:
        bar = s.barrier(3, "B")

        def body(delay):
            time.sleep(delay)
            bar.wait()

        threads = [s.thread(body, args=(d,)) for d in (0.0, 0.01, 0.03)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    trace = s.trace()
    validate_trace(trace)
    assert trace.count(EventType.BARRIER_ARRIVE) == 3
    assert trace.count(EventType.BARRIER_DEPART) == 3
    gens = {ev.arg for ev in trace if ev.etype == EventType.BARRIER_ARRIVE}
    assert gens == {0}


def test_barrier_generations_cycle():
    with ProfilingSession() as s:
        bar = s.barrier(2, "B")

        def body():
            for _ in range(3):
                bar.wait()

        threads = [s.thread(body) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    trace = s.trace()
    validate_trace(trace)
    gens = sorted({ev.arg for ev in trace if ev.etype == EventType.BARRIER_ARRIVE})
    assert gens == [0, 1, 2]


def test_condition_signal_attribution():
    with ProfilingSession() as s:
        cv = s.condition(name="cv")
        state = {"ready": False}

        def waiter():
            with cv.lock:
                while not state["ready"]:
                    cv.wait()

        def signaller():
            time.sleep(0.02)
            with cv.lock:
                state["ready"] = True
                cv.notify()

        tw = s.thread(waiter, name="waiter")
        ts = s.thread(signaller, name="signaller")
        tw.start()
        ts.start()
        tw.join()
        ts.join()
    trace = s.trace()
    validate_trace(trace)
    wake = next(ev for ev in trace if ev.etype == EventType.COND_WAKE)
    assert trace.thread_name(wake.arg) == "signaller"
    # The analysis attributes the wait to the condition variable.
    analysis = analyze(trace)
    waiter_tid = next(t for t, n in trace.threads.items() if n == "waiter")
    ct = analysis.timeline_columns
    kinds = {WAIT_KIND_CODES[k] for k in ct.w_kind[ct.w_tid == waiter_tid].tolist()}
    assert WaitKind.CONDITION in kinds


def test_notify_all_wakes_everyone():
    with ProfilingSession() as s:
        cv = s.condition(name="cv")
        state = {"go": False}

        def waiter():
            with cv.lock:
                while not state["go"]:
                    cv.wait()

        def broadcaster():
            time.sleep(0.03)
            with cv.lock:
                state["go"] = True
                cv.notify_all()

        waiters = [s.thread(waiter) for _ in range(3)]
        b = s.thread(broadcaster)
        for t in waiters + [b]:
            t.start()
        for t in waiters + [b]:
            t.join()
    trace = s.trace()
    validate_trace(trace)
    assert trace.count(EventType.COND_BROADCAST) == 1
    assert trace.count(EventType.COND_WAKE) == 3


def test_wait_for_predicate():
    with ProfilingSession() as s:
        cv = s.condition(name="cv")
        box = {"value": 0}

        def producer():
            for _ in range(3):
                time.sleep(0.005)
                with cv.lock:
                    box["value"] += 1
                    cv.notify()

        def consumer():
            with cv.lock:
                ok = cv.wait_for(lambda: box["value"] >= 3, timeout=5.0)
                assert ok

        tp, tc = s.thread(producer), s.thread(consumer)
        tc.start()
        tp.start()
        tp.join()
        tc.join()
    validate_trace(s.trace())
