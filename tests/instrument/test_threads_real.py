"""Traced thread lifecycle on real threads."""

import time

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.errors import TraceError
from repro.instrument import ProfilingSession
from repro.trace.events import EventType
from repro.trace.validate import validate_trace


def test_create_join_events():
    with ProfilingSession() as s:
        t = s.thread(lambda: 123, name="kid")
        t.start()
        t.join()
        assert t.result == 123
    trace = s.trace()
    validate_trace(trace)
    create = next(ev for ev in trace if ev.etype == EventType.THREAD_CREATE)
    assert create.tid == 0  # main created it
    assert create.arg == t.tid
    assert trace.count(EventType.JOIN_END) == 1


def test_join_of_exited_thread_records_no_wait():
    # The child has exited before the join begins, so the join cannot
    # block: JOIN_END shares JOIN_BEGIN's time and the analysis sees no
    # JOIN wait on main that could redirect the critical path.
    with ProfilingSession() as s:
        t = s.thread(lambda: None, name="kid")
        t.start()
        while t.is_alive():
            time.sleep(0.001)
        t.join()
    trace = s.trace()
    validate_trace(trace)
    begin = next(ev for ev in trace if ev.etype == EventType.JOIN_BEGIN)
    end = next(ev for ev in trace if ev.etype == EventType.JOIN_END)
    assert end.time == begin.time
    ct = analyze(trace).timeline_columns
    assert 0 in ct.tids.tolist()
    assert not np.any(ct.w_tid == 0)


def test_double_start_rejected():
    with ProfilingSession() as s:
        t = s.thread(lambda: None)
        t.start()
        t.join()
        with pytest.raises(TraceError, match="already started"):
            t.start()


def test_target_exception_reraised_on_join():
    with ProfilingSession() as s:
        def boom():
            raise RuntimeError("kapow")

        t = s.thread(boom)
        t.start()
        with pytest.raises(RuntimeError, match="kapow"):
            t.join()
    # Trace still structurally sound (THREAD_EXIT emitted in finally).
    validate_trace(s.trace())


def test_nested_thread_creation():
    with ProfilingSession() as s:
        inner_results = []

        def inner():
            inner_results.append(1)

        def outer():
            t = s.thread(inner, name="inner")
            t.start()
            t.join()

        t = s.thread(outer, name="outer")
        t.start()
        t.join()
    trace = s.trace()
    validate_trace(trace)
    assert inner_results == [1]
    assert trace.count(EventType.THREAD_CREATE) == 2


def test_args_and_kwargs_passed():
    with ProfilingSession() as s:
        t = s.thread(lambda a, b=0: a + b, args=(40,), kwargs={"b": 2})
        t.start()
        t.join()
        assert t.result == 42
