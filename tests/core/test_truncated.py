"""Truncated-trace analysis, end to end.

Captures cut off mid-run (crashed apps, bounded ring buffers) leave open
holds and pending COND_BLOCK/JOIN_BEGIN waits at the trace end, and may
contain no THREAD_EXIT at all.  Documented semantics (docs/check.md):

* ``analyze(trace, validate=False)`` must not raise;
* open holds extend to each thread's last event;
* pending waits (a COND_BLOCK or JOIN_BEGIN with no wake) contribute no
  wait interval — the thread simply ends blocked;
* the DAG completion time falls back to the farthest event, so the two
  critical-path formulations still agree with the truncated duration.
"""

import numpy as np
import pytest

from repro.check.reference import critical_events
from repro.core.analyzer import analyze
from repro.core.dag import build_event_graph
from repro.core.online import OnlineAnalyzer
from repro.trace import TraceBuilder
from repro.trace.events import EventType
from repro.trace.trace import Trace
from repro.workloads import SyntheticLocks


def _truncate_before_first_exit(trace: Trace) -> Trace:
    exits = np.flatnonzero(trace.records["etype"] == int(EventType.THREAD_EXIT))
    cut = int(exits[0])
    return Trace(
        records=trace.records[:cut].copy(),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=dict(trace.meta),
    )


@pytest.fixture(scope="module")
def truncated():
    trace = SyntheticLocks(ops_per_thread=40, nlocks=3).run(nthreads=4, seed=5).trace
    return _truncate_before_first_exit(trace)


def test_analyze_does_not_raise(truncated):
    result = analyze(truncated, validate=False)
    assert result.critical_path.length == pytest.approx(truncated.duration)


def test_dag_agrees_on_truncated_duration(truncated):
    g = build_event_graph(truncated)
    assert g.completion_time() == pytest.approx(truncated.duration)
    path = critical_events(g)
    assert path, "backtracking must anchor on the farthest event"


def test_metrics_stay_bounded(truncated):
    report = analyze(truncated, validate=False).report
    assert report.locks, "open holds still produce lock metrics"
    for lm in report.locks.values():
        assert -1e-9 <= lm.cp_fraction <= 1.0 + 1e-9
        assert lm.cp_hold_time <= lm.total_hold_time + 1e-9
        assert lm.contended_invocations <= lm.total_invocations


def test_online_analyzer_consumes_truncated_trace(truncated):
    # A live prefix is a truncated trace: the snapshot is its exact report.
    online = OnlineAnalyzer().observe_batch(truncated.records)
    want = analyze(truncated, validate=False).report
    assert online.snapshot()["elapsed"] == pytest.approx(truncated.duration)
    got = {ls["name"]: ls for ls in online.snapshot()["locks"]}
    for lm in want.locks.values():
        assert got[f"obj#{lm.obj}"]["cp_time_frac"] == lm.cp_fraction
        assert got[f"obj#{lm.obj}"]["hold_time"] == lm.total_hold_time


def test_pending_blocks_at_trace_end():
    # A hand-built worst case: open hold + COND_BLOCK with no wake +
    # JOIN_BEGIN with no end, and no THREAD_EXIT anywhere.
    b = TraceBuilder()
    lock = b.mutex("L")
    cv = b.condition("C")
    t0 = b.thread("T0")
    t1 = b.thread("T1")
    t2 = b.thread("T2")
    t0.start(at=0.0)
    t1.start(at=0.0)
    t2.start(at=0.0)
    t0.acquire(lock, at=1.0)          # held, never released
    t1.cond_block(cv, at=2.0)         # blocked, never woken
    t2.join(t1, begin=1.5, end=3.0)
    trace = b.build(validate=False)
    # drop the JOIN_END to leave the join pending
    records = trace.records[
        trace.records["etype"] != int(EventType.JOIN_END)
    ].copy()
    trace = Trace(
        records=records, objects=dict(trace.objects),
        threads=dict(trace.threads), meta=dict(trace.meta),
    )

    result = analyze(trace, validate=False)
    assert result.critical_path.length == pytest.approx(trace.duration)
    g = result.graph
    assert g.completion_time() == pytest.approx(trace.duration)
