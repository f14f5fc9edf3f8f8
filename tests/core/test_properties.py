"""Property-based tests: analysis invariants over random simulated programs.

The generator draws structurally-safe random programs (locks acquired in
index order to exclude deadlock, barrier rounds hit by every thread) and
checks the invariants that make critical lock analysis sound:

* the backward walk's pieces tile the execution exactly, so the critical
  path length equals the completion time;
* the forward DAG longest path agrees with the backward walk;
* metric bounds (fractions in [0, 1], on-CP counts <= totals);
* traces are well-formed and runs are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.analyzer import analyze
from repro.core.dag import build_event_graph
from repro.sim import Program
from repro.trace.validate import validate_trace

# One op: (kind, lock_index, duration_in_ticks)
op_st = st.tuples(
    st.sampled_from(["compute", "cs"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=8),
)

program_st = st.tuples(
    st.integers(min_value=2, max_value=5),  # threads
    st.integers(min_value=1, max_value=3),  # barrier rounds
    st.lists(  # per-thread op scripts (cycled if fewer than threads)
        st.lists(op_st, min_size=0, max_size=6),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),  # use a barrier between rounds?
)


def run_random_program(spec):
    nthreads, rounds, scripts, use_barrier = spec
    prog = Program(name="prop", seed=7)
    locks = [prog.mutex(f"l{k}") for k in range(4)]
    barrier = prog.barrier(nthreads, "bar") if use_barrier else None

    def body(env, i):
        script = scripts[i % len(scripts)]
        for _ in range(rounds):
            for kind, lock_idx, ticks in script:
                dur = ticks * 0.125
                if kind == "compute":
                    yield env.compute(dur)
                else:
                    yield env.acquire(locks[lock_idx])
                    yield env.compute(dur)
                    yield env.release(locks[lock_idx])
            if barrier is not None:
                yield env.barrier_wait(barrier)

    prog.spawn_workers(nthreads, body)
    return prog.run()


@settings(max_examples=40, deadline=None)
@given(program_st)
def test_critical_path_tiles_execution(spec):
    result = run_random_program(spec)
    validate_trace(result.trace)
    analysis = analyze(result.trace)
    cp = analysis.critical_path
    assert cp.coverage_error == pytest.approx(0.0, abs=1e-9)
    assert cp.length == pytest.approx(result.completion_time, abs=1e-9)
    assert np.array_equal(cp.piece_end[:-1], cp.piece_start[1:])
    assert np.all(cp.piece_end >= cp.piece_start)


@settings(max_examples=40, deadline=None)
@given(program_st)
def test_dag_agrees_with_backward_walk(spec):
    result = run_random_program(spec)
    graph = build_event_graph(result.trace)
    assert graph.completion_time() == pytest.approx(result.completion_time, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(program_st)
def test_metric_bounds(spec):
    result = run_random_program(spec)
    analysis = analyze(result.trace)
    duration = result.completion_time
    total_cp_frac = 0.0
    for m in analysis.report.locks.values():
        assert 0 <= m.cp_fraction <= 1 + 1e-9
        assert 0 <= m.cont_prob_on_cp <= 1
        assert 0 <= m.avg_cont_prob <= 1
        assert m.invocations_on_cp <= m.total_invocations
        assert m.contended_on_cp <= m.invocations_on_cp
        assert m.contended_invocations <= m.total_invocations
        assert m.cp_hold_time <= duration + 1e-9
        total_cp_frac += m.cp_fraction
    # Critical sections never nest in these programs, so lock CP shares
    # cannot exceed the whole path.
    assert total_cp_frac <= 1 + 1e-9


@settings(max_examples=40, deadline=None)
@given(program_st, st.floats(min_value=0.0, max_value=1.0))
def test_whatif_bounds(spec, factor):
    result = run_random_program(spec)
    analysis = analyze(result.trace)
    locks = [m for m in analysis.report.locks.values() if m.total_invocations]
    if not locks:
        return
    m = locks[0]
    r = analysis.what_if(m.obj, factor=factor)
    assert r.predicted_time <= r.baseline_time + 1e-9
    # Can't save more than the total time spent inside the critical sections.
    assert r.predicted_time >= r.baseline_time - m.total_hold_time - 1e-9


@settings(max_examples=15, deadline=None)
@given(program_st)
def test_replay_reproduces_random_programs(spec):
    from repro.replay import reconstruct
    from repro.trace.events import EventType

    # Replay fidelity is guaranteed for positive-duration operations;
    # zero-length critical sections at tied timestamps may re-resolve
    # their acquisition race (documented limitation in repro.replay), so
    # bump zero ticks to one.
    nthreads, rounds, scripts, use_barrier = spec
    scripts = [
        [(kind, lock, max(1, ticks)) for kind, lock, ticks in script]
        for script in scripts
    ]
    original = run_random_program((nthreads, rounds, scripts, use_barrier))
    # Simultaneous ACQUIREs on the same lock are the other face of the
    # same limitation: the original grant order was decided by scheduling,
    # not by timestamps, so free replay may legitimately re-resolve it
    # (identity replay pins it via protocol="recorded" and is covered by
    # the replay-identity oracle invariant).  Skip such draws.
    seen_acquires = set()
    for ev in original.trace:
        if ev.etype == EventType.ACQUIRE:
            key = (ev.obj, ev.time)
            assume(key not in seen_acquires)
            seen_acquires.add(key)
    replayed = reconstruct(original.trace).run()
    assert replayed.completion_time == pytest.approx(
        original.completion_time, abs=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(program_st)
def test_online_type2_matches_offline(spec):
    from repro.core.online import OnlineAnalyzer
    from repro.trace.writer import header_dict

    result = run_random_program(spec)
    analysis = analyze(result.trace)
    records = result.trace.records
    online = OnlineAnalyzer()
    for lo in range(0, len(records), 7):
        online.observe_batch(records[lo:lo + 7], header=header_dict(result.trace))
    locks = {ls["obj"]: ls for ls in online.snapshot()["locks"]}
    for m in analysis.report.locks.values():
        ls = locks[m.obj]
        assert ls["invocations"] == m.total_invocations
        assert ls["wait_time"] == m.total_wait_time
        assert ls["hold_time"] == m.total_hold_time


@settings(max_examples=15, deadline=None)
@given(program_st)
def test_determinism(spec):
    a = run_random_program(spec)
    b = run_random_program(spec)
    assert np.array_equal(a.trace.records, b.trace.records)


@settings(max_examples=25, deadline=None)
@given(program_st)
def test_thread_stats_conservation(spec):
    result = run_random_program(spec)
    analysis = analyze(result.trace)
    cp_total = sum(s.cp_time for s in analysis.report.thread_stats)
    assert cp_total == pytest.approx(result.completion_time, abs=1e-9)
    for s in analysis.report.thread_stats:
        assert s.exec_time + s.total_wait == pytest.approx(s.lifetime, abs=1e-9)
        assert s.cp_time <= s.lifetime + 1e-9
