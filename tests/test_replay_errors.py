"""Replay error paths and edge cases."""

import pytest

from repro.errors import AnalysisError, ReproError
from repro.replay import reconstruct
from repro.sim import Program
from repro.trace.builder import TraceBuilder


def test_varying_barrier_cohorts_rejected():
    b = TraceBuilder()
    bar = b.barrier_obj("B")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    # Generation 0: both arrive; generation 1: only t0.
    t0.barrier(bar, arrive=1.0, depart=1.0, gen=0)
    t1.barrier(bar, arrive=0.5, depart=1.0, gen=0)
    t0.barrier(bar, arrive=2.0, depart=2.0, gen=1)
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build(validate=False)
    with pytest.raises(AnalysisError, match="varying cohort sizes"):
        reconstruct(trace).build()


def test_cond_block_without_release_rejected():
    b = TraceBuilder()
    cv = b.condition("cv")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.cond_block(cv, at=1.0)  # no mutex RELEASE follows
    t0.cond_wake(cv, at=2.0, by=t1)
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build(validate=False)
    with pytest.raises(AnalysisError, match="cannot reconstruct cond_wait"):
        reconstruct(trace)


def _corrupted(spec_seed, corruption):
    from repro.check import corrupt_trace, generate_spec, run_spec
    from repro.trace.validate import trace_problems

    trace = corrupt_trace(run_spec(generate_spec(spec_seed)).trace, corruption)
    assert trace_problems(trace) == []
    return trace


def test_join_of_a_thread_no_one_creates_is_a_typed_error():
    # The corruption points t2's THREAD_CREATE at tid 1 instead of 5; the
    # trace still validates clean, but tid 5 then has no spawn handle.
    trace = _corrupted(6, 51)
    with pytest.raises(AnalysisError, match="joins thread 5, which no thread creates"):
        reconstruct(trace).run()


def test_cond_signal_on_a_barrier_is_a_typed_error():
    # The corruption moves a COND_SIGNAL onto a barrier object.
    trace = _corrupted(18, 1)
    with pytest.raises(
        AnalysisError,
        match="thread 2: cond_signal on .* needs a condition, but it is a barrier",
    ):
        reconstruct(trace).run()


def test_cond_signal_on_an_unknown_object_is_a_typed_error():
    trace = _corrupted(7, 7)
    with pytest.raises(
        AnalysisError,
        match="thread 3: cond_signal on obj#-1 needs a condition, but the trace declares",
    ):
        reconstruct(trace).run()


def test_join_before_the_spawn_is_a_typed_error():
    # T3 joins T5, which T0 creates; the replay reaches the join first.
    trace = _corrupted(78, 6)
    with pytest.raises(ReproError, match="thread 3 joins thread 5 before"):
        reconstruct(trace).run()


def test_cond_wait_needs_a_mutex():
    b = TraceBuilder()
    cv, sem = b.condition("cv"), b.semaphore("S")
    t0, t1 = b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.acquire(sem, at=0.5)
    t0.cond_block(cv, at=1.0)
    t0.release(sem, at=1.0)  # the RELEASE that names cond_wait's "mutex"
    t0.cond_wake(cv, at=2.0, by=t1)
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build(validate=False)
    with pytest.raises(AnalysisError, match="cond_wait on S needs a mutex"):
        reconstruct(trace).build()


def test_thread_created_twice_is_a_typed_error():
    b = TraceBuilder()
    t0, t1, child = b.thread(), b.thread(), b.thread()
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.create(child, at=1.0)
    t1.create(child, at=1.5)
    child.start(at=1.0)
    child.exit(at=2.0)
    t0.exit(at=3.0)
    t1.exit(at=3.0)
    trace = b.build(validate=False)
    with pytest.raises(AnalysisError, match="thread 2 is created twice"):
        reconstruct(trace).build()


def test_creating_a_thread_without_events_is_a_typed_error():
    b = TraceBuilder()
    t0, silent = b.thread(), b.thread()  # silent records nothing
    t0.start(at=0.0)
    t0.create(silent, at=1.0)
    t0.exit(at=2.0)
    trace = b.build(validate=False)
    with pytest.raises(AnalysisError, match="creates thread 1, which has no events"):
        reconstruct(trace).build()


def test_empty_threads_replayable():
    prog = Program()
    prog.spawn(lambda env: None)
    original = prog.run()
    replayed = reconstruct(original.trace).run()
    assert replayed.completion_time == original.completion_time == 0.0


def test_semaphore_initial_value_inferred():
    prog = Program()
    sem = prog.semaphore(3, "S")

    def body(env, i):
        yield env.sem_acquire(sem)
        yield env.compute(1.0)
        yield env.sem_release(sem)

    prog.spawn_workers(5, body)
    original = prog.run()
    # 5 holders over 3 slots: 1.0 then 2.0 waves -> completion 2.0.
    assert original.completion_time == pytest.approx(2.0)
    replayed = reconstruct(original.trace).run()
    assert replayed.completion_time == pytest.approx(2.0)


def test_replay_nested_locks():
    prog = Program()
    outer, inner = prog.mutex("outer"), prog.mutex("inner")

    def body(env, i):
        yield env.acquire(outer)
        yield env.compute(0.5)
        yield env.acquire(inner)
        yield env.compute(0.5)
        yield env.release(inner)
        yield env.release(outer)

    prog.spawn_workers(3, body)
    original = prog.run()
    replayed = reconstruct(original.trace).run()
    assert replayed.completion_time == pytest.approx(original.completion_time)


def test_shrink_nested_inner_lock():
    prog = Program()
    outer, inner = prog.mutex("outer"), prog.mutex("inner")

    def body(env, i):
        yield env.acquire(outer)
        yield env.compute(1.0)
        yield env.acquire(inner)
        yield env.compute(1.0)
        yield env.release(inner)
        yield env.release(outer)

    prog.spawn_workers(2, body)
    original = prog.run()  # fully serialized: 2 * 2.0 = 4.0
    assert original.completion_time == pytest.approx(4.0)
    # Shrinking `inner` removes the time spent while holding it (which is
    # also inside `outer`).
    res = reconstruct(original.trace).run(shrink_lock="inner", factor=0.0)
    assert res.completion_time == pytest.approx(2.0)
