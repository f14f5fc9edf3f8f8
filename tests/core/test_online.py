"""Online streaming analyzer: exact TYPE 2 counters, criticality heuristic."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.check.generator import corrupt_trace, generate_spec
from repro.check.interp import run_spec
from repro.check.oracle import online_state_diff
from repro.check.reference import reference_online
from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.trace.events import EventType
from repro.workloads import Radiosity, SyntheticLocks

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro():
    trace = make_micro_program().run().trace
    return trace, analyze(trace), OnlineAnalyzer().observe_all(trace)


def test_type2_counters_match_offline(micro):
    trace, offline, online = micro
    for name in ("L1", "L2"):
        m = offline.report.lock(name)
        ls = online.stats(m.obj)
        assert ls.invocations == m.total_invocations
        assert ls.contended == m.contended_invocations
        assert ls.wait_time == pytest.approx(m.total_wait_time)
        assert ls.hold_time == pytest.approx(m.total_hold_time)
        assert ls.cont_prob == pytest.approx(m.avg_cont_prob)


def test_heuristic_ranks_l2_first(micro):
    _, _, online = micro
    ranking = [ls.name for ls in online.ranking()]
    assert ranking[0] == "L2"
    # while the classical wait ranking still picks L1 (the paper's trap):
    assert online.ranking_by_wait()[0].name == "L1"


def test_chain_lengths_exact(micro):
    trace, _, online = micro
    # L2: 4 dependent holds of 2.5 = 10; L1: chain of 4 holds of 2.0 = 8.
    l2 = next(ls for ls in online.ranking() if ls.name == "L2")
    l1 = next(ls for ls in online.ranking() if ls.name == "L1")
    assert l2.max_chain_time == pytest.approx(10.0)
    assert l1.max_chain_time == pytest.approx(8.0)


def test_chain_breaks_on_idle_lock():
    from repro.sim import Program

    prog = Program()
    lock = prog.mutex("L")

    def body(env, i):
        # Spaced-out, uncontended critical sections: no dependent chain.
        yield env.compute(1.0 + i * 5.0)
        yield env.acquire(lock)
        yield env.compute(0.5)
        yield env.release(lock)

    prog.spawn_workers(3, body)
    trace = prog.run().trace
    online = OnlineAnalyzer().observe_all(trace)
    ls = online.stats(0)
    assert ls.contended == 0
    assert ls.max_chain_time == pytest.approx(0.5)  # chains never grow


def test_online_agrees_with_cp_ranking_on_radiosity():
    trace = Radiosity(total_tasks=80, iterations=1).run(nthreads=8, seed=2).trace
    offline_top = analyze(trace).report.top_locks(1)[0].name
    online_top = OnlineAnalyzer().observe_all(trace).ranking()[0].name
    assert online_top == offline_top


def test_incremental_equals_batch():
    trace = SyntheticLocks(ops_per_thread=20).run(nthreads=4, seed=8).trace
    batch = OnlineAnalyzer().observe_all(trace)
    inc = reference_online(trace)
    for obj in (info.obj for info in trace.locks):
        if obj in batch._locks:
            assert inc.stats(obj).wait_time == pytest.approx(batch.stats(obj).wait_time)
            assert inc.stats(obj).max_chain_time == pytest.approx(
                batch.stats(obj).max_chain_time
            )


def test_render(micro):
    _, _, online = micro
    text = online.render()
    assert "Max dependent chain" in text
    assert "L2" in text


def test_chain_resets_on_equal_timestamp_uncontended_obtain():
    # Virtual time routinely lands an uncontended OBTAIN at the exact
    # timestamp of the previous RELEASE.  The lock was free — nobody
    # waited — so the dependent chain must reset; `>` instead of `>=` in
    # the reset condition wrongly fused such back-to-back holds into one
    # chain.
    from repro.trace import TraceBuilder

    b = TraceBuilder()
    lock = b.mutex("L")
    t0 = b.thread("T0")
    t1 = b.thread("T1")
    t0.start(at=0.0)
    t1.start(at=0.0)
    # T0 holds [0, 1]; T1 obtains uncontended at exactly 1.0, holds [1, 2].
    t0.critical_section(lock, acquire=0.0, obtain=0.0, release=1.0)
    t1.critical_section(lock, acquire=1.0, obtain=1.0, release=2.0)
    t0.exit(at=1.0)
    t1.exit(at=2.0)
    trace = b.build()

    online = OnlineAnalyzer().observe_all(trace)
    ls = online.stats(lock)
    assert ls.contended == 0
    # two independent 1.0-long holds, not one fused 2.0 chain
    assert ls.max_chain_time == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=10_000),
    corruption=st.none() | st.integers(min_value=0, max_value=10_000),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
)
def test_observe_batch_matches_reference_at_any_split(spec_seed, corruption, cuts):
    """Generated programs, and seeded corruptions of them, split into
    batches anywhere: the batch kernel reaches the per-event replay's
    state (counters, slot dicts and time bounds exact, sums to 1e-9)."""
    trace = run_spec(generate_spec(spec_seed)).trace
    if corruption is not None:
        trace = corrupt_trace(trace, corruption)
    # Unknown event types have no Event form (streams reject them at ingest).
    assume(np.isin(trace.records["etype"], [int(e) for e in EventType]).all())
    n = len(trace.records)
    bounds = [0, *sorted({int(c * n) for c in cuts}), n]
    online = OnlineAnalyzer(trace)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        online.observe_batch(trace.records[lo:hi])
    assert online_state_diff(online, reference_online(trace)) is None
