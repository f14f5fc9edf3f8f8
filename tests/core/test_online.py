"""Live analyzer: the exact report of the records observed so far."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.check.generator import corrupt_trace, generate_spec
from repro.check.interp import run_spec
from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.trace.events import EventType
from repro.trace.writer import header_dict
from repro.workloads import Radiosity, SyntheticLocks

from tests.conftest import make_micro_program


def _online(trace, chunk=None):
    online = OnlineAnalyzer()
    step = chunk or max(1, len(trace.records))
    for lo in range(0, len(trace.records), step):
        online.observe_batch(trace.records[lo:lo + step], header=header_dict(trace))
    return online


@pytest.fixture(scope="module")
def micro():
    trace = make_micro_program().run().trace
    return trace, analyze(trace), _online(trace, chunk=5)


def test_type2_counters_match_offline(micro):
    trace, offline, online = micro
    locks = {ls["name"]: ls for ls in online.snapshot()["locks"]}
    for name in ("L1", "L2"):
        m = offline.report.lock(name)
        ls = locks[name]
        assert ls["invocations"] == m.total_invocations
        assert ls["contended"] == m.contended_invocations
        assert ls["wait_time"] == m.total_wait_time
        assert ls["hold_time"] == m.total_hold_time
        assert ls["cont_prob"] == m.avg_cont_prob
        assert ls["cp_time_frac"] == m.cp_fraction


def test_snapshot_ranks_l2_first(micro):
    _, offline, online = micro
    assert [ls["name"] for ls in online.snapshot()["locks"]] == ["L2", "L1"]
    # while the classical wait ranking still picks L1 (the paper's trap):
    assert offline.report.top_locks(1, by="avg_wait_fraction")[0].name == "L1"


def test_online_agrees_with_cp_ranking_on_radiosity():
    trace = Radiosity(total_tasks=80, iterations=1).run(nthreads=8, seed=2).trace
    offline_top = analyze(trace).report.top_locks(1)[0].name
    assert _online(trace, chunk=100).snapshot(top=1)["locks"][0]["name"] == offline_top


def test_incremental_equals_batch():
    trace = SyntheticLocks(ops_per_thread=20).run(nthreads=4, seed=8).trace
    assert _online(trace, chunk=3).snapshot() == _online(trace).snapshot()


def test_render(micro):
    trace, offline, online = micro
    assert online.render() == offline.render()


def test_unnamed_locks_until_the_header_arrives(micro):
    trace, offline, _ = micro
    online = OnlineAnalyzer().observe_batch(trace.records)
    assert {ls["name"] for ls in online.snapshot()["locks"]} == {"obj#0", "obj#1"}
    online.observe_batch(trace.records[:0], header=header_dict(trace))
    assert online.render() == offline.render()


def test_snapshot_is_cached_per_batch(micro):
    trace, _, _ = micro
    online = OnlineAnalyzer().observe_batch(trace.records[:10])
    first = online.result()
    assert online.result() is first
    online.observe_batch(trace.records[10:])
    assert online.result() is not first


@settings(max_examples=40, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=10_000),
    corruption=st.none() | st.integers(min_value=0, max_value=10_000),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
)
def test_observe_batch_matches_reference_at_any_split(spec_seed, corruption, cuts):
    """Generated programs, and seeded corruptions of them, split into
    batches anywhere: the live report equals ``analyze`` of the trace."""
    trace = run_spec(generate_spec(spec_seed)).trace
    if corruption is not None:
        trace = corrupt_trace(trace, corruption)
    assume(np.isin(trace.records["etype"], [int(e) for e in EventType]).all())
    # A live stream names lock objects the header lacks; analyze skips them.
    lock_objs = trace.records["obj"][np.isin(trace.records["etype"], [1, 2, 3])]
    assume(set(lock_objs.tolist()) <= {-1, *trace.objects})
    try:
        want = analyze(trace, validate=False).report.to_dict()
    except Exception:
        assume(False)
    n = len(trace.records)
    bounds = [0, *sorted({int(c * n) for c in cuts}), n]
    online = OnlineAnalyzer()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        online.observe_batch(trace.records[lo:hi], header=header_dict(trace))
    assert online.result().report.to_dict() == want
