"""Protocol what-if forecasts (ground-truth replay)."""

import pytest

from repro.core.analyzer import analyze
from repro.core.replay_whatif import replay_identity, replay_whatif
from repro.errors import AnalysisError, SimulationError
from repro.replay import reconstruct
from repro.workloads import get_workload

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro_trace():
    return make_micro_program().run().trace


@pytest.fixture(scope="module")
def ldap_trace():
    # The contended-rwlock golden config: reader preference re-ranks the
    # critical lock here (see tests/golden/test_golden_reports.py).
    wl = get_workload("openldap")(
        requests=150, nbuckets=2, write_prob=0.35,
        write_cost=0.12, lookup_cost=0.04,
    )
    return wl.run(nthreads=6, seed=1).trace


def test_identity_replay_reproduces_micro_exactly(micro_trace):
    result = replay_identity(micro_trace)
    assert result.completion_time == micro_trace.duration
    base = analyze(micro_trace).report
    replayed = analyze(result.trace, validate=False).report
    assert replayed.render(None) == base.render(None)


def test_fifo_forecast_is_a_noop_on_micro(micro_trace):
    fc = replay_whatif(micro_trace, protocol="fifo")
    assert fc.predicted_time == micro_trace.duration
    assert fc.predicted_speedup == 1.0
    assert not fc.reranked


def test_forecast_fields_and_render(micro_trace):
    fc = replay_whatif(micro_trace, protocol="priority")
    assert fc.protocol == "priority"
    assert fc.baseline_time == micro_trace.duration
    assert fc.predicted_time > 0
    assert {d.name for d in fc.deltas} == {"L1", "L2"}
    text = fc.render()
    assert "protocol what-if" in text
    assert "priority" in text
    d = fc.to_dict()
    assert d["protocol"] == "priority"
    assert d["critical_lock"]["baseline"] in ("L1", "L2")
    assert len(d["locks"]) == 2


def test_reader_preference_reranks_ldap(ldap_trace):
    fc = replay_whatif(ldap_trace, protocol="reader-pref")
    assert fc.reranked
    assert fc.baseline_critical_lock == "entry_lock[0]"
    assert fc.predicted_critical_lock == "entry_lock[1]"
    assert fc.predicted_gain > 0.03  # measurably faster, not noise
    assert "(re-ranked)" in fc.render()


def test_priorities_keyed_by_tid_or_name(micro_trace):
    by_tid = replay_whatif(
        micro_trace, protocol="priority", priorities={1: 5}
    )
    names = dict(micro_trace.threads)
    name_of_1 = names[1]
    by_name = replay_whatif(
        micro_trace, protocol="priority", priorities={name_of_1: 5}
    )
    assert by_tid.predicted_time == by_name.predicted_time
    assert by_tid.params["priorities"] == {1: 5}


def test_recorded_protocol_takes_no_params(micro_trace):
    with pytest.raises(AnalysisError, match="recorded.*no parameters"):
        replay_whatif(micro_trace, protocol="recorded",
                      protocol_params={"x": 1})


def test_unknown_protocol_rejected(micro_trace):
    with pytest.raises(SimulationError, match="unknown lock protocol"):
        replay_whatif(micro_trace, protocol="bogus")


def test_core_limit_on_core_limited_trace_rejected():
    trace = get_workload("micro")().run(nthreads=4, cores=2).trace
    with pytest.raises(AnalysisError, match="recorded on 2 core"):
        reconstruct(trace).build(cores=2)
    with pytest.raises(AnalysisError, match="no core limit"):
        replay_whatif(trace, protocol="fifo", cores=4)
