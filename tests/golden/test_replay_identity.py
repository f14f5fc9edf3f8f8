"""Identity-replay fidelity on the golden workloads.

Replaying a trace under the ``recorded`` protocol re-executes the
program with every contended grant forced back into its recorded order.
On the golden workloads this must be a perfect round trip: the same
completion time and a byte-identical rendered report.  Recorded under a
core limit, they must still replay to the same completion time and
critical-lock ranking.  This is the
trust anchor for every protocol forecast — if the identity replay
drifted, a "pi is 4% faster" forecast would be measuring replay noise.
"""

import pytest

from repro.core.analyzer import analyze
from repro.core.replay_whatif import replay_identity
from repro.workloads import get_workload

from tests.golden.test_golden_reports import CASES, _golden


@pytest.mark.parametrize("case", sorted(CASES))
def test_identity_replay_reproduces_golden_report(case):
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    result = replay_identity(trace)
    assert result.completion_time == trace.duration
    assert analyze(result.trace).render(10) == _golden(case)


def _ranking(trace):
    report = analyze(trace, validate=False).report
    return [(m.name, m.cp_fraction) for m in report.top_locks(None, by="cp_fraction")]


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_identity_replay_of_core_limited_trace(case, cores):
    # The recorded gaps already hold the core waits, so the identity
    # replay (no core limit) reproduces the core-limited run exactly.
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(
        nthreads=nthreads, seed=seed, cores=cores
    ).trace
    result = replay_identity(trace)
    assert result.completion_time == trace.duration
    assert _ranking(result.trace) == _ranking(trace)
