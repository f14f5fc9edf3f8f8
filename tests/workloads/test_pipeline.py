"""Pipeline workload: structure and condvar-heavy analysis coverage."""

import pytest

from repro.core.analyzer import analyze
from repro.core.model import WAIT_KIND_CODES, WaitKind
from repro.trace.validate import validate_trace
from repro.workloads import Pipeline


@pytest.fixture(scope="module")
def run8():
    return Pipeline(items=60).run(nthreads=8, seed=3)


def test_valid(run8):
    validate_trace(run8.trace)


def test_stage_split():
    wl = Pipeline()
    assert wl.stage_split(8) == (2, 4, 2)
    assert sum(wl.stage_split(3)) == 3
    assert all(x >= 1 for x in wl.stage_split(3))


def test_cond_waits_analyzed(run8):
    analysis = analyze(run8.trace)
    # Channel getters/putters block on the condition variables...
    cond_waits = [
        k
        for k in analysis.timeline_columns.w_kind.tolist()
        if WAIT_KIND_CODES[k] == WaitKind.CONDITION
    ]
    assert cond_waits
    # ...and the walk stays exact through signal/reacquire chains.  (The
    # junction itself is attributed to the channel mutex: the woken thread's
    # last delay is the reacquisition, because the signaller holds the lock
    # while signalling — correct per the paper's waker rules.)
    assert analysis.critical_path.coverage_error == pytest.approx(0.0, abs=1e-9)


def test_bottleneck_stage_lock_ranked_first(run8):
    # transform is the slow stage; its input/output channel locks matter.
    analysis = analyze(run8.trace)
    top = analysis.report.top_locks(1)[0]
    assert top.name in ("stage1.lock", "stage2.lock")


def test_all_items_flow_through(run8):
    analysis = analyze(run8.trace)
    s1 = analysis.report.lock("stage1.lock")
    # At least one put and one get per item pass through stage1's mutex.
    assert s1.total_invocations >= 2 * 60


def test_fewer_transformers_slower():
    fast = Pipeline(items=60).run(nthreads=8, seed=3).completion_time
    slow = Pipeline(items=60).run(nthreads=3, seed=3).completion_time
    assert slow > fast
