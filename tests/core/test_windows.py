"""Windowed criticality analysis."""

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.core.phases import split_phases
from repro.core.windows import windowed_criticality
from repro.errors import AnalysisError
from repro.trace.builder import TraceBuilder
from repro.workloads import get_workload

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro_analysis():
    return analyze(make_micro_program().run().trace)


def test_micro_phase_structure(micro_analysis):
    """Early windows belong to L1's phase, later ones entirely to L2."""
    wc = windowed_criticality(micro_analysis, nwindows=6)
    # Execution: [0,2] = L1 CS on the path, [2,4.5] onward = L2 chain.
    assert wc.dominant_lock(0) == "L1"
    for w in range(3, 6):
        assert wc.dominant_lock(w) == "L2"
    assert wc.phase_changes()  # the dominance switches at least once


def test_shares_bounded(micro_analysis):
    wc = windowed_criticality(micro_analysis, nwindows=8)
    assert np.all(wc.shares >= -1e-9)
    assert np.all(wc.shares.sum(axis=1) <= 1 + 1e-9)


def test_micro_full_coverage(micro_analysis):
    # In the micro-benchmark the whole path is inside critical sections,
    # so every window's shares sum to 1.
    wc = windowed_criticality(micro_analysis, nwindows=4)
    assert np.allclose(wc.shares.sum(axis=1), 1.0)


def test_single_window_equals_global_cp_fraction(micro_analysis):
    wc = windowed_criticality(micro_analysis, nwindows=1)
    l2 = wc.lock_names.index("L2")
    assert wc.shares[0, l2] == pytest.approx(
        micro_analysis.report.lock("L2").cp_fraction
    )


def test_window_edges(micro_analysis):
    wc = windowed_criticality(micro_analysis, nwindows=5)
    assert wc.nwindows == 5
    assert wc.window_edges[0] == 0.0
    assert wc.window_edges[-1] == pytest.approx(12.0)


def test_render(micro_analysis):
    text = windowed_criticality(micro_analysis, nwindows=3).render()
    assert "Dominant" in text
    assert "L2" in text


def test_invalid_nwindows(micro_analysis):
    with pytest.raises(AnalysisError, match="nwindows"):
        windowed_criticality(micro_analysis, nwindows=0)


def test_zero_duration_trace_rejected():
    from repro.sim import Program

    prog = Program()
    prog.spawn(lambda env: (yield env.compute(0.0)))
    analysis = analyze(prog.run().trace)
    with pytest.raises(AnalysisError, match="zero duration"):
        windowed_criticality(analysis, nwindows=2)


def test_dominant_none_when_no_lock_on_window():
    from repro.sim import Program

    prog = Program()
    lock = prog.mutex("L")

    def body(env):
        yield env.acquire(lock)
        yield env.compute(1.0)
        yield env.release(lock)
        yield env.compute(3.0)  # long lock-free tail

    prog.spawn(body)
    analysis = analyze(prog.run().trace)
    wc = windowed_criticality(analysis, nwindows=4)
    assert wc.dominant_lock(0) == "L"
    assert wc.dominant_lock(3) is None


def test_no_hold_on_the_path():
    """T0's critical section ends before T1, the last thread, finishes;
    the path is T1 alone, so no hold pairs with a piece."""
    b = TraceBuilder()
    lock = b.mutex("L")
    t0, t1 = b.thread("T0"), b.thread("T1")
    t0.start(at=0.0)
    t0.critical_section(lock, acquire=1.0, obtain=1.0, release=2.0)
    t0.exit(at=3.0)
    t1.start(at=0.0)
    t1.exit(at=10.0)
    analysis = analyze(b.build())
    assert analysis.report.lock("L").cp_fraction == 0.0
    wc = windowed_criticality(analysis, 4)
    assert wc.shares.tolist() == [[0.0]] * 4
    assert wc.dominant_lock(0) is None
    (phase,) = split_phases(analysis).phases
    assert phase.lock_cp_shares == {"L": 0.0}


def _nested_semaphore_trace():
    """main holds semaphore S over [1, 8] and again over [2, 6] and waits
    on mutex M over [3, 4], which a worker holds over [0, 4]; main exits
    at 10.  The path runs worker [0, 4] then main [4, 10]."""
    b = TraceBuilder()
    sem, mutex = b.semaphore("S"), b.mutex("M")
    main, worker = b.thread("main"), b.thread("worker")
    worker.start(at=0.0)
    worker.critical_section(mutex, acquire=0.0, obtain=0.0, release=4.0)
    worker.exit(at=5.0)
    main.start(at=0.0)
    main.acquire(sem, at=1.0)
    main.acquire(sem, at=2.0)
    main.critical_section(mutex, acquire=3.0, obtain=4.0, release=5.0)
    main.release(sem, at=6.0)
    main.release(sem, at=8.0)
    main.exit(at=10.0)
    return b.build()


def _case_trace(case):
    if case == "nested":
        return _nested_semaphore_trace()
    from tests.golden.test_golden_reports import CASES

    workload, params, nthreads, seed = CASES[case]
    return get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace


def test_nested_holds_count_once_per_hold():
    """Both of main's S holds overlap its piece [4, 10]: 4 + 2 = 6 of the
    10-long path, in the report and in the views alike."""
    analysis = analyze(_nested_semaphore_trace())
    assert analysis.report.lock("S").cp_fraction == pytest.approx(0.6)
    wc = windowed_criticality(analysis, 1)
    assert wc.shares[0, wc.lock_names.index("S")] == pytest.approx(0.6)
    (phase,) = split_phases(analysis).phases
    assert phase.lock_cp_shares["S"] == pytest.approx(0.6)


@pytest.mark.parametrize("case", ["nested", "micro", "radiosity", "ldap"])
def test_windows_and_phases_follow_the_metrics(case):
    """One window (and a single phase) shows each lock's ``cp_fraction``,
    and over any split the CP time inside a lock's holds adds up to its
    ``cp_hold_time``."""
    analysis = analyze(_case_trace(case))
    assert analysis.critical_path.coverage_error == 0.0
    one = windowed_criticality(analysis, 1)
    ten = windowed_criticality(analysis, 10)
    widths = np.diff(ten.window_edges)  # each window's CP time: pieces tile
    phases = split_phases(analysis).phases
    for col, name in enumerate(one.lock_names):
        m = analysis.report.lock(name)
        assert one.shares[0, col] == pytest.approx(m.cp_fraction, rel=1e-9, abs=1e-12)
        assert float(ten.shares[:, col] @ widths) == pytest.approx(
            m.cp_hold_time, rel=1e-9, abs=1e-12
        )
        assert sum(p.lock_cp_shares[name] * p.duration for p in phases) == pytest.approx(
            m.cp_hold_time, rel=1e-9, abs=1e-12
        )
        if len(phases) == 1:
            assert phases[0].lock_cp_shares[name] == pytest.approx(
                m.cp_fraction, rel=1e-9, abs=1e-12
            )
