"""Water-nsquared, Volrend, Raytrace, OpenLDAP, Synthetic workload checks."""

import pytest

from repro.core.analyzer import analyze
from repro.core.model import WAIT_KIND_CODES, WaitKind
from repro.trace.events import EventType, ObjectKind
from repro.trace.validate import validate_trace
from repro.workloads import LDAPServer, Raytrace, SyntheticLocks, Volrend, WaterNSquared


class TestWater:
    @pytest.fixture(scope="class")
    def run8(self):
        return WaterNSquared(timesteps=2).run(nthreads=8, seed=5)

    def test_valid(self, run8):
        validate_trace(run8.trace)

    def test_barrier_dominated(self, run8):
        analysis = analyze(run8.trace)
        barrier_wait = sum(s.barrier_wait for s in analysis.report.thread_stats)
        lock_wait = sum(s.lock_wait for s in analysis.report.thread_stats)
        assert barrier_wait > lock_wait

    def test_locks_not_bottleneck(self, run8):
        analysis = analyze(run8.trace)
        top = analysis.report.top_locks(1)[0]
        assert top.cp_fraction < 0.10  # paper: water has no lock bottleneck

    def test_barrier_generations(self, run8):
        gens = {
            ev.arg for ev in run8.trace if ev.etype == EventType.BARRIER_ARRIVE
        }
        assert len(gens) == 3 * 2  # 3 phases x 2 timesteps


class TestVolrend:
    @pytest.fixture(scope="class")
    def run8(self):
        return Volrend(frames=2, tiles_per_frame=80).run(nthreads=8, seed=5)

    def test_valid(self, run8):
        validate_trace(run8.trace)

    def test_all_tiles_claimed(self, run8):
        analysis = analyze(run8.trace)
        qlock = analysis.report.lock("QLock")
        # Every tile claim + the terminating probe per thread per frame.
        assert qlock.total_invocations == (80 + 8) * 2

    def test_qlock_cheap_but_critical(self, run8):
        analysis = analyze(run8.trace)
        qlock = analysis.report.lock("QLock")
        assert qlock.avg_hold_fraction < 0.05
        assert qlock.is_critical


class TestRaytrace:
    @pytest.fixture(scope="class")
    def run8(self):
        return Raytrace(bundles_per_thread=10).run(nthreads=8, seed=5)

    def test_valid(self, run8):
        validate_trace(run8.trace)

    def test_mem_lock_tops_cp(self, run8):
        analysis = analyze(run8.trace)
        assert analysis.report.top_locks(1)[0].name == "mem"

    def test_mem_cp_exceeds_wait(self, run8):
        m = analyze(run8.trace).report.lock("mem")
        assert m.cp_fraction > m.avg_wait_fraction  # paper Fig. 8 Raytrace story

    def test_all_bundles_traced(self, run8):
        m = analyze(run8.trace).report.lock("mem")
        wl = Raytrace(bundles_per_thread=10)
        assert m.total_invocations == 8 * 10 * wl.allocs_per_bundle


class TestLDAP:
    @pytest.fixture(scope="class")
    def run8(self):
        return LDAPServer(requests=200).run(nthreads=8, seed=5)

    def test_valid(self, run8):
        validate_trace(run8.trace)

    def test_listener_plus_workers(self, run8):
        assert len(run8.trace.thread_ids) == 9

    def test_no_significant_bottleneck(self, run8):
        """The paper's OpenLDAP finding: mature locking, tiny CP shares."""
        analysis = analyze(run8.trace)
        top = analysis.report.top_locks(1)[0]
        assert top.cp_fraction < 0.10

    def test_rwlocks_used(self, run8):
        rw = run8.trace.objects_of_kind(ObjectKind.RWLOCK)
        assert len(rw) == 64
        analysis = analyze(run8.trace)
        lookups = sum(
            m.total_invocations
            for m in analysis.report.locks.values()
            if m.name.startswith("entry_lock")
        )
        assert lookups == 200  # one per request


class TestSynthetic:
    def test_valid_and_deterministic(self):
        import numpy as np

        a = SyntheticLocks(ops_per_thread=20).run(nthreads=4, seed=9)
        b = SyntheticLocks(ops_per_thread=20).run(nthreads=4, seed=9)
        validate_trace(a.trace)
        assert np.array_equal(a.trace.records, b.trace.records)

    def test_zipf_skew_concentrates_on_lock0(self):
        res = SyntheticLocks(zipf_skew=2.5, ops_per_thread=60).run(nthreads=4, seed=2)
        analysis = analyze(res.trace)
        counts = {m.name: m.total_invocations for m in analysis.report.locks.values()}
        assert counts["lock[0]"] > counts["lock[3]"]

    def test_barrier_mode(self):
        res = SyntheticLocks(barrier_every=5, ops_per_thread=10).run(nthreads=3, seed=2)
        validate_trace(res.trace)
        analysis = analyze(res.trace)
        assert any(
            WAIT_KIND_CODES[k] == WaitKind.BARRIER
            for k in analysis.timeline_columns.w_kind.tolist()
        )

    def test_invalid_nlocks(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            SyntheticLocks(nlocks=0)
