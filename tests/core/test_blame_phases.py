"""Blame baseline and barrier-phase analysis."""

import pytest

from repro.core.analyzer import analyze
from repro.core.blame import compute_blame
from repro.core.phases import split_phases
from repro.sim import Program
from repro.trace.builder import TraceBuilder
from repro.workloads import MicroBenchmark

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro_analysis():
    return analyze(make_micro_program().run().trace)


class TestBlame:
    def test_baseline_picks_the_wrong_lock(self, micro_analysis):
        """The paper's core claim: idleness ranks L1 first; CP says L2."""
        blame = compute_blame(micro_analysis)
        assert blame.ranking()[0] == "L1"
        assert micro_analysis.report.top_locks(1)[0].name == "L2"

    def test_idle_totals(self, micro_analysis):
        blame = compute_blame(micro_analysis)
        assert blame.lock("L1").total_idle == pytest.approx(12.0)  # 2+4+6
        assert blame.lock("L2").total_idle == pytest.approx(3.0)  # .5+1+1.5

    def test_holder_attribution(self, micro_analysis):
        # L1's idleness is charged to the previous holders (workers 0..2).
        blame = compute_blame(micro_analysis).lock("L1")
        assert blame.holder_blame == pytest.approx({0: 2.0, 1: 4.0, 2: 6.0})
        assert blame.top_blamed_holder() == 2

    def test_uncontended_lock_zero_blame(self):
        prog = Program()
        lock = prog.mutex("quiet")

        def body(env):
            yield env.acquire(lock)
            yield env.compute(1.0)
            yield env.release(lock)

        prog.spawn(body)
        blame = compute_blame(analyze(prog.run().trace))
        assert blame.lock("quiet").total_idle == 0.0
        assert blame.lock("quiet").top_blamed_holder() is None

    def test_render(self, micro_analysis):
        text = compute_blame(micro_analysis).render(
            thread_names=micro_analysis.trace.threads
        )
        assert "Idleness-blame" in text
        assert "worker-2" in text


class TestPhases:
    def make_phased_program(self):
        prog = Program()
        a = prog.mutex("phase1_lock")
        b = prog.mutex("phase2_lock")
        bar = prog.barrier(3, "bar")

        def body(env, i):
            yield env.acquire(a)
            yield env.compute(1.0)
            yield env.release(a)
            yield env.barrier_wait(bar)
            yield env.acquire(b)
            yield env.compute(0.5)
            yield env.release(b)

        prog.spawn_workers(3, body)
        return prog.run()

    def test_phase_split_and_dominance(self):
        analysis = analyze(self.make_phased_program().trace)
        report = split_phases(analysis)
        assert len(report.phases) == 2
        assert report.phases[0].dominant_lock() == "phase1_lock"
        assert report.phases[1].dominant_lock() == "phase2_lock"

    def test_phases_tile_duration(self):
        result = self.make_phased_program()
        report = split_phases(analyze(result.trace))
        total = sum(p.duration for p in report.phases)
        assert total == pytest.approx(result.completion_time)
        assert report.phases[0].start == 0.0
        assert report.phases[-1].end == pytest.approx(result.completion_time)

    def test_no_barriers_single_phase(self, micro_analysis):
        report = split_phases(micro_analysis)
        assert len(report.phases) == 1
        assert report.phases[0].dominant_lock() == "L2"

    def test_partial_barrier_not_a_boundary(self):
        # A barrier only half the threads use must not split the run.
        prog = Program()
        bar = prog.barrier(2, "pair")

        def pair(env, i):
            yield env.compute(1.0)
            yield env.barrier_wait(bar)
            yield env.compute(1.0)

        def loner(env):
            yield env.compute(3.0)

        prog.spawn_workers(2, pair)
        prog.spawn(loner)
        report = split_phases(analyze(prog.run().trace))
        assert len(report.phases) == 1

    def test_negative_timestamps(self):
        """A global barrier departing at -5 splits [-10, -1] there."""
        b = TraceBuilder()
        bar = b.barrier_obj("B")
        t0, t1 = b.thread("a"), b.thread("b")
        t0.start(at=-10.0)
        t1.start(at=-10.0)
        t0.barrier(bar, arrive=-7.0, depart=-5.0)
        t1.barrier(bar, arrive=-5.0, depart=-5.0)
        t0.exit(at=-1.0)
        t1.exit(at=-2.0)
        report = split_phases(analyze(b.build()))
        assert [(p.start, p.end) for p in report.phases] == [(-10.0, -5.0), (-5.0, -1.0)]
        assert report.phases[0].boundary_obj == bar

    def test_render(self):
        analysis = analyze(self.make_phased_program().trace)
        text = split_phases(analysis).render()
        assert "Barrier-phase" in text
        assert "phase1_lock" in text
