"""Oracle: clean traces pass every invariant; broken analyses are caught."""

import numpy as np
import pytest

from repro.check.generator import generate_spec
from repro.check.interp import run_spec
from repro.check.oracle import check_trace
from repro.core.dag import EventGraph


@pytest.mark.parametrize("seed", range(10))
def test_generated_seeds_pass_clean(seed):
    spec = generate_spec(seed)
    trace = run_spec(spec).trace
    assert check_trace(trace, spec.has_nested_holds) == []


def test_micro_benchmark_passes_clean(micro_trace):
    assert check_trace(micro_trace, has_nested_holds=False) == []


def test_catches_wrong_completion_time(micro_trace, monkeypatch):
    # A DAG formulation that disagrees with the trace must trip cp-length.
    real = EventGraph.completion_time
    monkeypatch.setattr(
        EventGraph, "completion_time",
        lambda self, *a, **kw: real(self, *a, **kw) + 1.0,
    )
    invariants = {d.invariant for d in check_trace(micro_trace, False)}
    assert "cp-length" in invariants


def test_catches_stale_chain_accounting(monkeypatch):
    # Reintroduce an over-eager dependent chain (chain resets undone):
    # the independent offline replay disagrees and online-chain fires.
    # Needs a trace where resets matter: spaced-out uncontended holds.
    from repro.core import online as online_mod
    from repro.sim import Program

    prog = Program()
    lock = prog.mutex("L")

    def body(env, i):
        yield env.compute(1.0 + i * 5.0)
        yield env.acquire(lock)
        yield env.compute(0.5)
        yield env.release(lock)

    prog.spawn_workers(3, body)
    trace = prog.run().trace
    assert check_trace(trace, False) == []  # clean analyzer passes

    orig = online_mod.OnlineAnalyzer.observe

    def observe(self, ev):
        before = {o: ls.chain_time for o, ls in self._locks.items()}
        orig(self, ev)
        ls = self._locks.get(ev.obj)
        if ls is not None and ls.chain_time == 0.0 and before.get(ev.obj):
            ls.chain_time = before[ev.obj]  # undo every chain reset

    monkeypatch.setattr(online_mod.OnlineAnalyzer, "observe", observe)
    invariants = {d.invariant for d in check_trace(trace, False)}
    assert "online-chain" in invariants


def test_catches_perturbed_records(micro_trace):
    # Flip one contended OBTAIN to "uncontended": online counters split
    # from the offline metrics.
    from repro.trace.events import EventType

    records = micro_trace.records.copy()
    ob = np.flatnonzero(
        (records["etype"] == int(EventType.OBTAIN)) & (records["arg"] == 1)
    )
    records["arg"][ob[0]] = 0
    bad = type(micro_trace)(
        records=records, objects=dict(micro_trace.objects),
        threads=dict(micro_trace.threads), meta=dict(micro_trace.meta),
    )
    invariants = {d.invariant for d in check_trace(bad, False)}
    assert "online" in invariants


def test_catches_drifted_identity_replay(micro_trace, monkeypatch):
    # An identity replay that finishes at the wrong time must trip
    # replay-identity even when the lock ranking still matches.
    import types

    import importlib

    # repro.core re-exports the replay_whatif *function*, shadowing the
    # submodule attribute on the package: resolve the module directly.
    rw_mod = importlib.import_module("repro.core.replay_whatif")
    real = rw_mod.replay_identity

    def drifted(trace):
        result = real(trace)
        return types.SimpleNamespace(
            completion_time=result.completion_time + 1.0, trace=result.trace
        )

    monkeypatch.setattr(rw_mod, "replay_identity", drifted)
    invariants = {d.invariant for d in check_trace(micro_trace, False)}
    assert "replay-identity" in invariants


def test_catches_unfaithful_identity_replay(micro_trace, monkeypatch):
    # A "replay" that actually changed the program (L2 critical sections
    # shrunk) diverges in both completion time and cp_fraction ranking.
    import importlib

    from repro.replay import reconstruct

    rw_mod = importlib.import_module("repro.core.replay_whatif")

    def unfaithful(trace):
        return reconstruct(trace).run(shrink_lock="L2", factor=0.5)

    monkeypatch.setattr(rw_mod, "replay_identity", unfaithful)
    invariants = {d.invariant for d in check_trace(micro_trace, False)}
    assert "replay-identity" in invariants


def test_discrepancy_rendering():
    from repro.check.oracle import Discrepancy

    d = Discrepancy("cp-length", "walk 1.0 != duration 2.0")
    assert str(d) == "[cp-length] walk 1.0 != duration 2.0"


def test_catches_dishonest_sampling_intervals(micro_trace, monkeypatch):
    # Zero-width intervals pinned at the point estimate cannot contain
    # the exact value at sub-1.0 rates: sample-coverage must fire.
    from repro.core.estimate import estimate_report as real
    from repro.sampling import crossval as crossval_mod

    def degenerate(trace, *a, **kw):
        import dataclasses

        est = real(trace, *a, **kw)
        est.locks = {
            obj: dataclasses.replace(e, ci_low=0.5, ci_high=0.5)
            for obj, e in est.locks.items()  # confident and wrong
        }
        return est

    monkeypatch.setattr(crossval_mod, "estimate_report", degenerate)
    invariants = {d.invariant for d in check_trace(micro_trace, False)}
    assert "sample-coverage" in invariants


def test_catches_crashing_estimator(micro_trace, monkeypatch):
    from repro.errors import AnalysisError
    from repro.sampling import crossval as crossval_mod

    def boom(trace, *a, **kw):
        raise AnalysisError("estimator exploded")

    monkeypatch.setattr(crossval_mod, "estimate_report", boom)
    found = [d for d in check_trace(micro_trace, False)
             if d.invariant == "sample-coverage"]
    assert found and "exploded" in found[0].detail


def test_validate_equiv_runs_on_corruptions(monkeypatch):
    # The invariant must actually exercise failing traces: count how many
    # of a seed's corruptions the reference rejects.
    from repro.check import oracle

    spec = generate_spec(5)
    trace = run_spec(spec).trace
    seen = []
    real = oracle.reference_trace_problems

    def spy(t):
        seen.append(real(t))
        return seen[-1]

    monkeypatch.setattr(oracle, "reference_trace_problems", spy)
    assert oracle._check_validate_equiv(trace, seed=5) == []
    assert len(seen) == 1 + oracle.CORRUPTIONS_PER_TRACE
    assert seen[0] == [] and sum(bool(p) for p in seen[1:]) >= 4


def test_catches_vectorized_checker_dropping_a_problem(micro_trace, monkeypatch):
    from repro.check import oracle

    real = oracle.trace_problems
    monkeypatch.setattr(oracle, "trace_problems", lambda t: real(t)[1:])
    found = [d for d in check_trace(micro_trace, False) if d.invariant == "validate-equiv"]
    assert found
    assert "corrupt_trace(trace, " in found[0].detail


def test_catches_vectorized_checker_reordering(micro_trace, monkeypatch):
    from repro.check import oracle

    real = oracle.trace_problems
    monkeypatch.setattr(oracle, "trace_problems", lambda t: sorted(real(t)))
    invariants = {d.invariant for seed in range(3)
                  for d in oracle._check_validate_equiv(micro_trace, seed)}
    assert invariants == {"validate-equiv"}
