"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

1. Backward walk vs forward DAG longest path — equal critical-path
   lengths on every workload (and both are timed).
2. What-if DAG prediction vs actual re-run — the prediction brackets the
   measured optimization outcome (the paper's §V.D.3 path-shift effect).
3. Core-limited scheduling — oversubscription folds scheduler delay into
   segments without breaking any invariant.
"""

import pytest

from repro.check.reference import compute_critical_path
from repro.core.analyzer import analyze
from repro.core.dag import build_event_graph
from repro.core.whatif import predict_shrink
from repro.tables import format_table
from repro.workloads import MicroBenchmark, Radiosity, TSP

from conftest import run_once


@pytest.fixture(scope="module")
def radiosity_trace():
    return Radiosity(total_tasks=200, iterations=2).run(nthreads=8, seed=0).trace


@pytest.mark.benchmark(group="ablation-backward-vs-dag")
def test_backward_walk_timing(benchmark, radiosity_trace):
    path = benchmark(compute_critical_path, radiosity_trace)
    assert path.length == pytest.approx(radiosity_trace.duration, abs=1e-9)


@pytest.mark.benchmark(group="ablation-backward-vs-dag")
def test_dag_timing_and_agreement(benchmark, radiosity_trace):
    def run():
        return build_event_graph(radiosity_trace).completion_time()

    dag_time = benchmark.pedantic(run, rounds=3, iterations=1)
    path = compute_critical_path(radiosity_trace)
    assert dag_time == pytest.approx(path.length, abs=1e-9)


@pytest.mark.benchmark(group="ablation-whatif")
def test_whatif_vs_actual(benchmark, show):
    """Predicted vs measured optimization outcome per workload."""

    def experiment():
        rows = []
        checks = []
        # Micro: prediction is exact.
        base = MicroBenchmark().run(nthreads=4, seed=0)
        pred = predict_shrink(base.trace, "L2", factor=0.6)
        actual = base.completion_time / MicroBenchmark(optimize="L2").run(
            nthreads=4, seed=0
        ).completion_time
        rows.append(["micro / L2 -> 60%", f"{pred.predicted_speedup:.3f}",
                     f"{actual:.3f}"])
        checks.append(abs(pred.predicted_speedup - actual) < 1e-6)

        # Radiosity: eliminating tq[0].qlock CSs vs the real two-lock fix.
        orig = Radiosity().run(nthreads=16, seed=0)
        pred = predict_shrink(orig.trace, "tq[0].qlock", factor=0.0)
        opt = Radiosity(two_lock_queues=True).run(nthreads=16, seed=0)
        actual = orig.completion_time / opt.completion_time
        rows.append(["radiosity / tq[0].qlock -> 0 (vs 2-lock fix)",
                     f"{pred.predicted_speedup:.3f}", f"{actual:.3f}"])
        # Eliminating the CS entirely upper-bounds the 2-lock split's gain.
        checks.append(pred.predicted_speedup >= actual * 0.95)

        # TSP: same comparison for Qlock.
        orig = TSP().run(nthreads=16, seed=0)
        pred = predict_shrink(orig.trace, "Q.qlock", factor=0.0)
        opt = TSP(split_queue=True).run(nthreads=16, seed=0)
        actual = orig.completion_time / opt.completion_time
        rows.append(["tsp / Q.qlock -> 0 (vs head/tail split)",
                     f"{pred.predicted_speedup:.3f}", f"{actual:.3f}"])
        checks.append(pred.predicted_speedup >= actual * 0.95)
        return rows, checks

    rows, checks = run_once(benchmark, experiment)
    show(format_table(
        ["Scenario", "Predicted speedup", "Measured speedup"],
        rows,
        title="[ablation] what-if DAG prediction vs actual re-run",
    ))
    assert all(checks)


@pytest.mark.benchmark(group="ablation-cores")
def test_core_limited_scheduling(benchmark, show):
    """Oversubscribing cores slows completion but keeps analysis sound."""

    def experiment():
        rows = []
        times = {}
        for cores in (None, 8, 4):
            res = Radiosity(total_tasks=120, iterations=1).run(
                nthreads=8, seed=0, cores=cores
            )
            analysis = analyze(res.trace)
            times[cores] = res.completion_time
            rows.append([
                "unlimited" if cores is None else cores,
                f"{res.completion_time:.2f}",
                f"{analysis.critical_path.coverage_error:.2e}",
            ])
        return rows, times

    rows, times = run_once(benchmark, experiment)
    show(format_table(
        ["Cores", "Completion time", "CP coverage error"],
        rows,
        title="[ablation] core-limited scheduling (8 threads)",
    ))
    assert times[4] > times[8] * 1.2  # halving cores must hurt
    assert times[8] <= times[4]
