"""Performance microbenchmarks for the tool itself.

Not a paper figure: measures the throughput of the simulator, the
analysis pipeline and trace I/O, so regressions in the tool are visible.
"""

import pytest

from repro.check.reference import build_timelines
from repro.core.analyzer import analyze
from repro.trace.reader import read_trace
from repro.trace.writer import write_trace
from repro.workloads import Radiosity, SyntheticLocks


@pytest.fixture(scope="module")
def big_trace():
    return Radiosity(total_tasks=300, iterations=2).run(nthreads=16, seed=0).trace


@pytest.mark.benchmark(group="tool-simulator")
def test_simulator_throughput(benchmark):
    def run():
        return SyntheticLocks(ops_per_thread=250, nlocks=8).run(nthreads=8, seed=1)

    result = benchmark(run)
    assert len(result.trace) > 5000


@pytest.mark.benchmark(group="tool-analysis")
def test_full_analysis(benchmark, big_trace):
    report = benchmark(lambda: analyze(big_trace).report)
    assert report.nthreads == 16


@pytest.mark.benchmark(group="tool-analysis")
def test_timeline_construction(benchmark, big_trace):
    timelines = benchmark(build_timelines, big_trace)
    assert len(timelines) == 16


@pytest.mark.benchmark(group="tool-io")
def test_trace_write(benchmark, big_trace, tmp_path):
    path = tmp_path / "big.clt"
    benchmark(write_trace, big_trace, path)
    assert path.stat().st_size > len(big_trace) * 33


@pytest.mark.benchmark(group="tool-io")
def test_trace_read(benchmark, big_trace, tmp_path):
    path = write_trace(big_trace, tmp_path / "big.clt")
    loaded = benchmark(read_trace, path)
    assert len(loaded) == len(big_trace)
