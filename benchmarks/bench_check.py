"""Benchmarks for the differential checker and the DAG source-position hoist.

Two concerns:

* ``build_event_graph`` now derives the root THREAD_START positions once
  and caches them on the graph (``EventGraph.source_pos``).  The hoist
  benchmark contrasts the cached path with the old behaviour (re-derive
  on every backtracking call) on a trace with many repeated
  ``critical_events`` calls, the access pattern of the differential
  oracle and the what-if engine.
* End-to-end seed throughput of ``repro check`` — the CI job runs 50
  seeds, so a regression here slows every pipeline run.
"""

import pytest

from repro.check.reference import critical_events
from repro.check.runner import run_seeds
from repro.core.dag import build_event_graph
from repro.workloads import SyntheticLocks


@pytest.fixture(scope="module")
def graph():
    trace = SyntheticLocks(ops_per_thread=300, nlocks=8).run(nthreads=8, seed=2).trace
    return build_event_graph(trace)


@pytest.mark.benchmark(group="dag-source-hoist")
def test_critical_events_cached_sources(benchmark, graph):
    dist = graph.longest_dist()

    def run():
        return critical_events(graph, dist=dist)

    path = benchmark(run)
    assert path


@pytest.mark.benchmark(group="dag-source-hoist")
def test_critical_events_rederived_sources(benchmark, graph):
    # Model the pre-hoist behaviour: the root-position scan happened
    # inside every call, so drop the cache before each invocation.
    dist = graph.longest_dist()

    def run():
        graph.source_pos = None
        return critical_events(graph, dist=dist)

    path = benchmark(run)
    assert path


@pytest.mark.benchmark(group="check-throughput")
def test_check_seed_throughput(benchmark):
    run = benchmark(lambda: run_seeds(count=5, start=0, shrink_failures=False))
    assert run.ok
