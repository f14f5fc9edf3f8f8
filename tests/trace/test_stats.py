"""Descriptive trace statistics."""

import hashlib

import pytest

from repro.check import corrupt_trace, generate_spec, run_spec
from repro.trace.builder import TraceBuilder
from repro.trace.stats import compute_trace_stats
from repro.workloads import get_workload

from tests.conftest import make_micro_program
from tests.golden.test_golden_reports import CASES


@pytest.fixture(scope="module")
def stats():
    return compute_trace_stats(make_micro_program().run().trace)


def test_counts(stats):
    assert stats.nthreads == 4
    assert stats.nobjects == 2
    assert stats.duration == pytest.approx(12.0)
    assert stats.events_by_type["ACQUIRE"] == 8
    assert stats.events_by_type["THREAD_START"] == 4
    assert "BARRIER_ARRIVE" not in stats.events_by_type  # zero counts omitted


def test_busiest_objects(stats):
    names = [name for name, _ in stats.events_by_object]
    assert set(names) == {"L1", "L2"}
    counts = [c for _, c in stats.events_by_object]
    assert counts == sorted(counts, reverse=True)
    assert all(c == 12 for c in counts)  # 4 threads x (acq+obt+rel)


def test_events_per_thread(stats):
    assert set(stats.events_per_thread) == {0, 1, 2, 3}
    assert sum(stats.events_per_thread.values()) == stats.nevents


def test_hold_quantiles(stats):
    p50, p90, p99 = stats.hold_time_quantiles
    # Holds are 4x 2.0 (L1) and 4x 2.5 (L2).
    assert 2.0 <= p50 <= 2.5
    assert p99 == pytest.approx(2.5, abs=0.01)


def test_render(stats):
    text = stats.render()
    assert "events" in text
    assert "Busiest synchronization objects" in text
    assert "p50" in text


def test_empty_holds():
    from repro.sim import Program

    prog = Program()
    prog.spawn(lambda env: (yield env.compute(1.0)))
    s = compute_trace_stats(prog.run().trace)
    assert s.hold_time_quantiles == (0.0, 0.0, 0.0)
    assert s.events_by_object == []


# -- exact pin -------------------------------------------------------------
#
# sha256 of every TraceStats field (repr, so floats are exact) on the
# golden cases, fuzzed programs and corrupted copies of both.  The
# corruptions leave unmatched RELEASEs, doubled OBTAINs and foreign
# object ids, which is where hold pairing and counting can drift.


def _stats_digest(trace) -> str:
    s = compute_trace_stats(trace)
    fields = (
        s.nevents, s.nthreads, s.nobjects, s.duration, s.events_by_type,
        s.events_by_object, s.events_per_thread, s.hold_time_quantiles,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


_GOLDEN_PINS = {
    "ldap": ["6c8721f69a73adcd", "389045daba58c045", "a4edf3b29eb8c7c4",
             "508a2c6c97dcf028", "ae61f8422d393b86"],
    "micro": ["d63551e775407736", "b5393ca1ff39e423", "e07b8aae3715cb18",
              "e3cb72e2981bafcb", "3f04e402401322ae"],
    "radiosity": ["393d1638dd26a9d3", "40e4d95d9c24f5fd", "373bbf34e44401c2",
                  "dac87b263cd0589f", "cc677a4259fd4bde"],
}

_FUZZ_PINS = {
    0: ("afce6ff8a317caf1", "f3b59a1da4d66029"),
    1: ("673202a1bc7aea96", "f5dbf6db0aa70ede"),
    2: ("e9180a85353bc1c6", "98020608531d58c5"),
    3: ("be111431b4c8031d", "3a796ce006abde6b"),
    4: ("0a82a8a09c74cb33", "eaaf13effe69f56f"),
    5: ("87e5f9c66b719c37", "0e0536a158278ac2"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_PINS))
def test_stats_pinned_on_golden_and_corrupted(case):
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    got = [_stats_digest(trace)]
    got += [_stats_digest(corrupt_trace(trace, c)) for c in range(4)]
    assert got == _GOLDEN_PINS[case]


@pytest.mark.parametrize("seed", sorted(_FUZZ_PINS))
def test_stats_pinned_on_fuzz_programs(seed):
    trace = run_spec(generate_spec(seed)).trace
    got = (_stats_digest(trace), _stats_digest(corrupt_trace(trace, seed)))
    assert got == _FUZZ_PINS[seed]


def test_nested_and_unmatched_holds_pair_lifo():
    b = TraceBuilder()
    lock = b.mutex("L")
    t0, t1 = b.thread(), b.thread()
    t0.start(0.0)
    t1.start(0.0)
    t1.release(lock, 0.5)  # pops an empty stack: matches nothing
    t0.acquire(lock, 1.0)
    t0.acquire(lock, 2.0)  # nested in the same (tid, obj): depth 2
    t0.release(lock, 4.0)  # closes the inner hold (2.0)
    t0.release(lock, 7.0)  # closes the outer hold (6.0)
    t1.acquire(lock, 8.0)  # never released: no hold
    t0.exit(9.0)
    t1.exit(9.0)
    s = compute_trace_stats(b.build(validate=False))
    assert s.events_per_thread == {0: 8, 1: 5}
    assert s.events_by_object == [("L", 9)]
    assert s.hold_time_quantiles == (4.0, 5.6, 5.96)
