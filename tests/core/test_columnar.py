"""Columnar-pipeline guarantees.

The bit-identity of the columnar ``analyze`` and the per-event
``reference_analyze`` is pinned by the golden-report tests and the
oracle's ``engine-equiv`` invariant.  This file covers the remaining
columnar contracts:

* the hot path really is columnar — analyzing a trace allocates no
  per-event Python objects (``Event``/``Wait``/``HoldInterval``, nor
  the critical path's ``CPPiece``/``Junction``);
* equal-timestamp pile-ups (the regime zero-duration waits live in)
  and the barrier-heavy workloads (recorded, or rebuilt from ``Event``
  objects) analyze identically under both pipelines, and neither emits
  a zero-duration ``Wait``;
* the vectorized ``observe_batch`` kernel reproduces per-event
  ``observe`` exactly, at every chunking.
"""

import tracemalloc

import numpy as np
import pytest

from repro.check.reference import reference_analyze
from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.trace import Trace
from repro.workloads import SyntheticLocks, get_workload

from tests.conftest import make_micro_program


def _synthetic_trace(ops=400, seed=3):
    return SyntheticLocks(ops_per_thread=ops, nlocks=4).run(
        nthreads=4, seed=seed
    ).trace


def _bench_trace():
    """benchmarks/bench_columnar.py's --quick trace (same generator and
    shape as the 216k-event full bench trace, scaled to test budget;
    the zero-allocation property below is size-independent, and the
    full trace is exercised by the CI bench-columnar job)."""
    return SyntheticLocks(ops_per_thread=800, nlocks=6, barrier_every=100).run(
        nthreads=6, seed=0
    ).trace


def test_columnar_path_builds_no_per_event_objects():
    """The columnar engine must never round-trip through Event/Wait/
    HoldInterval objects — that is the whole point of the numpy hot
    path.  tracemalloc attributes every allocation to the source file
    that made it; after a warm-up pass (imports, caches), a traced
    analyze+render must charge nothing to the per-event object
    modules."""
    trace = _bench_trace()
    per_event_files = ("trace/schema.py", "core/model.py", "core/segments.py",
                      "core/wakers.py", "core/critical_path.py")

    analyze(trace, validate=False).render(10)  # warm up

    tracemalloc.start()
    try:
        analyze(trace, validate=False).render(10)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    offenders = [
        stat
        for stat in snapshot.statistics("filename")
        if any(stat.traceback[0].filename.replace("\\", "/").endswith(f)
               for f in per_event_files)
    ]
    assert not offenders, (
        "columnar analyze allocated in per-event modules: "
        + ", ".join(f"{s.traceback[0].filename} ({s.size}B)" for s in offenders)
    )


def test_default_analyze_constructs_no_per_event_objects(monkeypatch):
    """The probe above charges an allocation to the file that makes it,
    so a ``Wait``/``CPPiece``/``Junction`` built inside ``core/columnar/``
    slips past it.  Make every per-event constructor raise instead: the
    default path (validation on) must still analyze and render the
    50k-event trace."""
    from repro.core.model import CPPiece, HoldInterval, Junction, Wait
    from repro.trace.events import Event

    trace = SyntheticLocks(ops_per_thread=2100, nlocks=8, barrier_every=250).run(
        nthreads=8, seed=0
    ).trace
    assert len(trace) >= 50_000

    def forbidden(*args, **kwargs):
        raise AssertionError("default analyze built a per-event object")

    for cls in (Wait, CPPiece, Junction, HoldInterval, Event):
        monkeypatch.setattr(cls, "__init__", forbidden)
    result = analyze(trace)
    assert "critical lock analysis" in result.render()
    assert result.critical_path.piece_count > 1000
    with pytest.raises(AssertionError, match="per-event object"):
        result.critical_path.pieces  # the patches are live


def test_object_engine_does_allocate_per_event_objects():
    """Sanity check that the probe above has teeth: the per-event
    reference *does* allocate in the per-event modules under identical
    tracing."""
    trace = _synthetic_trace(ops=100)
    reference_analyze(trace).render(10)  # warm up

    tracemalloc.start()
    try:
        reference_analyze(trace).render(10)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    hits = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(
            ("core/model.py", "core/segments.py"))
    ]
    assert hits, "reference pipeline unexpectedly allocation-free in model/segments"


@pytest.mark.parametrize("seed", range(12))
def test_equal_timestamp_traces_agree_across_engines(seed):
    """Property test over fuzzed programs: the generator makes ~35% of
    computes zero-duration, deliberately manufacturing equal-timestamp
    acquire/obtain/release pile-ups.  Both pipelines must render the same
    bytes and drop every zero-duration wait."""
    from repro.check.generator import generate_spec
    from repro.check.interp import run_spec

    trace = run_spec(generate_spec(seed)).trace
    results = {
        "columnar": analyze(trace, validate=False),
        "reference": reference_analyze(trace),
    }

    a, b = results.values()
    assert a.render(None) == b.render(None)
    assert a.critical_path.pieces == b.critical_path.pieces
    for name, res in results.items():
        for tl in res.timelines.values():
            assert all(w.duration > 0 for w in tl.waits), (
                f"zero-duration wait survived in the {name} pipeline"
            )


BARRIER_WORKLOADS = [
    ("synthetic", {"ops_per_thread": 200, "nlocks": 4, "barrier_every": 50}),
    ("radiosity", {"total_tasks": 80, "iterations": 2}),
    ("volrend", {"frames": 2, "tiles_per_frame": 48}),
    ("water-nsquared", {"nmol": 48, "timesteps": 2}),
]


@pytest.mark.parametrize("build", ["columnar", "object"])
@pytest.mark.parametrize(
    "name,params", BARRIER_WORKLOADS, ids=[n for n, _ in BARRIER_WORKLOADS]
)
def test_barrier_workloads_match_reference(name, params, build):
    """Multi-phase barrier workloads analyze bit-identically under the
    columnar pipeline and the per-event reference, whether the trace is
    the recorded record array (``columnar``) or was rebuilt from its
    ``Event`` objects (``object``)."""
    trace = get_workload(name)(**params).run(nthreads=4, seed=11).trace
    ref = reference_analyze(trace)
    if build == "object":
        trace = Trace.from_events(
            list(trace), trace.objects, trace.threads, trace.meta
        )
    col = analyze(trace, validate=False)
    assert col.critical_path.length == ref.critical_path.length
    assert col.critical_path.piece_count == ref.critical_path.piece_count
    # The columnar path's object views are built here, on first access.
    assert col.critical_path.pieces == ref.critical_path.pieces
    assert col.critical_path.junctions == ref.critical_path.junctions
    assert col.critical_path.waits == ref.critical_path.waits
    assert col.report.render(None) == ref.report.render(None)
    assert col.report.to_dict() == ref.report.to_dict()


def _lock_rows(trace):
    from repro.core.online import _LOCK_VERBS

    return trace.records[np.isin(trace.records["etype"], _LOCK_VERBS)]


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_observe_batch_chunked_matches_observe(chunk):
    """The vectorized batch kernel must be a drop-in for per-event
    observe at any chunk boundary — counters exact, accumulated floats
    to 1e-9, and the carried slot state identical so that chunks can be
    split anywhere."""
    trace = _synthetic_trace(ops=200, seed=5)

    ref = OnlineAnalyzer(trace)
    for ev in trace:
        ref.observe(ev)

    batched = OnlineAnalyzer(trace)
    records = trace.records
    for lo in range(0, len(records), chunk):
        batched.observe_batch(records[lo:lo + chunk])

    assert set(batched._locks) == set(ref._locks)
    for obj, want in ref._locks.items():
        got = batched._locks[obj]
        assert got.invocations == want.invocations
        assert got.contended == want.contended
        assert got.wait_time == pytest.approx(want.wait_time, abs=1e-9)
        assert got.hold_time == pytest.approx(want.hold_time, abs=1e-9)
        assert got.max_chain_time == pytest.approx(want.max_chain_time, abs=1e-9)
        assert got.chain_time == pytest.approx(want.chain_time, abs=1e-9)
        # Slot state must carry across arbitrary chunk boundaries.
        assert got._pending_acquire == want._pending_acquire
        assert got._obtain_time == want._obtain_time
        assert got._last_release == want._last_release


def test_observe_batch_micro_matches_offline():
    trace = make_micro_program().run().trace
    offline = analyze(trace)
    online = OnlineAnalyzer(trace)
    online.observe_batch(trace.records)
    for obj, m in offline.report.locks.items():
        ls = online.stats(obj)
        assert ls.invocations == m.total_invocations
        assert ls.hold_time == pytest.approx(
            sum(tl.hold_time(obj) for tl in offline.timelines.values()), abs=1e-9
        )
