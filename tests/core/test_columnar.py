"""Columnar-pipeline guarantees.

The bit-identity of the columnar ``analyze`` and the per-event
``reference_analyze`` is pinned by the golden-report tests and the
oracle's ``engine-equiv`` invariant.  This file covers the remaining
columnar contracts:

* the hot path really is columnar — analyzing a trace allocates no
  per-event Python objects (``Event``/``Wait``/``HoldInterval``, nor
  the critical path's ``CPPiece``/``Junction``), and no production
  layer (what-if, plan, replay, attribution, estimation) calls the
  per-event reference chain;
* equal-timestamp pile-ups (the regime zero-duration waits live in)
  and the barrier-heavy workloads (recorded, or rebuilt from ``Event``
  objects) analyze identically under both pipelines, and neither emits
  a zero-duration ``Wait``;
* the live ``OnlineAnalyzer`` fed the records at any chunking reports
  exactly what ``analyze`` reports.
"""

import tracemalloc

import numpy as np
import pytest

from repro.check.reference import path_from_columns, reference_analyze
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
    per_event_files = ("trace/schema.py", "core/model.py", "check/reference.py")

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


def test_default_analyze_constructs_no_per_event_objects(monkeypatch, tmp_path):
    """The probe above charges an allocation to the file that makes it,
    so a ``Wait``/``CPPiece``/``Junction`` built inside ``core/columnar/``
    slips past it.  Make every per-event constructor raise instead: the
    default path (validation on) must still analyze and render the
    50k-event trace, every analysis view must run on the result, and so
    must lock order, the ``.jsonl`` writer, downsampling with the
    estimator, and trace statistics.  Only the ``Trace`` read view and
    ``repro.check`` build ``Event``s."""
    from repro.core.blame import compute_blame
    from repro.core.estimate import estimate_report
    from repro.core.eyerman import fit_model
    from repro.core.forecast import forecast
    from repro.core.lockorder import build_lock_order
    from repro.check.reference import CPPiece, HoldInterval, Junction, ThreadTimeline, Wait
    from repro.core.phases import split_phases
    from repro.core.windows import windowed_criticality
    from repro.export import to_chrome_trace
    from repro.sampling import downsample_trace
    from repro.trace.events import Event
    from repro.trace.stats import compute_trace_stats
    from repro.trace.writer import write_trace
    from repro.viz.svg import render_svg
    from repro.viz.timeline import render_timeline

    trace = SyntheticLocks(ops_per_thread=2100, nlocks=8, barrier_every=250).run(
        nthreads=8, seed=0
    ).trace
    assert len(trace) >= 50_000

    def forbidden(*args, **kwargs):
        raise AssertionError("default analyze built a per-event object")

    for cls in (Wait, CPPiece, Junction, HoldInterval, ThreadTimeline, Event):
        monkeypatch.setattr(cls, "__init__", forbidden)
    result = analyze(trace)
    assert "critical lock analysis" in result.render()
    assert windowed_criticality(result, 10).nwindows == 10
    assert split_phases(result).phases
    assert compute_blame(result).locks
    assert fit_model(result).nthreads == 8
    assert forecast(result).locks
    assert to_chrome_trace(trace, result)
    assert render_svg(trace, result).startswith("<svg")
    assert "locks:" in render_timeline(trace, result)
    assert result.critical_path.piece_count > 1000
    assert build_lock_order(trace).render()
    assert write_trace(trace, tmp_path / "x.jsonl").stat().st_size > 0
    assert estimate_report(downsample_trace(trace, 0.1)).locks
    assert compute_trace_stats(trace).nevents == len(trace)
    with pytest.raises(AssertionError, match="per-event object"):
        path_from_columns(result)  # the patches are live
    with pytest.raises(AssertionError, match="per-event object"):
        next(iter(trace))  # the read view still builds them


#: The per-event reference chain; no production layer may call into it.
_REFERENCE_CHAIN = (
    "resolve_wakers",
    "build_timelines",
    "compute_critical_path",
    "compute_metrics",
    "compute_thread_stats",
)


@pytest.mark.parametrize("case", ["micro", "ldap"])
def test_production_layers_never_run_the_reference_chain(case, monkeypatch):
    """analyze, what-if, plan, replay, attribution and estimation all run
    on the columnar wakers/timelines.  Swapping the reference functions'
    code (so every binding of them raises, wherever it was imported)
    must leave the whole stack working."""
    from repro.check import reference
    from repro.core.attribution import attribute_lock
    from repro.core.estimate import estimate_report
    from repro.core.planner import plan_optimizations
    from repro.core.whatif import predict_shrink
    from repro.replay import reconstruct

    from tests.golden.test_golden_reports import CASES

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace

    def forbidden(*args, **kwargs):
        raise AssertionError("a production layer ran the per-event reference chain")

    for name in _REFERENCE_CHAIN:
        monkeypatch.setattr(getattr(reference, name), "__code__", forbidden.__code__)
    with pytest.raises(AssertionError, match="reference chain"):
        reference.reference_analyze(trace)  # the patches are live

    analysis = analyze(trace)
    lock = analysis.report.top_locks(1)[0].name
    assert predict_shrink(trace, lock, 0.5) == analysis.what_if(lock, 0.5)
    assert analysis.what_if_no_contention(lock).predicted_time > 0
    assert plan_optimizations(analysis, steps=3).steps
    assert reconstruct(trace).run(shrink_lock=lock, factor=0.5).completion_time > 0
    assert attribute_lock(analysis, lock).shares
    assert lock in estimate_report(trace, rate=1.0).render(None)


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
            ("core/model.py", "check/reference.py"))
    ]
    assert hits, "reference pipeline unexpectedly allocation-free in model/reference"


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
    assert path_from_columns(a).pieces == b.path.pieces
    ct = a.timeline_columns
    assert np.all(ct.w_end > ct.w_start), (
        "zero-duration wait survived in the columnar pipeline"
    )
    for tl in b.timelines.values():
        assert all(w.duration > 0 for w in tl.waits), (
            "zero-duration wait survived in the reference pipeline"
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
    path = path_from_columns(col)
    assert path.pieces == ref.path.pieces
    assert path.junctions == ref.path.junctions
    assert path.waits == ref.path.waits
    assert col.report.render(None) == ref.report.render(None)
    assert col.report.to_dict() == ref.report.to_dict()


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_observe_batch_chunked_matches_observe(chunk):
    """The live analyzer fed the records at any chunk boundary reports
    and renders exactly what ``analyze`` does."""
    from repro.trace.writer import header_dict

    trace = _synthetic_trace(ops=200, seed=5)
    online = OnlineAnalyzer()
    records = trace.records
    for lo in range(0, len(records), chunk):
        online.observe_batch(records[lo:lo + chunk], header=header_dict(trace))
    want = analyze(trace, validate=False)
    assert online.result().report.to_dict() == want.report.to_dict()
    assert online.render(None) == want.render(None)


def test_observe_batch_micro_matches_offline():
    trace = make_micro_program().run().trace
    offline = analyze(trace)
    online = OnlineAnalyzer().observe_batch(trace.records)
    for ls in online.snapshot()["locks"]:
        m = offline.report.locks[ls["obj"]]
        assert ls["invocations"] == m.total_invocations
        assert ls["cp_time_frac"] == m.cp_fraction
