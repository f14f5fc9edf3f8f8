"""Columnar ``analyze`` against the per-event reference pipeline.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_columnar.py --quick
    PYTHONPATH=src python benchmarks/bench_columnar.py --min-columnar-speedup 5

Builds the 216k-event SyntheticLocks bench trace (8 threads x 9000 ops,
8 locks, a barrier every 250 ops; seed 0), then times the production
columnar ``analyze(trace)`` against ``reference_analyze(trace)`` (the
per-event object pipeline in ``repro.check``), both with validation
off, and checks the two renders are byte-identical — a perf harness
that silently changed the answer would be worse than no harness.
Both runs are sequential, so the ratio does not depend on the CPU
count.

It also times the default path users take, ``analyze(trace)`` with
validation on, and each of its stages on its own (validate, wakers,
timelines, walk, metrics, render), best of ``_STAGE_REPEATS`` each, and
records the tracemalloc peak of one default ``analyze``.  ``whatif_s``
is the what-if layer from scratch: ``predict_shrink(trace, top_lock,
0.5)`` with no prebuilt graph, so it pays for wakers, timelines and the
event DAG as a ``whatif`` job does.  ``views_s`` is the eight analysis
views (windows, phases, blame, the Eyerman model, forecast, Chrome
trace, SVG and ASCII timeline) over one ``analyze`` result.  Every timed
run gets a fresh :class:`Trace` over the same records, so the per-trace
index (``Trace.index``) is built inside the timing, by the first stage
that reads it, as it is for a trace just read from disk.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.check.reference import reference_analyze
from repro.core import analyzer
from repro.core.analyzer import AnalysisResult, analyze
from repro.core.blame import compute_blame
from repro.core.eyerman import fit_model
from repro.core.forecast import forecast
from repro.core.phases import split_phases
from repro.core.report import AnalysisReport
from repro.core.whatif import predict_shrink
from repro.core.windows import windowed_criticality
from repro.export import to_chrome_trace
from repro.trace.trace import Trace
from repro.viz.svg import render_svg
from repro.viz.timeline import render_timeline
from repro.workloads import SyntheticLocks

#: Best-of counts for the timings; stages and the default path are cheap
#: enough to repeat more often than the reference.
_REPEATS = 3
_STAGE_REPEATS = 7
_QUICK_REPEATS = 1


def build_trace(quick: bool):
    if quick:
        params = dict(ops_per_thread=800, nlocks=6, barrier_every=100)
        nthreads = 6
    else:
        params = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
        nthreads = 8
    return SyntheticLocks(**params).run(nthreads=nthreads, seed=0).trace


def fresh(trace: Trace) -> Trace:
    """A new trace over the same records, without a cached index."""
    return Trace(records=trace.records, objects=trace.objects,
                 threads=trace.threads, meta=trace.meta)


def _time(fn, trace: Trace, repeats: int) -> tuple[float, object]:
    """Best-of time of ``fn(t)``, each repeat on a fresh ``t``."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t = fresh(trace)
        t0 = time.perf_counter()
        result = fn(t)
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_stages(trace: Trace, repeats: int) -> dict[str, float]:
    """Best-of time of each default-path stage, each repeat running the
    stages in pipeline order on a fresh trace (the calls ``analyze``
    makes, so validation pays for the index and the others reuse it)."""
    best: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        best[name] = min(best.get(name, float("inf")), time.perf_counter() - t0)
        return result

    for _ in range(repeats):
        t = fresh(trace)
        timed("validate_s", lambda: analyzer.validate_trace(t))
        cw = timed("wakers_s", lambda: analyzer.resolve_wakers_columnar(t))
        ct = timed("timelines_s", lambda: analyzer.build_timelines_columnar(t, cw))
        cp = timed("walk_s", lambda: analyzer.compute_critical_path_columnar(t, ct))
        locks, stats = timed("metrics_s", lambda: (
            analyzer.compute_metrics_columnar(t, ct, cp),
            analyzer.compute_thread_stats_columnar(ct, cp),
        ))
        report = AnalysisReport(
            name=str(t.meta.get("name", "")),
            nthreads=len(ct.tids),
            duration=t.duration,
            cp=cp,
            locks=locks,
            thread_stats=stats,
        )
        timed("render_s", lambda: report.render())
    return best


def run_views(analysis: AnalysisResult) -> None:
    """Every analysis view of one result, rendered as the CLI prints it."""
    trace = analysis.trace
    windowed_criticality(analysis, 10).render()
    split_phases(analysis).render()
    compute_blame(analysis).render(thread_names=trace.threads)
    str(fit_model(analysis))
    forecast(analysis).render()
    to_chrome_trace(trace, analysis)
    render_svg(trace, analysis)
    render_timeline(trace, analysis)


def time_views(trace: Trace, repeats: int) -> float:
    """Best-of time of :func:`run_views` over one default ``analyze``."""
    analysis = analyze(fresh(trace))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_views(analysis)
        best = min(best, time.perf_counter() - t0)
    return best


def default_peak_mb(trace: Trace) -> float:
    """tracemalloc peak of one default ``analyze(...).render()``."""
    t = fresh(trace)
    tracemalloc.start()
    try:
        analyze(t).render()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small trace, machinery check only (CI smoke job)")
    ap.add_argument("--min-columnar-speedup", type=float, default=None,
                    metavar="X", help="fail unless the columnar pipeline beats "
                    "the reference by at least X times")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)
    repeats = _QUICK_REPEATS if args.quick else _REPEATS
    stage_repeats = _QUICK_REPEATS if args.quick else _STAGE_REPEATS

    trace = build_trace(args.quick)
    print(f"trace: {len(trace)} events, {len(trace.threads)} threads")

    t_ref, ref = _time(reference_analyze, trace, repeats)
    t_col, col = _time(lambda t: analyze(t, validate=False), trace, repeats)
    t_def, _ = _time(lambda t: analyze(t).render(), trace, stage_repeats)
    stages = time_stages(trace, stage_repeats)
    top_lock = col.report.top_locks(1)[0].obj
    t_whatif, _ = _time(lambda t: predict_shrink(t, top_lock, 0.5), trace, repeats)
    t_views = time_views(trace, repeats)
    peak_mb = default_peak_mb(trace)

    if col.report.render(None) != ref.report.render(None):
        print("FAIL: columnar report differs from the reference", file=sys.stderr)
        return 1
    speedup = t_ref / t_col if t_col > 0 else float("inf")
    print(f"reference (per-event)  {t_ref:8.3f}s")
    print(f"columnar               {t_col:8.3f}s   ({speedup:.2f}x over reference)")
    print(f"default analyze+render {t_def:8.3f}s   (validation on, "
          f"tracemalloc peak {peak_mb:.1f} MB)")
    for name, seconds in stages.items():
        print(f"  {name[:-2]:<20} {seconds:8.4f}s")
    print(f"what-if from scratch   {t_whatif:8.3f}s   "
          f"(predict_shrink of {trace.object_name(top_lock)} to 50%)")
    print(f"views                  {t_views:8.3f}s   (windows, phases, blame, "
          "model, forecast, chrome, svg, timeline)")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {
                    "bench": "columnar",
                    "quick": args.quick,
                    "events": len(trace),
                    "threads": len(trace.threads),
                    "repeats": repeats,
                    "reference_s": round(t_ref, 4),
                    "columnar_s": round(t_col, 4),
                    "columnar_speedup": round(speedup, 3),
                    "identical_render": True,
                    "stage_repeats": stage_repeats,
                    "default_s": round(t_def, 4),
                    "default_peak_mb": round(peak_mb, 2),
                    "stages": {k: round(v, 4) for k, v in stages.items()},
                    "whatif_s": round(t_whatif, 4),
                    "views_s": round(t_views, 4),
                },
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    if args.min_columnar_speedup is not None and speedup < args.min_columnar_speedup:
        print(f"FAIL: columnar speedup {speedup:.2f}x < required "
              f"{args.min_columnar_speedup:.2f}x", file=sys.stderr)
        return 1
    print("ok: columnar output is byte-identical to the reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
