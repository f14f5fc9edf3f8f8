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
timelines, walk, metrics, render), best of ``_STAGE_REPEATS`` each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.check.reference import reference_analyze
from repro.core import analyzer
from repro.core.analyzer import analyze
from repro.core.report import AnalysisReport
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


def _time(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_stages(trace, repeats: int) -> dict[str, float]:
    """Best-of time of each default-path stage, run in pipeline order on
    the previous stage's output (the calls ``analyze`` makes)."""
    t_val, _ = _time(lambda: analyzer.validate_trace(trace), repeats)
    t_wak, cw = _time(lambda: analyzer.resolve_wakers_columnar(trace), repeats)
    t_tl, ct = _time(lambda: analyzer.build_timelines_columnar(trace, cw), repeats)
    t_walk, cp = _time(lambda: analyzer.compute_critical_path_columnar(trace, ct), repeats)
    t_met, (locks, stats) = _time(
        lambda: (
            analyzer.compute_metrics_columnar(trace, ct, cp),
            analyzer.compute_thread_stats_columnar(ct, cp),
        ),
        repeats,
    )
    report = AnalysisReport(
        name=str(trace.meta.get("name", "")),
        nthreads=len(ct.tids),
        duration=trace.duration,
        cp=cp,
        locks=locks,
        thread_stats=stats,
    )
    t_ren, _ = _time(lambda: report.render(), repeats)
    return {
        "validate_s": t_val,
        "wakers_s": t_wak,
        "timelines_s": t_tl,
        "walk_s": t_walk,
        "metrics_s": t_met,
        "render_s": t_ren,
    }


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

    t_ref, ref = _time(lambda: reference_analyze(trace), repeats)
    t_col, col = _time(lambda: analyze(trace, validate=False), repeats)
    t_def, _ = _time(lambda: analyze(trace).render(), stage_repeats)
    stages = time_stages(trace, stage_repeats)

    if col.report.render(None) != ref.report.render(None):
        print("FAIL: columnar report differs from the reference", file=sys.stderr)
        return 1
    speedup = t_ref / t_col if t_col > 0 else float("inf")
    print(f"reference (per-event)  {t_ref:8.3f}s")
    print(f"columnar               {t_col:8.3f}s   ({speedup:.2f}x over reference)")
    print(f"default analyze+render {t_def:8.3f}s   (validation on)")
    for name, seconds in stages.items():
        print(f"  {name[:-2]:<20} {seconds:8.4f}s")

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
                    "stages": {k: round(v, 4) for k, v in stages.items()},
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
