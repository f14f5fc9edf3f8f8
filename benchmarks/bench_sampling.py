"""Sampling capture: overhead reduction and ranking recovery.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_sampling.py --quick
    PYTHONPATH=src python benchmarks/bench_sampling.py --json BENCH_SAMPLING.json

Two claims are measured and asserted (EXPERIMENTS.md, docs/sampling.md):

* **Capture-volume reduction** — a live ``ProfilingSession`` at
  ``sample_rate=0.1`` buffers at least ``--min-reduction`` (default 5x)
  fewer lock events than full capture of the same workload, with the
  trace bytes shrinking in proportion.  Event volume is the asserted
  proxy: it is deterministic, unlike wall time on shared CI runners.
  Best-of-7 wall times are recorded separately for capture (the
  ``with`` block) and assembly (``session.trace()``); the full run
  captures 150k events so that assembly shows, and CI asserts that
  assembling the full capture costs at most half of capturing it.
  ``downsample_s`` is the best-of-7 time to thin that full capture to
  the same rate offline with ``downsample_trace``.
* **Ranking recovery** — on every golden case, the statistical
  estimator over a rate-0.1 sample recovers the exact engine's top-1
  critical lock (asserted) and its top-3 set (recorded, asserted at
  rate >= 0.5), with the exact ``cp_fraction`` inside the 90% CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.analyzer import analyze
from repro.instrument import ProfilingSession
from repro.sampling import cross_validate, downsample_trace
from repro.trace.events import EventType
from repro.workloads import get_workload

#: Keep in sync with tests/golden/test_golden_reports.py::CASES.
CASES = {
    "micro": ("micro", {}, 4, 0),
    "radiosity": ("radiosity", {"total_tasks": 80, "iterations": 2}, 4, 11),
    "ldap": (
        "openldap",
        {"requests": 150, "nbuckets": 2, "write_prob": 0.35,
         "write_cost": 0.12, "lookup_cost": 0.04},
        6,
        1,
    ),
}

#: Cases large enough for the top-1 recovery assertion at rate 0.1
#: (micro keeps ~1 invocation per lock at 10% — too sparse to assert).
RECOVERY_CASES = ("radiosity", "ldap")

#: Best-of count for the capture wall times (event counts are from the last run).
_CAPTURE_REPEATS = 7

_LOCK_VERBS = (int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE))


def build_trace(case: str):
    workload, params, nthreads, seed = CASES[case]
    return get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace


def lock_events(trace) -> int:
    import numpy as np

    locks = {o.obj for o in trace.objects.values() if o.kind.is_lock_like}
    mask = np.isin(trace.records["etype"], _LOCK_VERBS)
    mask &= np.isin(trace.records["obj"], np.fromiter(locks, dtype=np.int64))
    return int(mask.sum())


def capture_live(rate: float | None, nthreads: int = 4, rounds: int = 400):
    """Lock-heavy real-thread workload; returns
    ``(trace, capture_seconds, assemble_seconds)``."""
    t0 = time.perf_counter()
    with ProfilingSession(name="bench", sample_rate=rate, sample_seed=1) as s:
        locks = [s.lock(f"m{i}") for i in range(4)]
        counters = [0] * 4

        def body(i):
            for r in range(rounds):
                lock = locks[(i + r) % 4]
                with lock:
                    counters[(i + r) % 4] += 1

        threads = [s.thread(body, args=(i,)) for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    t1 = time.perf_counter()
    trace = s.trace()
    return trace, t1 - t0, time.perf_counter() - t1


def bench_capture(rate: float, nthreads: int, rounds: int, repeats: int) -> dict:
    """Event counts of one full and one sampled capture, and the best-of
    ``repeats`` capture and assembly wall times of each (the two
    alternate, so both see the same host load)."""
    t_full = t_sampled = a_full = a_sampled = float("inf")
    for _ in range(repeats):
        full, t, a = capture_live(None, nthreads, rounds)
        t_full, a_full = min(t_full, t), min(a_full, a)
        sampled, t, a = capture_live(rate, nthreads, rounds)
        t_sampled, a_sampled = min(t_sampled, t), min(a_sampled, a)
    t_down = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        downsample_trace(full, rate, seed=1)
        t_down = min(t_down, time.perf_counter() - t0)
    full_locks = lock_events(full)
    kept_locks = lock_events(sampled)
    return {
        "rate": rate,
        "threads": nthreads,
        "rounds": rounds,
        "repeats": repeats,
        "full_events": len(full),
        "sampled_events": len(sampled),
        "full_lock_events": full_locks,
        "sampled_lock_events": kept_locks,
        "event_reduction": full_locks / max(1, kept_locks),
        "full_capture_s": round(t_full, 4),
        "sampled_capture_s": round(t_sampled, 4),
        "full_assemble_s": round(a_full, 4),
        "sampled_assemble_s": round(a_sampled, 4),
        "downsample_s": round(t_down, 4),
    }


def bench_recovery(case: str, rates: tuple[float, ...]) -> dict:
    """Ranking recovery at the pinned seed derivation (cross_validate
    with seed=0 — the same cells the golden tests and the oracle's
    sample-coverage invariant pin)."""
    trace = build_trace(case)
    t0 = time.perf_counter()
    exact = analyze(trace).report
    t_exact = time.perf_counter() - t0

    t0 = time.perf_counter()
    cv = cross_validate(trace, rates=rates, k=3, seed=0, exact=exact)
    t_est = time.perf_counter() - t0

    rows = []
    for rv in cv.rates:
        sampled = downsample_trace(trace, rv.rate, seed=rv.seed)
        rows.append({
            "rate": rv.rate,
            "seed": rv.seed,
            "events_kept": len(sampled),
            "exact_top3": rv.exact_top,
            "estimated_top3": rv.estimated_top,
            "top1_recovered": bool(
                rv.estimated_top[:1] == rv.exact_top[:1]
            ),
            "top3_recovered": bool(rv.recovered),
            "ci_cells": len(rv.coverage),
            "ci_covered": len([c for c in rv.coverage if c.covered]),
        })
    return {
        "case": case,
        "events": len(trace),
        "exact_analysis_s": round(t_exact, 4),
        "estimate_all_rates_s": round(t_est, 4),
        "rates": rows,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller live capture, ldap only (CI smoke job)")
    ap.add_argument("--rate", type=float, default=0.1,
                    help="sampling rate for the capture-overhead claim")
    ap.add_argument("--rates", nargs="*", type=float, default=[1.0, 0.5, 0.1],
                    metavar="R", help="rates swept for ranking recovery")
    ap.add_argument("--min-reduction", type=float, default=5.0,
                    help="lock-event reduction floor at --rate (default 5x)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    ap.add_argument("--no-require-top1", dest="require_top1",
                    action="store_false", default=True,
                    help="skip the rate-0.1 top-1 recovery assertion")
    args = ap.parse_args(argv)

    failed = False

    rounds = 100 if args.quick else 12_500
    cap = bench_capture(args.rate, nthreads=4, rounds=rounds,
                        repeats=1 if args.quick else _CAPTURE_REPEATS)
    print(f"live capture at rate {args.rate}: "
          f"{cap['full_lock_events']} -> {cap['sampled_lock_events']} lock events "
          f"({cap['event_reduction']:.1f}x reduction); "
          f"capture {cap['full_capture_s']:.2f}s -> {cap['sampled_capture_s']:.2f}s, "
          f"assembly {cap['full_assemble_s']:.2f}s -> {cap['sampled_assemble_s']:.2f}s, "
          f"offline downsample of the full capture {cap['downsample_s']:.2f}s")
    if cap["event_reduction"] < args.min_reduction:
        print(f"FAIL: event reduction {cap['event_reduction']:.1f}x below the "
              f"{args.min_reduction}x floor", file=sys.stderr)
        failed = True

    cases = ["ldap"] if args.quick else list(RECOVERY_CASES)
    rates = tuple(args.rates)
    recovery = []
    for case in cases:
        res = bench_recovery(case, rates)
        recovery.append(res)
        print(f"\n{case}: {res['events']} events, "
              f"exact analysis {res['exact_analysis_s']:.2f}s, "
              f"all estimates {res['estimate_all_rates_s']:.2f}s")
        for row in res["rates"]:
            mark = "ok " if row["top3_recovered"] else "MISS"
            print(f"  rate {row['rate']:4.2f}: kept {row['events_kept']:6d} events, "
                  f"top-3 {mark} top-1 {'ok' if row['top1_recovered'] else 'flip'}  "
                  f"CI coverage {row['ci_covered']}/{row['ci_cells']}")
            if not row["top3_recovered"]:
                print(f"FAIL: {case} rate {row['rate']} lost the top-3 set: "
                      f"{row['estimated_top3']} vs {row['exact_top3']}",
                      file=sys.stderr)
                failed = True
            # Top-1 order is asserted where the headline claim lives:
            # the low-rate regime (<= 0.25) and the exact end (1.0).
            # At intermediate rates two near-saturated locks can tie at
            # the clipped point estimate and flip order.
            if (args.require_top1 and not row["top1_recovered"]
                    and (row["rate"] <= 0.25 or row["rate"] >= 1.0)):
                print(f"FAIL: {case} rate {row['rate']} lost the top-1 "
                      f"critical lock: {row['estimated_top3']} vs "
                      f"{row['exact_top3']}", file=sys.stderr)
                failed = True

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {"bench": "sampling", "quick": args.quick,
                 "capture": cap, "recovery": recovery},
                f, indent=2,
            )
            f.write("\n")
        print(f"\nnumbers written to {args.json}")

    if failed:
        return 1
    print(f"\nok: >={args.min_reduction}x capture reduction at rate {args.rate}, "
          f"top-3 set recovered at every rate, top-1 at rate <= 0.25")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
