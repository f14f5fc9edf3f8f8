"""Trace validation: vectorized checker vs the per-event reference.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_validate.py --quick
    PYTHONPATH=src python benchmarks/bench_validate.py --min-speedup 20 --json out.json

Times ``trace_problems`` (the production checker, numpy kernels over the
record array) and ``reference_trace_problems`` (the per-event oracle in
``repro.check``) warm, best of N, on the 216k-event SyntheticLocks bench
trace (8 threads x 9000 ops, 8 locks, a barrier every 250 ops; seed 0).
A faster checker that reported different problems would be worse than a
slow one, so the script also requires *identical* lists, order
included, on 200 corrupted traces (8 ``corrupt_trace`` variants of each
of 25 fuzz-generated programs) before it reports any speedup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.check.generator import corrupt_trace, generate_spec
from repro.check.interp import run_spec
from repro.check.reference import reference_trace_problems
from repro.trace.validate import trace_problems
from repro.workloads import SyntheticLocks

_CORRUPTIONS_PER_PROGRAM = 8
#: Best-of counts for the warm timings; the reference is ~100x slower.
_REPEATS = 5
_QUICK_REPEATS = 3
_REFERENCE_REPEATS = 2


def build_trace(quick: bool):
    if quick:
        params = dict(ops_per_thread=800, nlocks=6, barrier_every=100)
        nthreads = 6
    else:
        params = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
        nthreads = 8
    return SyntheticLocks(**params).run(nthreads=nthreads, seed=0).trace


def _best(fn, repeats: int) -> tuple[float, object]:
    fn()  # warm-up: imports, numpy dispatch caches
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def check_corruptions(programs: int) -> tuple[int, int, list[str]]:
    """(traces checked, traces with problems, mismatch descriptions)."""
    checked = failing = 0
    mismatches: list[str] = []
    for seed in range(programs):
        trace = run_spec(generate_spec(seed)).trace
        for k in range(_CORRUPTIONS_PER_PROGRAM):
            cseed = seed * _CORRUPTIONS_PER_PROGRAM + k
            bad = corrupt_trace(trace, cseed)
            ref = reference_trace_problems(bad)
            checked += 1
            failing += bool(ref)
            if trace_problems(bad) != ref:
                mismatches.append(f"program seed {seed}, corrupt_trace seed {cseed}")
    return checked, failing, mismatches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="14k-event trace, 40 corruptions (CI smoke job)")
    ap.add_argument("--min-speedup", type=float, default=None, metavar="X",
                    help="fail unless the vectorized checker is X times faster")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON")
    args = ap.parse_args(argv)
    repeats = _QUICK_REPEATS if args.quick else _REPEATS

    checked, failing, mismatches = check_corruptions(5 if args.quick else 25)
    print(f"corrupted traces: {checked} checked, {failing} with problems, "
          f"{len(mismatches)} mismatches")
    if mismatches:
        for m in mismatches[:10]:
            print(f"FAIL: problem lists differ: {m}", file=sys.stderr)
        return 1

    trace = build_trace(args.quick)
    t_fast, fast = _best(lambda: trace_problems(trace), repeats)
    t_ref, ref = _best(lambda: reference_trace_problems(trace), _REFERENCE_REPEATS)
    if fast != ref:
        print("FAIL: problem lists differ on the bench trace", file=sys.stderr)
        return 1
    speedup = t_ref / t_fast if t_fast > 0 else float("inf")
    print(f"trace: {len(trace)} events, {len(trace.threads)} threads, "
          f"{len(fast)} problems")
    print(f"reference (per-event)  {t_ref:8.3f}s   {len(trace) / t_ref:12,.0f} events/s")
    print(f"vectorized             {t_fast:8.3f}s   {len(trace) / t_fast:12,.0f} events/s"
          f"   ({speedup:.1f}x)")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {
                    "bench": "validate",
                    "quick": args.quick,
                    "events": len(trace),
                    "threads": len(trace.threads),
                    "repeats": repeats,
                    "vectorized_s": round(t_fast, 4),
                    "reference_s": round(t_ref, 4),
                    "speedup": round(speedup, 2),
                    "corrupted_traces": checked,
                    "corrupted_with_problems": failing,
                    "identical_lists": True,
                },
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x < required {args.min_speedup:.1f}x",
              file=sys.stderr)
        return 1
    print("ok: identical problem lists on every corrupted trace")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
