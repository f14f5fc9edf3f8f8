"""Fleet aggregation: throughput and regression-detection quality.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick
    PYTHONPATH=src python benchmarks/bench_fleet.py --json BENCH_FLEET.json

Three claims are measured and asserted (docs/fleet.md, EXPERIMENTS.md):

* **Aggregation throughput** — folding stored analysis reports into
  :class:`repro.fleet.FleetAggregator` as one durable group commit (a
  store catch-up) sustains at least
  ``--min-throughput`` observations/s (default 200/s) over >= 1k
  synthetic reports, and a fleet-wide summary + regression sweep over
  the resulting state stays interactive (recorded, not asserted).
* **Regression detection quality** — with per-run gaussian noise
  (sigma 0.01) on every lock's cp_fraction, seeding a 0.2 cp_fraction
  shift into the latest run of a subset of workloads is detected with
  precision and recall >= ``--min-precision`` / ``--min-recall``
  (default 0.9 each): the calibrated noise band flags the shifted
  workloads and stays silent on the rest.
* **Durable observe stays flat** — one ``observe`` that returns only
  once its observation is on disk costs about the same over a fleet
  state of 4,000 observations as over one of 100 (the median at most
  ``--max-durable-growth`` times as much): it appends one line to the
  observation log instead of rewriting the state.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.fleet import FleetAggregator, Observation

#: Injected cp_fraction shift (moved from the top lock to the second).
SHIFT = 0.2
#: Per-run gaussian noise on each lock's cp_fraction.
NOISE_SIGMA = 0.01
#: Fleet sizes (observations held) the durable observe is timed at.
SMALL_FLEET, LARGE_FLEET = 100, 4000


def synth_report(locks: dict[str, float], workload: str) -> dict:
    return {
        "name": workload,
        "nthreads": 8,
        "duration": 10.0,
        "locks": {
            name: {
                "cp_time_frac": max(0.0, cp),
                "cont_prob_on_cp": min(1.0, max(0.0, cp) + 0.1),
                "wait_time_frac": max(0.0, cp) / 2,
            }
            for name, cp in locks.items()
        },
    }


def make_fleet(
    workloads: int, runs: int, shifted: int, seed: int = 7
) -> tuple[list[tuple[str, str, dict]], set[str]]:
    """Synthesize (digest, workload, report) rows + the shifted workload set.

    Each workload gets 4 locks whose base cp_fractions are separated by
    >= 0.05 so only the *injected* shift should cross the noise band.
    """
    rng = random.Random(seed)
    rows: list[tuple[str, str, dict]] = []
    shifted_set = set()
    for w in range(workloads):
        workload = f"wl-{w:03d}"
        top = 0.45 + rng.random() * 0.2  # 0.45..0.65
        base = {
            f"pool[{w}].hot#1": top,
            "index_lock": top - 0.15,
            "log_lock": top - 0.25,
            "stats_lock": top - 0.35,
        }
        inject = w < shifted
        if inject:
            shifted_set.add(workload)
        for r in range(runs):
            locks = {
                name: cp + rng.gauss(0.0, NOISE_SIGMA)
                for name, cp in base.items()
            }
            if inject and r == runs - 1:  # the latest run regressed
                locks[f"pool[{w}].hot#1"] -= SHIFT
                locks["index_lock"] += SHIFT
            rows.append(
                (f"{workload}-run-{r}", workload, synth_report(locks, workload))
            )
    return rows, shifted_set


def _commit_group(agg: FleetAggregator, rows) -> None:
    """Commit ``rows`` as one group (one fsync), as a store catch-up does."""
    agg.commit([
        Observation.from_report(report, digest=digest, workload=workload)
        for digest, workload, report in rows
    ])


def bench_aggregation(state_dir: Path, rows) -> dict:
    agg = FleetAggregator(state_dir)
    t0 = time.perf_counter()
    _commit_group(agg, rows)
    t_observe = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary = agg.summary(top=20)
    t_summary = time.perf_counter() - t0
    t0 = time.perf_counter()
    regressions = agg.regressions()
    t_regressions = time.perf_counter() - t0
    t0 = time.perf_counter()
    FleetAggregator(state_dir)  # cold reload of the persisted state
    t_reload = time.perf_counter() - t0
    return {
        "reports": len(rows),
        "observe_s": round(t_observe, 4),
        "throughput_per_s": len(rows) / t_observe if t_observe else float("inf"),
        "summary_s": round(t_summary, 4),
        "regressions_s": round(t_regressions, 4),
        "state_reload_s": round(t_reload, 4),
        "state_bytes": sum(f.stat().st_size for f in state_dir.iterdir()),
        "clusters": summary["clusters"],
        "agg": agg,
        "regressions": regressions,
    }


def bench_durable_observe(state_dir: Path, rows, size: int, repeats: int) -> dict:
    """Time a durable ``observe`` on a fleet already holding ``size``
    observations: the cost each upload pays in the service's ingestor."""
    agg = FleetAggregator(state_dir)
    _commit_group(agg, rows[:size])
    times = []
    for digest, workload, report in rows[size:size + repeats]:
        t0 = time.perf_counter()
        agg.observe(report, digest=digest, workload=workload)
        times.append(time.perf_counter() - t0)
    times.sort()
    t0 = time.perf_counter()
    agg.compact()
    compact_s = time.perf_counter() - t0
    return {
        "observations": size,
        "repeats": repeats,
        "mean_s": sum(times) / len(times),
        "median_s": times[len(times) // 2],
        "max_s": times[-1],
        "compact_s": compact_s,
        "state_bytes": agg.state_path.stat().st_size,
    }


def score_detection(regressions: dict, shifted: set[str]) -> dict:
    flagged = {
        f["workload"] for f in regressions["flags"] if f["kind"] == "cp_shift"
    }
    tp = len(flagged & shifted)
    precision = tp / len(flagged) if flagged else 1.0
    recall = tp / len(shifted) if shifted else 1.0
    return {
        "seeded_shifts": sorted(shifted),
        "flagged": sorted(flagged),
        "true_positives": tp,
        "false_positives": len(flagged - shifted),
        "false_negatives": len(shifted - flagged),
        "precision": precision,
        "recall": recall,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller fleet (CI smoke: 8 workloads x 25 runs)")
    ap.add_argument("--workloads", type=int, default=25)
    ap.add_argument("--runs", type=int, default=60, help="runs per workload")
    ap.add_argument("--shifted", type=int, default=8,
                    help="workloads given an injected cp_fraction shift")
    ap.add_argument("--min-throughput", type=float, default=200.0,
                    help="observations/s floor (default %(default)s)")
    ap.add_argument("--min-precision", type=float, default=0.9)
    ap.add_argument("--min-recall", type=float, default=0.9)
    ap.add_argument("--max-durable-growth", type=float, default=None,
                    help="fail if the median durable observe at 4,000 "
                    "observations costs more than this times its cost at 100")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)

    workloads = 8 if args.quick else args.workloads
    runs = 25 if args.quick else args.runs
    shifted = min(3 if args.quick else args.shifted, workloads)
    rows, shifted_set = make_fleet(workloads, runs, shifted)
    failed = False

    with tempfile.TemporaryDirectory() as tmp:
        agg_stats = bench_aggregation(Path(tmp) / "fleet", rows)
    regressions = agg_stats.pop("regressions")
    agg_stats.pop("agg")
    print(
        f"aggregated {agg_stats['reports']} reports over {workloads} "
        f"workload(s): {agg_stats['throughput_per_s']:.0f} obs/s "
        f"({agg_stats['observe_s']:.2f}s), summary {agg_stats['summary_s']*1e3:.1f}ms, "
        f"regression sweep {agg_stats['regressions_s']*1e3:.1f}ms, "
        f"state reload {agg_stats['state_reload_s']*1e3:.1f}ms "
        f"({agg_stats['state_bytes']} bytes, {agg_stats['clusters']} clusters)"
    )
    if agg_stats["throughput_per_s"] < args.min_throughput:
        print(
            f"FAIL: aggregation throughput {agg_stats['throughput_per_s']:.0f}/s "
            f"below the {args.min_throughput:g}/s floor", file=sys.stderr,
        )
        failed = True

    quality = score_detection(regressions, shifted_set)
    print(
        f"seeded {len(shifted_set)} cp_fraction shift(s) of {SHIFT:g} under "
        f"sigma-{NOISE_SIGMA:g} noise: precision {quality['precision']:.2f}, "
        f"recall {quality['recall']:.2f} "
        f"({quality['false_positives']} FP, {quality['false_negatives']} FN)"
    )
    if quality["precision"] < args.min_precision:
        print(
            f"FAIL: precision {quality['precision']:.2f} below "
            f"{args.min_precision:g} (false positives on: "
            f"{sorted(set(quality['flagged']) - shifted_set)})", file=sys.stderr,
        )
        failed = True
    if quality["recall"] < args.min_recall:
        print(
            f"FAIL: recall {quality['recall']:.2f} below {args.min_recall:g} "
            f"(missed: {sorted(shifted_set - set(quality['flagged']))})",
            file=sys.stderr,
        )
        failed = True

    repeats = 20 if args.quick else 100
    durable_rows, _ = make_fleet(25, -(-(LARGE_FLEET + repeats) // 25), 0, seed=11)
    durable = {}
    for size in (SMALL_FLEET, LARGE_FLEET):
        with tempfile.TemporaryDirectory() as tmp:
            durable[str(size)] = bench_durable_observe(
                Path(tmp) / "fleet", durable_rows, size, repeats
            )
        d = durable[str(size)]
        print(
            f"durable observe at {size} observations ({d['state_bytes']} bytes "
            f"of state): mean {d['mean_s']*1e3:.2f}ms, median "
            f"{d['median_s']*1e3:.2f}ms over {repeats}; compaction "
            f"{d['compact_s']*1e3:.1f}ms"
        )
    # Medians: a stray slow fsync or a full garbage collection of the
    # larger heap lands in a mean, not in the per-observe cost.
    growth = (
        durable[str(LARGE_FLEET)]["median_s"] / durable[str(SMALL_FLEET)]["median_s"]
    )
    print(f"durable observe growth {LARGE_FLEET} vs {SMALL_FLEET}: {growth:.2f}x")
    if args.max_durable_growth is not None and growth > args.max_durable_growth:
        print(
            f"FAIL: durable observe costs {growth:.2f}x more at "
            f"{LARGE_FLEET} observations than at {SMALL_FLEET} "
            f"(limit {args.max_durable_growth:g}x)", file=sys.stderr,
        )
        failed = True

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {"bench": "fleet", "quick": args.quick,
                 "aggregation": agg_stats, "detection": quality,
                 "durable_observe": {**durable, "growth": growth}},
                f, indent=2,
            )
            f.write("\n")
        print(f"\nnumbers written to {args.json}")

    if failed:
        return 1
    print(
        f"\nok: >={args.min_throughput:g} obs/s aggregation, shift detection "
        f"precision/recall >= {args.min_precision:g}/{args.min_recall:g}, "
        f"durable observe growth {growth:.2f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
