"""Protocol what-if forecasts over the golden workloads.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_protocols.py --quick
    PYTHONPATH=src python benchmarks/bench_protocols.py --json BENCH_PROTOCOLS.json

For each golden case (``tests/golden``) the script first proves replay
fidelity — the ``recorded`` identity protocol must reproduce the traced
completion time and ``(name, cp_fraction)`` ranking exactly, both for the
case as recorded (one core per thread) and for the case recorded at
``cores=2`` — and then forecasts every lock protocol over one shared
baseline analysis, reporting predicted gains and critical-lock
re-rankings.  The headline assertion (``--require-rerank``, on by
default) is the EXPERIMENTS.md result: on the rwlock-heavy ``ldap`` case,
reader-preference re-ranks the critical lock
(``entry_lock[0] -> entry_lock[1]``) with a positive end-to-end gain,
while FIFO replay stays a no-op everywhere.

Every case is also forecast under ``priority`` with the fixed
:data:`PRIORITY_MAP` (recorded as ``priority_mapped``): at equal
priorities ``priority`` is FIFO, so this is the evidence that the
protocol earns its place.  The script fails unless that forecast moves
ldap's predicted time off FIFO's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.analyzer import analyze
from repro.core.replay_whatif import replay_identity, replay_whatif
from repro.sim import available_protocols
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

#: Core limit of the second identity replay of every case.
LIMITED_CORES = 2

PROTOCOLS = [p for p in available_protocols() if p != "recorded"]

#: Thread priorities for the ``priority_mapped`` forecast: alternating
#: 0/10 by tid (unlisted tids get 0).
PRIORITY_MAP = {tid: 10 * (tid % 2) for tid in range(16)}


def build_trace(case: str, cores: int | None = None):
    workload, params, nthreads, seed = CASES[case]
    wl = get_workload(workload)(**params)
    return wl.run(nthreads=nthreads, seed=seed, cores=cores).trace


def ranking(trace) -> list[tuple[str, float]]:
    report = analyze(trace, validate=False).report
    return [(m.name, m.cp_fraction) for m in report.top_locks(None, by="cp_fraction")]


def faithful(trace) -> bool:
    """Identity replay reproduces completion time and ranking exactly."""
    replayed = replay_identity(trace)
    return (replayed.completion_time == trace.duration
            and ranking(replayed.trace) == ranking(trace))


def run_case(case: str) -> dict:
    trace = build_trace(case)
    limited = build_trace(case, cores=LIMITED_CORES)

    t0 = time.perf_counter()
    identity = faithful(trace)
    t_identity = time.perf_counter() - t0
    identity_limited = faithful(limited)

    t0 = time.perf_counter()
    baseline = analyze(trace, validate=False).report
    forecasts = [replay_whatif(trace, p, baseline=baseline) for p in PROTOCOLS]
    t_forecasts = time.perf_counter() - t0
    mapped = replay_whatif(
        trace, "priority", priorities=PRIORITY_MAP, baseline=baseline
    )

    return {
        "case": case,
        "events": len(trace),
        "duration": trace.duration,
        "identity_faithful": identity,
        "identity_replay_s": round(t_identity, 4),
        "limited_cores": LIMITED_CORES,
        "limited_duration": limited.duration,
        "limited_identity_faithful": identity_limited,
        "forecasts_s": round(t_forecasts, 4),
        "forecasts": [forecast_row(f) for f in forecasts],
        "priority_mapped": forecast_row(mapped),
    }


def forecast_row(f) -> dict:
    return {
        "protocol": f.protocol,
        "predicted_time": f.predicted_time,
        "gain": round(f.predicted_gain, 6),
        "speedup": round(f.predicted_speedup, 4),
        "critical_lock": f.predicted_critical_lock,
        "reranked": f.reranked,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="micro + ldap only (CI smoke job)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    ap.add_argument("--no-require-rerank", dest="require_rerank",
                    action="store_false", default=True,
                    help="skip the ldap reader-pref re-rank assertion")
    args = ap.parse_args(argv)

    cases = ["micro", "ldap"] if args.quick else list(CASES)
    print(f"protocols: {', '.join(PROTOCOLS)}")

    results, failed = [], False
    for case in cases:
        res = run_case(case)
        results.append(res)
        tags = ["ok" if res[k] else "FAIL"
                for k in ("identity_faithful", "limited_identity_faithful")]
        print(f"\n{case}: {res['events']} events, duration {res['duration']:.4f}; "
              f"identity replay {tags[0]} ({res['identity_replay_s']:.2f}s), "
              f"at cores={LIMITED_CORES} {tags[1]} "
              f"(duration {res['limited_duration']:.4f}); "
              f"{len(res['forecasts'])} forecasts in {res['forecasts_s']:.2f}s")
        if "FAIL" in tags:
            failed = True
        rows = [(f["protocol"], f) for f in res["forecasts"]]
        rows.append(("priority 0/10", res["priority_mapped"]))
        for label, f in rows:
            mark = "  RE-RANK" if f["reranked"] else ""
            print(f"  {label:13s} "
                  f"gain {f['gain']:+8.2%}  crit {f['critical_lock']}{mark}")

    ldap = next((r for r in results if r["case"] == "ldap"), None)
    if args.require_rerank and ldap:
        hit = [f for f in ldap["forecasts"] if f["protocol"] == "reader-pref"]
        if not (hit and hit[0]["reranked"] and hit[0]["gain"] > 0):
            print("FAIL: ldap reader-pref did not re-rank the critical lock "
                  "with a positive gain", file=sys.stderr)
            failed = True
        else:
            print(f"\nok: ldap reader-pref re-ranks the critical lock "
                  f"({hit[0]['critical_lock']}, {hit[0]['gain']:+.2%})")

    if ldap:
        fifo = next(f for f in ldap["forecasts"] if f["protocol"] == "fifo")
        mapped = ldap["priority_mapped"]
        if mapped["predicted_time"] == fifo["predicted_time"]:
            print("FAIL: priority under the 0/10 map did not move ldap's "
                  "forecast off FIFO's", file=sys.stderr)
            failed = True
        else:
            print(f"ok: priority under the 0/10 map moves ldap off FIFO "
                  f"({fifo['predicted_time']:.4f} -> {mapped['predicted_time']:.4f})")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {"bench": "protocols", "quick": args.quick, "cases": results},
                f, indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    if failed:
        return 1
    print(f"ok: identity replay faithful on every case, also at cores={LIMITED_CORES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
