"""Cold start: a fresh ``python -m repro analyze`` process, trace to report.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_coldstart.py --quick
    PYTHONPATH=src python benchmarks/bench_coldstart.py --max-overhead 0.15 --json out.json

Times, best of N, three kinds of fresh interpreter, interleaved round by
round so a drifting host moves all three alike:

``analyze_micro_s``  ``python -m repro analyze`` on the 64-event micro
                     trace (8 threads, seed 1): nearly all interpreter
                     start and imports;
``analyze_large_s``  the same on the 216k-event SyntheticLocks trace
                     (8 threads x 9000 ops, 8 locks, a barrier every 250
                     ops; seed 0), validation on;
``numpy_s``          ``python -c "import numpy"``, the floor no analysis
                     run can go below.

``overhead_s = analyze_micro_s - numpy_s`` is what this program adds on
top of its one dependency; the runner's own speed cancels out of it, so
``--max-overhead`` floors it.  Every timed analyze must print exactly
the in-process ``analyze(read_trace(path)).render()``.  One untimed run
of each kind comes first, so bytecode caches are warm where the
interpreter writes them (``bytecode_cache`` in the JSON says whether it
did).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.analyzer import analyze
from repro.trace.reader import read_trace
from repro.trace.writer import write_trace
from repro.workloads import SyntheticLocks, get_workload

_SRC = Path(__file__).resolve().parents[1] / "src"
_REPEATS = 15
_QUICK_REPEATS = 3


def build_inputs(out_dir: Path, quick: bool) -> dict[str, Path]:
    micro = get_workload("micro")().run(nthreads=8, seed=1).trace
    if quick:
        params = dict(ops_per_thread=900, nlocks=8, barrier_every=250)
    else:
        params = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
    large = SyntheticLocks(**params).run(nthreads=8, seed=0).trace
    return {
        "micro": write_trace(micro, out_dir / "micro.clt"),
        "large": write_trace(large, out_dir / "large.clt"),
    }


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _timed(cmd: list[str], env: dict[str, str]) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return wall, proc.stdout


def run(inputs: dict[str, Path], repeats: int) -> dict[str, float]:
    env = _env()
    commands = {
        "numpy_s": [sys.executable, "-c", "import numpy"],
        "analyze_micro_s": [sys.executable, "-m", "repro", "analyze", str(inputs["micro"])],
        "analyze_large_s": [sys.executable, "-m", "repro", "analyze", str(inputs["large"])],
    }
    expected = {
        key: (analyze(read_trace(inputs[name])).render() + "\n").encode("utf-8")
        for key, name in (("analyze_micro_s", "micro"), ("analyze_large_s", "large"))
    }
    best = {key: float("inf") for key in commands}
    for rnd in range(repeats + 1):  # round 0 warms caches, untimed
        for key, cmd in commands.items():
            wall, out = _timed(cmd, env)
            if key in expected and out != expected[key]:
                raise SystemExit(f"{key}: cold analyze printed a different report")
            if rnd:
                best[key] = min(best[key], wall)
    return best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small large-trace and 3 rounds, machinery check only")
    ap.add_argument("--max-overhead", type=float, default=None, metavar="S",
                    help="fail if analyze_micro_s - numpy_s exceeds S seconds")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON")
    args = ap.parse_args(argv)
    repeats = _QUICK_REPEATS if args.quick else _REPEATS

    with tempfile.TemporaryDirectory(prefix="bench_coldstart_") as tmp:
        inputs = build_inputs(Path(tmp), args.quick)
        events = {name: len(read_trace(path)) for name, path in inputs.items()}
        best = run(inputs, repeats)
    overhead = best["analyze_micro_s"] - best["numpy_s"]
    print(f"traces: micro {events['micro']} events, large {events['large']} events; "
          f"best of {repeats} cold processes each")
    for key in ("numpy_s", "analyze_micro_s", "analyze_large_s"):
        print(f"{key:<16} {best[key]:8.4f}s")
    print(f"{'overhead_s':<16} {overhead:8.4f}s   (analyze_micro_s - numpy_s)")

    if args.json:
        doc = {
            "bench": "coldstart",
            "quick": args.quick,
            "repeats": repeats,
            "events_micro": events["micro"],
            "events_large": events["large"],
            "python": sys.version.split()[0],
            "bytecode_cache": not sys.dont_write_bytecode,
            **{key: round(value, 4) for key, value in best.items()},
            "overhead_s": round(overhead, 4),
            "identical_render": True,
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"numbers written to {args.json}")

    if args.max_overhead is not None and overhead > args.max_overhead:
        print(f"FAIL: overhead {overhead:.4f}s exceeds --max-overhead "
              f"{args.max_overhead:g}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
