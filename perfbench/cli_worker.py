"""The measured process of the ``cli-large`` workload.

Runs ``repro.cli.main(["analyze", TRACE])`` warm, on the default path,
for at least ``--min-iters`` iterations and until ``--seconds`` have
passed, and writes one JSON document: each iteration's wall time, a
sha256 of each iteration's standard output, the spans of traced
iterations, and the process's peak RSS.  With ``--traced`` the
iterations alternate between untraced and traced (timing wrappers
installed), so both kinds run in the same warm process.

    python perfbench/cli_worker.py TRACE --warmup MICRO --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from spans import SpanRecorder, install_analysis  # noqa: E402


def run_main(main, argv: list[str], rec: SpanRecorder | None = None) -> tuple[float, str]:
    out = io.StringIO()
    span = rec.span("cli.main", new_request=True) if rec else contextlib.nullcontext()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        with span:
            rc = main(argv)
        wall = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"analyze exited with {rc}")
    return wall, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--warmup", required=True, help="small trace analyzed once first")
    ap.add_argument("--out", required=True)
    ap.add_argument("--min-iters", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    require_program()
    from repro.cli import main as cli_main

    run_main(cli_main, ["analyze", args.warmup])  # lazy imports, first-call setup

    plain: list[dict] = []
    traced: list[dict] = []
    rec = SpanRecorder()
    t_start = time.perf_counter()
    while True:
        want_traced = args.traced and len(traced) < len(plain)
        if want_traced:
            install_analysis(rec)
        try:
            wall, text = run_main(
                cli_main, ["analyze", args.trace], rec if want_traced else None
            )
        finally:
            rec.unwrap_all()
        item = {"wall": wall, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        (traced if want_traced else plain).append(item)
        done = min(len(plain), len(traced)) if args.traced else len(plain)
        if done >= args.min_iters and time.perf_counter() - t_start >= args.seconds:
            break

    doc = {
        "plain": plain,
        "traced": traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": rec.to_dict(),
    }
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
