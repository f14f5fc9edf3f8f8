"""Storage throughput and restart-durability benchmark.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_backend.py --quick
    PYTHONPATH=src python benchmarks/bench_backend.py --json backend.json

Three claims, measured and asserted:

1. **Directory throughput** — raw put/get of trace-sized blobs through
   the one storage class (:class:`LocalDiskBackend`, every put fsynced
   and renamed into place) sustains at least ``--min-put-mbps`` and
   ``--min-get-mbps``.
2. **Store durability** — traces put through a :class:`TraceStore` on a
   shared directory are all listed by a second store opened on the same
   directory (a restart, or a ring peer), and resolve to files whose
   content digests match the originals.
3. **Rescan cost** — rebuilding the index over N stored traces at
   startup is reported, with a generous ceiling asserted.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.service.backend import LocalDiskBackend
from repro.service.store import TraceStore
from repro.trace.digest import trace_digest
from repro.trace.reader import read_trace
from repro.workloads import SyntheticLocks


def build_blobs(quick: bool) -> list[bytes]:
    if quick:
        return [bytes([i]) * (128 << 10) for i in range(8)]  # 8 x 128 KiB
    return [bytes([i]) * (1 << 20) for i in range(48)]  # 48 x 1 MiB


def measure_backend(backend, blobs: list[bytes]) -> dict:
    total_mb = sum(len(b) for b in blobs) / 1e6
    t0 = time.perf_counter()
    for i, blob in enumerate(blobs):
        backend.put(f"blob-{i:04d}.clt", blob)
    put_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i, blob in enumerate(blobs):
        got = backend.get(f"blob-{i:04d}.clt")
        assert len(got) == len(blob)
    get_s = time.perf_counter() - t0
    return {
        "total_mb": round(total_mb, 2),
        "put_s": round(put_s, 4),
        "get_s": round(get_s, 4),
        "put_mbps": round(total_mb / put_s, 1) if put_s > 0 else float("inf"),
        "get_mbps": round(total_mb / get_s, 1) if get_s > 0 else float("inf"),
    }


def store_durability(tmp: Path, quick: bool) -> dict:
    """Put traces through a shared-directory store, reopen, resolve."""
    n_traces = 2 if quick else 8
    shared = tmp / "shared" / "traces"
    traces = [
        SyntheticLocks(nlocks=4, ops_per_thread=100 if quick else 600).run(
            nthreads=4, seed=seed
        ).trace
        for seed in range(n_traces)
    ]

    store = TraceStore(shared, shared=True)
    t0 = time.perf_counter()
    digests = [store.put_trace(t, name=f"t{i}").digest for i, t in enumerate(traces)]
    put_s = time.perf_counter() - t0
    del store  # the "restart": only the directory survives

    t0 = time.perf_counter()
    reopened = TraceStore(shared, shared=True)
    rescan_s = time.perf_counter() - t0
    assert len(reopened) == n_traces, f"rescan found {len(reopened)}/{n_traces}"
    paths = reopened.resolve(digests)
    identical = all(
        trace_digest(read_trace(p)) == d for p, d in zip(paths, digests)
    )
    return {
        "n_traces": n_traces,
        "store_put_s": round(put_s, 4),
        "rescan_s": round(rescan_s, 4),
        "restart_digest_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small blobs, machinery check only (CI smoke job)")
    ap.add_argument("--min-put-mbps", type=float, default=20.0,
                    help="directory put throughput floor (default: 20)")
    ap.add_argument("--min-get-mbps", type=float, default=40.0,
                    help="directory get throughput floor (default: 40)")
    ap.add_argument("--max-rescan-s", type=float, default=5.0,
                    help="startup rescan ceiling over the store (default: 5)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)

    blobs = build_blobs(args.quick)
    with tempfile.TemporaryDirectory(prefix="bench_backend_") as tmp:
        tmp_path = Path(tmp)
        disk = measure_backend(LocalDiskBackend(tmp_path / "blobs"), blobs)
        durability = store_durability(tmp_path, args.quick)

    print(f"blobs: {len(blobs)} x {len(blobs[0]) >> 10} KiB "
          f"({disk['total_mb']:.1f} MB total)")
    print(f"  directory put {disk['put_mbps']:8.1f} MB/s   "
          f"get {disk['get_mbps']:8.1f} MB/s")
    print(f"store: {durability['n_traces']} traces through a shared directory, "
          f"restart rescan {durability['rescan_s'] * 1e3:.1f} ms, "
          f"digests identical: {durability['restart_digest_identical']}")

    failures = []
    if not durability["restart_digest_identical"]:
        failures.append("restarted store resolved different trace content")
    if durability["rescan_s"] > args.max_rescan_s:
        failures.append(f"rescan took {durability['rescan_s']:.2f}s "
                        f"(> {args.max_rescan_s:g}s)")
    if not args.quick:
        if disk["put_mbps"] < args.min_put_mbps:
            failures.append(f"directory put {disk['put_mbps']:.1f} MB/s "
                            f"(< {args.min_put_mbps:g})")
        if disk["get_mbps"] < args.min_get_mbps:
            failures.append(f"directory get {disk['get_mbps']:.1f} MB/s "
                            f"(< {args.min_get_mbps:g})")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {
                    "bench": "backend",
                    "quick": args.quick,
                    "blob_count": len(blobs),
                    "total_mb": disk["total_mb"],
                    "directory": disk,
                    **durability,
                },
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("ok: directory meets throughput floors; restart is lossless")
    return 0


if __name__ == "__main__":
    sys.exit(main())
