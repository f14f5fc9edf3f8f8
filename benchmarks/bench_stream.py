"""Streaming ingestion throughput, snapshot latency, reader memory.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_stream.py --quick
    PYTHONPATH=src python benchmarks/bench_stream.py --json stream.json

Three claims, measured and asserted:

1. **Identity** — a trace streamed chunk-by-chunk into the service and
   finalized yields the same content digest and a byte-identical
   rendered report as uploading + batch-analyzing the same trace. A
   streaming path that changed the answer would be worse than none.
2. **Reader memory is O(chunk)** — ``iter_trace_chunks`` over a
   multi-hundred-thousand-event ``.clt`` peaks at a small multiple of
   one chunk, not at the file size (tracemalloc, numpy-aware).
3. **Throughput** — chunked append + spool + checkpoint keeps up; the
   script reports ingest events/sec and snapshot latency taken *while*
   the stream is being ingested.

It also times the exact snapshot: ``snapshot_s`` is the first
``GET /streams/<sid>/snapshot`` after the last chunk is durable (the
whole spool read back and analyzed), and ``analyze_s`` the best of 3
in-process ``analyze(trace, validate=False)`` runs.  CI asserts
``snapshot_s <= 2 * analyze_s``: a snapshot costs about one analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


from repro.core.analyzer import analyze
from repro.service.api import ServiceAPI
from repro.service.jobs import execute
from repro.trace.digest import trace_digest
from repro.trace.framing import encode_records_frame, split_records
from repro.trace.reader import iter_trace_chunks
from repro.trace.writer import header_dict, write_trace
from repro.workloads import SyntheticLocks


def build_trace(quick: bool):
    if quick:
        params = dict(ops_per_thread=800, nlocks=6, barrier_every=100)
        nthreads = 6
    else:
        # >= 200k events: 8 threads x 9000 ops x ~3 events/op.
        params = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
        nthreads = 8
    wl = SyntheticLocks(**params)
    return wl.run(nthreads=nthreads, seed=0).trace


def measure_reader_memory(path: Path, chunk_events: int) -> tuple[int, int]:
    """Iterate the whole file in chunks; return (events read, peak bytes)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    events = 0
    for batch in iter_trace_chunks(path, chunk_events=chunk_events):
        events += len(batch)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return events, peak


#: Best-of count for the in-process analysis the snapshot is held to.
ANALYZE_REPEATS = 3


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stream_ingest(api: ServiceAPI, records, chunk_events: int, snap_every: int):
    """Append all chunks, snapshotting as we go; return the measurements."""
    _, session = api.handle("POST", "/streams", json.dumps({"name": "bench"}).encode())
    sid = session["id"]
    snap_latencies: list[float] = []
    backpressure = 0
    t0 = time.perf_counter()
    for cid, block in enumerate(split_records(records, chunk_events)):
        body = encode_records_frame(block, cid)
        while True:
            status, _ = api.handle("POST", f"/traces/{sid}/chunks", body)
            if status == 202:
                break
            assert status == 429, f"unexpected status {status}"
            backpressure += 1
            time.sleep(0.002)
        if cid % snap_every == 0:
            s0 = time.perf_counter()
            status, _ = api.handle("GET", f"/streams/{sid}/snapshot")
            assert status == 200
            snap_latencies.append(time.perf_counter() - s0)
    # Wait for the ingest thread to drain so the rate covers analysis too.
    while api.handle("GET", f"/streams/{sid}")[1]["pending_chunks"]:
        time.sleep(0.002)
    ingest_s = time.perf_counter() - t0
    return sid, ingest_s, snap_latencies, backpressure


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small trace, machinery check only (CI smoke job)")
    ap.add_argument("--chunk-events", type=int, default=8192,
                    help="events per streamed chunk (default: 8192)")
    ap.add_argument("--max-chunk-multiple", type=float, default=8.0, metavar="M",
                    help="fail if the chunked reader's peak memory exceeds "
                         "M x one chunk (default: 8 — O(chunk), not O(file))")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)

    trace = build_trace(args.quick)
    full_bytes = trace.records.nbytes
    print(f"trace: {len(trace)} events, {len(trace.threads)} threads, "
          f"{full_bytes / 1e6:.1f} MB of records")
    if not args.quick and len(trace) < 200_000:
        print(f"FAIL: expected >= 200k events, built {len(trace)}", file=sys.stderr)
        return 1

    analyze_s = best_of(ANALYZE_REPEATS, lambda: analyze(trace, validate=False))
    print(f"analyze          {analyze_s:8.4f}s   best of {ANALYZE_REPEATS}, "
          f"validate=False")

    with tempfile.TemporaryDirectory(prefix="bench_stream_") as tmp:
        tmp_path = Path(tmp)
        clt = write_trace(trace, tmp_path / "bench.clt")

        # -- claim 2: O(chunk) reader memory ------------------------------
        events, peak = measure_reader_memory(clt, args.chunk_events)
        assert events == len(trace)
        chunk_bytes = args.chunk_events * trace.records.itemsize
        frac = peak / full_bytes
        multiple = peak / chunk_bytes
        print(f"reader peak      {peak / 1e6:8.2f} MB over {events} events "
              f"({multiple:.1f}x one chunk, {frac:.1%} of the full array)")
        if multiple > args.max_chunk_multiple:
            print(f"FAIL: reader peak is {multiple:.1f}x one chunk, exceeds "
                  f"--max-chunk-multiple {args.max_chunk_multiple:g}",
                  file=sys.stderr)
            return 1

        # -- claims 1 + 3: ingest, snapshot, finalize, compare -------------
        batch = execute("analyze", [str(clt)], {"render": True, "top": 10})
        with ServiceAPI(tmp_path / "svc", workers=0) as api:
            sid, ingest_s, snaps, backpressure = stream_ingest(
                api, trace.records, args.chunk_events, snap_every=4
            )
            rate = len(trace) / ingest_s if ingest_s > 0 else float("inf")
            snap_mean = sum(snaps) / len(snaps)
            print(f"ingest           {ingest_s:8.3f}s   "
                  f"({rate / 1e3:.0f}k events/s, {backpressure} backpressure waits)")
            print(f"snapshot latency {snap_mean * 1e3:8.2f}ms mean, "
                  f"{max(snaps) * 1e3:.2f}ms max over {len(snaps)} mid-stream polls")
            s0 = time.perf_counter()
            status, snap = api.handle("GET", f"/streams/{sid}/snapshot")
            snapshot_s = time.perf_counter() - s0
            assert status == 200 and snap["events"] == len(trace), snap
            print(f"snapshot         {snapshot_s:8.4f}s   whole durable spool "
                  f"({snapshot_s / analyze_s:.2f}x analyze)")

            t0 = time.perf_counter()
            status, fin = api.handle(
                "POST", f"/traces/{sid}/finalize",
                json.dumps({"header": header_dict(trace), "analyze": True,
                            "params": {"render": True, "top": 10}}).encode(),
            )
            finalize_s = time.perf_counter() - t0
            assert status == 200, fin
            print(f"finalize         {finalize_s:8.3f}s   (assemble + exact analysis)")

            if fin["trace"]["digest"] != trace_digest(trace):
                print("FAIL: streamed digest differs from source trace",
                      file=sys.stderr)
                return 1
            if fin["report"]["rendered"] != batch["rendered"]:
                print("FAIL: streamed+finalized report differs from batch analysis",
                      file=sys.stderr)
                return 1

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {
                    "bench": "stream",
                    "quick": args.quick,
                    "events": len(trace),
                    "threads": len(trace.threads),
                    "chunk_events": args.chunk_events,
                    "record_bytes": full_bytes,
                    "reader_peak_bytes": peak,
                    "reader_peak_chunk_multiple": round(multiple, 2),
                    "reader_peak_frac": round(frac, 4),
                    "ingest_s": round(ingest_s, 4),
                    "events_per_s": round(rate, 1),
                    "backpressure_waits": backpressure,
                    "snapshot_mean_ms": round(snap_mean * 1e3, 3),
                    "snapshot_max_ms": round(max(snaps) * 1e3, 3),
                    "finalize_s": round(finalize_s, 4),
                    "snapshot_s": round(snapshot_s, 4),
                    "analyze_s": round(analyze_s, 4),
                    "identical_digest": True,
                    "identical_render": True,
                },
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    print("ok: streamed-then-finalized output is byte-identical to batch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
