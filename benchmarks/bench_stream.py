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
3. **Throughput** — chunked append + online analysis keeps up; the
   script reports ingest events/sec and rolling-snapshot latency taken
   *while* the stream is being ingested.

It also times the online estimator on its own: ``observe_s`` is the
best of 7 passes of ``OnlineAnalyzer.observe_batch`` over the trace in
16,384-event chunks (a fresh analyzer each pass), ``observe_reference_s``
the best of 3 per-event ``repro.check.reference.reference_online``
replays.  CI floors their ratio.  ``assemble_s`` is finalize's assembly
step on its own: read the spool back (the trace's records, in arrival
order) and normalize it with ``sort_stream_records``, best of 7.  CI
asserts it costs at most a quarter of ``observe_s``: an in-order spool
must not pay a full sort-and-gather of the trace at finalize.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.check.reference import reference_online
from repro.core.online import OnlineAnalyzer
from repro.service.api import ServiceAPI
from repro.service.jobs import execute
from repro.trace.digest import trace_digest
from repro.trace.framing import encode_records_frame, sort_stream_records, split_records
from repro.trace.reader import iter_trace_chunks
from repro.trace.schema import EVENT_DTYPE
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


#: observe_batch chunk size and best-of counts for the estimator timings.
OBSERVE_CHUNK = 16_384
OBSERVE_REPEATS = 7
REFERENCE_REPEATS = 3
ASSEMBLE_REPEATS = 7


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def observe_chunks(records) -> OnlineAnalyzer:
    online = OnlineAnalyzer()
    for block in split_records(records, OBSERVE_CHUNK):
        online.observe_batch(block)
    return online


def assemble(spool: Path):
    """Finalize's assembly: the spool read back and normalized."""
    return sort_stream_records(np.fromfile(spool, dtype=EVENT_DTYPE))


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

    observe_s = best_of(OBSERVE_REPEATS, lambda: observe_chunks(trace.records))
    reference_s = best_of(REFERENCE_REPEATS, lambda: reference_online(trace))
    print(f"observe_batch    {observe_s:8.4f}s   best of {OBSERVE_REPEATS}, "
          f"{OBSERVE_CHUNK}-event chunks ({reference_s / observe_s:.1f}x the "
          f"per-event reference, {reference_s:.3f}s)")

    with tempfile.TemporaryDirectory(prefix="bench_stream_") as tmp:
        tmp_path = Path(tmp)
        clt = write_trace(trace, tmp_path / "bench.clt")
        spool = tmp_path / "bench.spool"
        trace.records.tofile(spool)
        assert np.array_equal(assemble(spool), trace.records)
        assemble_s = best_of(ASSEMBLE_REPEATS, lambda: assemble(spool))
        print(f"assemble         {assemble_s:8.4f}s   best of {ASSEMBLE_REPEATS}, "
              f"spool read + sort_stream_records ({assemble_s / observe_s:.2f}x "
              f"observe_batch)")

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
            rec = fin["reconciliation"]
            print(f"reconciliation   counters_exact={rec['counters_exact']} "
                  f"top_lock_agrees={rec['top_lock_agrees']} "
                  f"cp_time_error={rec['cp_time_error']:.3g}")

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
                    "observe_chunk_events": OBSERVE_CHUNK,
                    "observe_s": round(observe_s, 4),
                    "observe_reference_s": round(reference_s, 4),
                    "assemble_s": round(assemble_s, 4),
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
