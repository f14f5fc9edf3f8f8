"""Service throughput benchmark: worker-pool fan-out, cache warmth, transport.

Measures three ways of answering "analyze these N traces":

serial     in-process ``analyze(read_trace(p))`` per trace, one at a time
pool       submitted to a running service with worker processes
warm       the identical jobs resubmitted — every one a cache hit

Targets: with N >= 4 traces the pool beats serial by >= 2x (requires
>= 2 usable cores — asserted only then, reported always), and the warm
repeat beats its own cold run by >= 10x.

The HTTP section then runs analyze jobs through a real ``make_server``
with one ``ServiceClient``: per job, submit and wait, timed from submit
to result.  A hit's result comes back in the submit's answer, a miss's
in a held report fetch.  It records the p50 of misses and of cache hits
(best of ``HTTP_ROUNDS``), the requests each costs (deltas of the
server's request count around the miss and the hit loops) and the
server's requests per accepted connection.  With connections kept alive
that ratio is the whole section's request count; a stall between
headers and body (Nagle against delayed ACKs) costs >= 40 ms per
request, so a hit p50 under 20 ms rules it out.

Run standalone (``PYTHONPATH=src python benchmarks/bench_service.py
[--quick] [--http-only] [--json PATH]``) or via pytest (``pytest
benchmarks/bench_service.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.core.analyzer import analyze
from repro.service import ServiceAPI, ServiceClient
from repro.service.server import make_server
from repro.trace.reader import read_trace
from repro.workloads import SyntheticLocks

N_TRACES = 8
#: Rounds of the HTTP section; each round's jobs are fresh cache keys.
HTTP_ROUNDS = 3
#: Cache-hit resubmissions of each trace per HTTP round.
HITS_PER_TRACE = 8
WORKLOAD = dict(nlocks=8, ops_per_thread=300, zipf_skew=1.1)
NTHREADS = 8


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def make_traces(out_dir: Path, n: int = N_TRACES) -> list[Path]:
    """n distinct synthetic traces (different seeds => different digests)."""
    paths = []
    for seed in range(n):
        result = SyntheticLocks(**WORKLOAD).run(nthreads=NTHREADS, seed=seed)
        path = out_dir / f"synthetic-{seed}.clt"
        from repro.trace.writer import write_trace

        write_trace(result.trace, path)
        paths.append(path)
    return paths


def run_http(data_dir: Path, paths: list[Path], rounds: int = HTTP_ROUNDS) -> dict:
    """Analyze jobs over real HTTP, one client thread; see the module doc."""
    api = ServiceAPI(data_dir, workers=1)
    server = make_server(api)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.url)
        digests = [client.upload_trace(p) for p in paths]

        def job(digest: str, params: dict) -> float:
            t0 = time.perf_counter()
            client.wait(client.submit("analyze", digest, params), timeout=600)
            return time.perf_counter() - t0

        def requests() -> int:
            return client.metrics()["requests"]

        miss_p50 = hit_p50 = float("inf")
        miss_requests = hit_requests = 0
        for r in range(rounds):
            params = {"validate": False, "top": r + 1}
            # Each reading of the count is a request itself: hence the -1s.
            before = requests()
            miss = [job(digest, params) for digest in digests]
            miss_requests += requests() - before - 1
            before = requests()
            hit = [
                job(digest, params) for digest in digests for _ in range(HITS_PER_TRACE)
            ]
            hit_requests += requests() - before - 1
            miss_p50 = min(miss_p50, statistics.median(miss))
            hit_p50 = min(hit_p50, statistics.median(hit))
        metrics = client.metrics()
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        api.close()
        thread.join(timeout=5)
    return {
        "http_rounds": rounds,
        "http_miss_p50_s": miss_p50,
        "http_hit_p50_s": hit_p50,
        "http_requests_per_miss": miss_requests / (rounds * len(digests)),
        "http_requests_per_hit": hit_requests / (rounds * len(digests) * HITS_PER_TRACE),
        "http_requests": metrics["requests"],
        "http_connections": metrics["connections"],
        "requests_per_connection": metrics["requests"] / metrics["connections"],
    }


def run_benchmark(
    data_dir: Path, n_traces: int = N_TRACES, http_rounds: int = HTTP_ROUNDS,
    pool: bool = True,
) -> dict:
    trace_dir = data_dir / "traces-in"
    trace_dir.mkdir(parents=True)
    paths = make_traces(trace_dir, n_traces)
    if not pool:
        return {"n_traces": n_traces, **run_http(data_dir / "http", paths, http_rounds)}
    workers = max(2, min(4, usable_cores()))

    # -- serial baseline ----------------------------------------------------
    t0 = time.perf_counter()
    for path in paths:
        analyze(read_trace(path), validate=False)
    t_serial = time.perf_counter() - t0

    with ServiceAPI(data_dir / "svc", workers=workers) as api:
        digests = [api.store.put_file(p).digest for p in paths]
        params = {"validate": False}

        def run_all() -> float:
            t0 = time.perf_counter()
            ids = [
                api.submit_job({"kind": "analyze", "trace": d, "params": params})["id"]
                for d in digests
            ]
            for job_id in ids:
                out = api.wait(job_id, timeout=600)
                assert out["state"] == "done", out
            return time.perf_counter() - t0

        t_pool = run_all()   # cold: fans out across worker processes
        t_warm = run_all()   # warm: every job short-circuits on the cache
        cache_stats = api.cache.stats()

    http = run_http(data_dir / "http", paths, http_rounds)
    return {
        "n_traces": n_traces,
        "workers": workers,
        "cores": usable_cores(),
        "serial_s": t_serial,
        "pool_s": t_pool,
        "warm_s": t_warm,
        "pool_speedup": t_serial / t_pool,
        "warm_speedup": t_pool / t_warm,
        "cache_hits": cache_stats["hits"],
        **http,
    }


def render(r: dict) -> str:
    lines = [f"service benchmark: {r['n_traces']} traces"]
    if "pool_s" in r:
        lines += [
            f"  {r['workers']} workers, {r['cores']} usable core(s)",
            f"  serial in-process : {r['serial_s']:8.3f} s",
            f"  pool (cold)       : {r['pool_s']:8.3f} s   "
            f"({r['pool_speedup']:.2f}x vs serial)",
            f"  pool (warm cache) : {r['warm_s']:8.3f} s   "
            f"({r['warm_speedup']:.1f}x vs cold, {r['cache_hits']} hits)",
        ]
        if r["cores"] < 2:
            lines.append(
                "  note: <2 usable cores — parallel speedup is not achievable "
                "on this machine; the >=2x criterion applies on multi-core hosts"
            )
    lines += [
        f"  HTTP miss p50     : {r['http_miss_p50_s'] * 1e3:8.2f} ms  "
        f"(best of {r['http_rounds']} round(s))",
        f"  HTTP hit p50      : {r['http_hit_p50_s'] * 1e3:8.2f} ms",
        f"  requests/job      : {r['http_requests_per_miss']:8.2f} miss, "
        f"{r['http_requests_per_hit']:.2f} hit",
        f"  requests/conn     : {r['requests_per_connection']:8.1f}    "
        f"({r['http_requests']} requests over {r['http_connections']} "
        f"connection(s))",
    ]
    return "\n".join(lines)


def check(r: dict) -> None:
    assert r["cache_hits"] >= r["n_traces"]
    assert r["warm_speedup"] >= 10.0, f"warm cache only {r['warm_speedup']:.1f}x"
    if r["cores"] >= 2:
        assert r["pool_speedup"] >= 2.0, f"pool only {r['pool_speedup']:.2f}x"


def test_service_throughput(tmp_path, show):
    result = run_benchmark(tmp_path)
    show(render(result))
    check(result)


def main(argv: list[str] | None = None) -> int:
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="4 traces, one HTTP round: machinery check only")
    ap.add_argument("--http-only", action="store_true",
                    help="run only the HTTP section (no pool/cache claims)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)
    n_traces, rounds = (4, 1) if args.quick else (N_TRACES, HTTP_ROUNDS)
    with tempfile.TemporaryDirectory(prefix="bench_service_") as tmp:
        result = run_benchmark(Path(tmp), n_traces, rounds, pool=not args.http_only)
    print(render(result))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {"bench": "service", "quick": args.quick,
                 **{k: round(v, 6) if isinstance(v, float) else v
                    for k, v in result.items()}},
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")
    if not args.http_only:
        check(result)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
