"""Driving ``repro serve`` over HTTP: server lifecycle and the two service workloads.

A server is a real ``python -m repro serve`` subprocess with default
settings and a fresh data directory.  It counts as set up only when
``/healthz`` answers *and* every pool worker has answered a ``selftest``
job (distinct worker pids == worker count): ``/healthz`` alone answers
while spawned workers are still importing.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    alive,
    free_port,
    peak_rss_kb,
    program_env,
    spawned_children,
    stop_process,
    wait_until,
)

#: ``serve``'s default worker count; readiness waits for this many pids.
WORKERS = 2
#: Client poll interval for job state: far below a miss job's ~0.3 s, yet
#: not so short that polling loads the server it measures (each poll costs
#: ~2 ms of CPU across client and server; at 5 ms polls two waiting clients
#: spent ~30% as much CPU as the analysis they waited for).
POLL_S = 0.01
#: Seconds a selftest job sleeps, so one ready worker cannot take both.
SELFTEST_SLEEP = 0.01
START_TIMEOUT = 60.0


def _healthy(client, proc) -> bool:
    from repro.errors import ServiceError

    if proc.poll() is not None:
        raise BenchError(f"serve exited with {proc.returncode} before it was ready")
    try:
        client.health()
    except ServiceError:
        return False
    return True


def wait_ready(client, proc, workers: int = WORKERS, timeout: float = START_TIMEOUT) -> int:
    """Block until ``/healthz`` answers and ``workers`` distinct pids ran a selftest.

    Returns the number of selftest jobs it took.
    """
    deadline = time.monotonic() + timeout
    wait_until(lambda: _healthy(client, proc), timeout, what="/healthz")
    pids: set[int] = set()
    sent = 0
    while len(pids) < workers:
        if time.monotonic() > deadline:
            raise BenchError(f"only {len(pids)} of {workers} workers answered a selftest")
        ids = []
        for _ in range(workers):
            # A distinct echo keeps every probe out of the result cache.
            params = {"echo": f"ready-{sent}", "sleep": SELFTEST_SLEEP}
            ids.append(client.submit("selftest", [], params))
            sent += 1
        for job_id in ids:
            pids.add(int(client.wait(job_id, timeout=timeout, poll=POLL_S)["pid"]))
    return sent


@dataclass
class Server:
    """One ``serve`` subprocess with its own fresh data directory."""

    data_dir: Path
    spans_dir: Path | None = None  # set: run under the tracing bootstrap
    proc: subprocess.Popen | None = None
    url: str = ""
    setup_s: float = 0.0

    def start(self):
        from repro.service.client import ServiceClient

        if self.data_dir.exists():
            raise BenchError(f"data dir {self.data_dir} is not fresh")
        self.data_dir.parent.mkdir(parents=True, exist_ok=True)
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        args = ["serve", "--port", str(port), "--data-dir", str(self.data_dir)]
        env = program_env()
        if self.spans_dir is not None:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            env["PERFBENCH_SPANS_DIR"] = str(self.spans_dir)
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        log = open(self.data_dir.parent / f"{self.data_dir.name}.log", "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()
        wait_ready(ServiceClient(self.url), self.proc)
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *spawned_children(self.proc.pid)]
        if len(pids) != 1 + WORKERS:
            raise BenchError(f"expected {WORKERS} workers, found {len(pids) - 1}")
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        workers = spawned_children(self.proc.pid)
        stop_process(self.proc)
        # A clean shutdown joins the workers; after a forced kill they are
        # orphans, so end them here.
        for pid in workers:
            if alive(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            wait_until(lambda: not alive(pid), 15.0, what=f"worker {pid} to exit")


def fleet_settled(client, expected: int) -> bool:
    fleet = client.metrics()["fleet"]
    done = fleet["observed"] + fleet["duplicates"] + fleet["errors"]
    if done > expected:
        raise BenchError(f"fleet ingested {done} traces, only {expected} were stored")
    return done == expected


# -- service-apps ----------------------------------------------------------------

#: Resubmissions of each analyzed job; all of them must hit the cache.
HITS_PER_MISS = 8


@dataclass
class AppsRun:
    """Raw observations of one closed-loop window of the service mix."""

    miss: list[dict] = field(default_factory=list)
    hit: list[dict] = field(default_factory=list)
    used: list = field(default_factory=list)  # (TraceFile, miss result, hit results)
    errors: list[str] = field(default_factory=list)
    uploads: int = 0
    ops: int = 0
    wall_s: float = 0.0
    metrics: dict = field(default_factory=dict)


def _job(client, digest: str) -> tuple[float, dict, dict]:
    t0 = time.perf_counter()
    job_id = client.submit("analyze", digest)
    result = client.wait(job_id, timeout=120.0, poll=POLL_S)
    latency = time.perf_counter() - t0
    return latency, result, client.job(job_id)


def report_bytes(job: dict, result: dict) -> int:
    """Size of the ``GET /reports/<id>`` body the server sent for a job."""
    body = {"id": job["id"], "kind": job["kind"], "cached": job["cached"], "result": result}
    return len(json.dumps(body).encode("utf-8"))


def _observation(latency: float, job: dict) -> dict:
    return {
        "latency": latency,
        "server": job["latency"],
        "queue_wait": job["started_at"] - job["submitted_at"],
        "execute": job["finished_at"] - job["started_at"],
        "cached": job["cached"],
        "job": job,
    }


def run_apps(url: str, batch, seconds: float, clients: int = 2) -> AppsRun:
    """Closed loop over rounds of fresh traces until ``seconds`` of measured time.

    ``batch(i)`` gives round ``i``'s trace files; it is called with the
    clock stopped.  A round has two phases, each served by ``clients``
    threads with one connection apiece.  Miss phase: upload each trace and
    analyze it (a cache miss); it ends once background fleet ingest has
    observed every upload.  Hit phase: resubmit each analyzed job
    ``HITS_PER_MISS`` times (cache hits), so hits are timed with no
    analysis running beside them.  Rounds run whole, so every window holds
    whole rounds of the model mix.
    """
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    run = AppsRun()
    lock = threading.Lock()

    def in_parallel(items, fn):
        todo = iter(items)

        def loop():
            client = ServiceClient(url, timeout=120.0)
            while True:
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                try:
                    fn(client, item)
                except ServiceError as exc:
                    with lock:
                        run.errors.append(f"{item}: {exc}")

        threads = [threading.Thread(target=loop) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def miss(client, tf):
        digest = client.upload_trace(tf.path)
        with lock:
            run.uploads += 1
            run.ops += 1
        latency, result, job = _job(client, digest)
        hit_results: list[dict] = []
        with lock:
            run.miss.append(_observation(latency, job))
            run.used.append((tf, result, hit_results))
            run.ops += 1
            analyzed.append((digest, hit_results))

    def hits(client, item):
        digest, hit_results = item
        for _ in range(HITS_PER_MISS):
            latency, result, job = _job(client, digest)
            with lock:
                run.hit.append(_observation(latency, job))
                hit_results.append(result)
                run.ops += 1

    client = ServiceClient(url)
    round_index = 0
    while run.wall_s < seconds:
        traces = batch(round_index)
        round_index += 1
        analyzed: list[tuple[str, list[dict]]] = []
        t0 = time.perf_counter()
        in_parallel(traces, miss)
        # Background fleet ingest of the uploads ends inside the phase.
        wait_until(lambda: fleet_settled(client, run.uploads), 120.0, what="fleet ingest")
        in_parallel(analyzed, hits)
        run.wall_s += time.perf_counter() - t0
    run.metrics = client.metrics()
    return run


def expected_critical_locks(path: Path, top: int = 10) -> list[dict]:
    """The ``critical_locks`` an ``analyze`` job must return, from the
    in-process report: locks ranked by critical-path time fraction."""
    from repro.core.analyzer import analyze
    from repro.trace.reader import read_trace

    locks = analyze(read_trace(path), validate=False).report.to_dict()["locks"]
    ranking = sorted(
        (
            {"name": name, "cp_time_frac": m["cp_time_frac"],
             "cont_prob_on_cp": m["cont_prob_on_cp"]}
            for name, m in locks.items()
        ),
        key=lambda r: r["cp_time_frac"],
        reverse=True,
    )
    return json.loads(json.dumps(ranking[:top]))  # as it reads after HTTP


def check_apps(run: AppsRun) -> list[str]:
    """Compare every analyze result against the in-process report."""
    problems = list(run.errors)
    problems += [f"miss job answered from cache: {o}" for o in run.miss if o["cached"]]
    problems += [f"hit job not answered from cache: {o}" for o in run.hit if not o["cached"]]
    for tf, miss_result, hit_results in run.used:
        ref = expected_critical_locks(tf.path)
        for result in (miss_result, *hit_results):
            if result["critical_locks"] != ref:
                problems.append(f"{tf.path.name}: critical_locks differ from in-process report")
    if run.metrics["fleet"]["errors"]:
        problems.append(f"fleet ingest errors: {run.metrics['fleet']['errors']}")
    return problems


# -- stream-ingest -----------------------------------------------------------------

#: Events per framed chunk.  Each chunk costs an HTTP round trip, a spool
#: fsync and a checkpoint; at 4096 events those per-chunk costs (disk
#: latency and cross-thread hand-offs, which host CPU steal stretches)
#: made session throughput spread twice as much from run to run.
CHUNK_EVENTS = 16384
SNAPSHOT_INTERVAL = 0.05
RETRY_429_SLEEP = 0.005
MIN_SESSIONS = 3


@dataclass
class Session:
    events: int
    wall_s: float  # first chunk post until finalize answered
    finalize_s: float
    digest_ok: bool
    posts: int
    rejected_429: int
    lags: list[int]
    snapshots: list[float]


def _poll_snapshots(client, sid: str, stop: threading.Event, out: list[float]) -> None:
    from repro.errors import ServiceError

    while not stop.is_set():
        t0 = time.perf_counter()
        try:
            client.stream_snapshot(sid)
        except ServiceError:
            return  # session finalized under us
        out.append(time.perf_counter() - t0)
        stop.wait(SNAPSHOT_INTERVAL)


def stream_session(url: str, trace, header: dict, expected_digest: str, name: str) -> Session:
    """Push one trace in framed chunks as fast as acks return, then finalize."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient
    from repro.trace.framing import split_records

    pusher = ServiceClient(url, timeout=120.0)
    poller = ServiceClient(url, timeout=120.0)
    sid = pusher.open_stream(name=name)
    snapshots: list[float] = []
    stop = threading.Event()
    watcher = threading.Thread(target=_poll_snapshots, args=(poller, sid, stop, snapshots))
    posts = rejected = 0
    lags: list[int] = []
    watcher.start()
    try:
        t0 = time.perf_counter()
        for chunk_id, block in enumerate(split_records(trace.records, CHUNK_EVENTS)):
            while True:
                posts += 1
                try:
                    ack = pusher.send_chunk(sid, chunk_id, block, retries=0)
                    break
                except ServiceError as exc:
                    if exc.status != 429:
                        raise
                    rejected += 1
                    time.sleep(RETRY_429_SLEEP)
            lags.append(ack["next_chunk"] - ack["durable_chunk"])
        stop.set()  # snapshots are timed only while chunks arrive
        f0 = time.perf_counter()
        out = pusher.finalize_stream(sid, header=header)
        t1 = time.perf_counter()
    finally:
        stop.set()
        watcher.join()
    return Session(
        events=len(trace), wall_s=t1 - t0, finalize_s=t1 - f0,
        digest_ok=out["trace"]["digest"] == expected_digest,
        posts=posts, rejected_429=rejected, lags=lags, snapshots=snapshots,
    )


def session_variant(trace, index: int) -> tuple[dict, str]:
    """Header and expected digest of session ``index``'s copy of ``trace``.

    The copies differ only in one header field, so every session does
    identical work yet stores a distinct trace that no earlier session
    deduplicates.
    """
    from repro.trace.digest import trace_digest
    from repro.trace.trace import Trace
    from repro.trace.writer import header_dict

    variant = Trace(
        records=trace.records, objects=trace.objects, threads=trace.threads,
        meta={**trace.meta, "bench_session": index},
    )
    return header_dict(variant), trace_digest(variant)


def run_stream(url: str, trace, seconds: float) -> list[Session]:
    """At least ``MIN_SESSIONS`` sessions, until ``seconds`` of session time."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    sessions: list[Session] = []
    while len(sessions) < MIN_SESSIONS or sum(s.wall_s for s in sessions) < seconds:
        header, digest = session_variant(trace, len(sessions))
        sessions.append(stream_session(url, trace, header, digest, f"bench-{len(sessions)}"))
        # Finalize queues a fleet analysis of the stored trace; let it end
        # before the next session so sessions never overlap it.
        wait_until(lambda: fleet_settled(client, len(sessions)), 120.0, what="fleet ingest")
    return sessions
