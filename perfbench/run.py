"""End-to-end benchmark of critical lock analysis: CLI, service and stream ingest.

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 15 --trace 0

Workloads (the reason for each is recorded in ``BENCHMARK.json``):

* ``cli-large``: ``repro.cli.main(["analyze", path])`` warm, on the 216k-event
  SyntheticLocks trace, default path (validation on, columnar engine).
* ``service-apps``: a real ``serve`` process driven over HTTP by two closed-loop
  clients; each uploads a fresh application-model trace, analyzes it (a cache
  miss) and resubmits the same job ``HITS_PER_MISS`` times (cache hits).
* ``stream-ingest``: one connection pushes the 216k-event trace in framed
  chunks while a second polls the session snapshot; then finalize (without
  analysis); repeated over several sessions.

Inputs are simulated from ``--seed`` before any timing, in this process; the
measured processes (a CLI worker, or ``serve`` and its pool workers) only see
the generated files.  Every output is checked: a wrong report, a cache flag
that contradicts the phase, or a stream digest that differs from the batch
digest counts as a failed operation and makes the run exit with status 1.

``--trace 0`` prints the three end-to-end metrics, which every workload
reports.  ``--trace 1`` runs the workload twice on the same inputs, untraced
and then with timing wrappers installed around the program's public functions
(see ``spans.py``), and prints the per-layer metrics plus the tracing overhead
(traced minus untraced).  Layers a workload never reaches read 0.  Span files are left under ``.perfbench_work/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    WORK_ROOT,
    BenchError,
    cpu_ticks,
    median,
    program_env,
    require_program,
    steal_share,
    tail,
)
from spans import durations_by_name, load_spans, self_times  # noqa: E402

#: Cold starts per run; ``setup_s`` is their median.
CLI_COLD_STARTS = 9
SERVICE_COLD_STARTS = 3
#: ``cli-large`` iterations per run, at least (each ~16 s today).
CLI_MIN_ITERS = 3
CLI_MIN_ITERS_TRACED = 2

#: Every workload reports all of these (definitions in ``LAYERS.md``).
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed by ``--trace 1`` (span names in ``spans.py``).
PER_LAYER = {
    "trace.read_s": "s",
    "trace.validate_s": "s",
    "trace.validate_share": "share",
    "trace.validate_base_s": "s",
    "trace.frame_decode_s": "s",
    "core.wakers_s": "s",
    "core.timelines_s": "s",
    "core.walk_s": "s",
    "core.metrics_s": "s",
    "core.render_s": "s",
    "core.online_observe_s": "s",
    "core.online_snapshot_s": "s",
    "cli.main_s": "s",
    "cli.other_s": "s",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "service.upload_s": "s",
    "service.store_put_s": "s",
    "service.cache_get_s": "s",
    "service.cache_hit_ratio": "share",
    "service.cache_hits": "count",
    "service.cache_lookups": "count",
    "service.report_bytes": "bytes",
    "service.http_other_s": "s",
    "service.pool_restarts": "count",
    "service.ops_per_s": "1/s",
    "service.miss_latency_p50_s": "s",
    "service.miss_latency_tail_s": "s",
    "service.hit_latency_p50_s": "s",
    "stream.append_s": "s",
    "stream.ingest_lag_chunks": "chunks",
    "stream.rejected_429": "count",
    "stream.rejected_429_share": "share",
    "stream.chunk_posts": "count",
    "stream.finalize_s": "s",
    "stream.finalize_store_s": "s",
    "stream.finalize_put_s": "s",
    "stream.snapshot_latency_p50_s": "s",
    "stream.snapshot_latency_tail_s": "s",
    "fleet.ingest_s": "s",
    "fleet.backlog_max": "count",
    "tracing.spans": "count",
    "host.steal_share": "share",
    "overhead.events_per_s": "1/s",
    "overhead.miss_latency_p50_s": "s",
    "overhead.hit_latency_p50_s": "s",
    "overhead.snapshot_latency_p50_s": "s",
    "overhead.finalize_s": "s",
    "overhead.peak_rss_mb": "MB",
}

#: Analysis stages; ``cli.other`` is ``cli.main`` minus these.
CLI_STAGES = {
    "trace.read": "trace.read_s",
    "trace.validate": "trace.validate_s",
    "core.wakers": "core.wakers_s",
    "core.timelines": "core.timelines_s",
    "core.walk": "core.walk_s",
    "core.metrics": "core.metrics_s",
    "core.render": "core.render_s",
}


class Outcome:
    """Attempted/failed operation counts and the problems behind failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems += problems


# -- span aggregation -------------------------------------------------------------


def per_request_sums(spans, names) -> dict[str, list[float]]:
    """For each span name, its total duration within each request that has it."""
    sums: dict[str, dict] = {n: {} for n in names}
    for _sid, name, start, end, _parent, request in spans:
        if name in sums:
            sums[name][request] = sums[name].get(request, 0.0) + (end - start)
    return {n: list(v.values()) for n, v in sums.items()}


def stage_metrics(spans, base: str) -> dict[str, float]:
    """Analysis-stage medians per request, and validation's share of ``base``."""
    sums = per_request_sums(spans, CLI_STAGES)
    out = {CLI_STAGES[n]: median(v) for n, v in sums.items() if v}
    validate = sums["trace.validate"]
    # Base spans (cli.main, or service.execute of analyze jobs) whose
    # request ran validation: the wall that validation is a share of.
    requests = {r for (_s, n, _a, _b, _p, r) in spans if n == "trace.validate"}
    bases = [e - s for (_i, n, s, e, _p, r) in spans if n == base and r in requests]
    if bases:
        out["trace.validate_share"] = sum(validate) / sum(bases)
        out["trace.validate_base_s"] = median(bases)
    return out


def cli_other(spans) -> list[float]:
    """Per ``cli.main`` request: wall not covered by any stage span.

    That is the self time of ``cli.main`` and of the ``core.analyze`` span
    between it and the stages.
    """
    selfs = self_times(spans)
    other: dict = {}
    for sid, name, _start, _end, _parent, request in spans:
        if name in ("cli.main", "core.analyze"):
            other[request] = other.get(request, 0.0) + selfs[sid]
    return list(other.values())


def span_medians(spans, mapping: dict[str, str]) -> dict[str, float]:
    durations = durations_by_name(spans)
    return {metric: median(durations[name]) for name, metric in mapping.items()
            if durations.get(name)}


# -- cli-large ------------------------------------------------------------------


def _render_digest(path: Path) -> str:
    """sha256 of what ``analyze PATH`` must print: the in-process report."""
    from repro.core.analyzer import analyze
    from repro.trace.reader import read_trace

    # Validation only accepts or rejects a trace; it never changes the report.
    text = analyze(read_trace(path), validate=False).render() + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_cold_starts(micro: Path, count: int, outcome: Outcome) -> list[float]:
    """Wall time of fresh ``python -m repro analyze MICRO`` processes."""
    expected = _render_digest(micro)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(micro)],
            cwd=ROOT, env=program_env(), capture_output=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        problems = []
        if proc.returncode != 0:
            problems.append(f"cold analyze exited {proc.returncode}: {proc.stderr[-500:]!r}")
        elif hashlib.sha256(proc.stdout).hexdigest() != expected:
            problems.append("cold analyze printed a different report")
        outcome.record(1, problems)
    return times


def check_cli_outputs(items: list[dict], expected: str) -> list[str]:
    return [f"iteration {i}: report differs from analyze(trace).render()"
            for i, item in enumerate(items) if item["sha256"] != expected]


def run_cli_large(args, work: Path, outcome: Outcome) -> dict[str, float]:
    from inputs import large_trace_file, micro_trace

    micro = micro_trace(work, args.seed)
    large = large_trace_file(work, args.seed)
    expected = _render_digest(large.path)
    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = median(cli_cold_starts(micro.path, CLI_COLD_STARTS, outcome))

    out = work / "cli-worker.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "cli_worker.py"), str(large.path),
        "--warmup", str(micro.path), "--out", str(out), "--seconds", str(args.seconds),
        "--min-iters", str(CLI_MIN_ITERS_TRACED if args.trace else CLI_MIN_ITERS),
    ]
    if args.trace:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, env=program_env(), timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"cli worker exited with {proc.returncode}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    items = doc["plain"] + doc["traced"]
    outcome.record(len(items), check_cli_outputs(items, expected))

    events_per_s = large.events / median(i["wall"] for i in doc["plain"])
    if not args.trace:
        metrics["events_per_s"] = events_per_s
        metrics["peak_rss_mb"] = doc["peak_rss_kb"] / 1024.0
        return metrics

    spans = [tuple(s) for s in doc["spans"]["spans"]]
    (work / "spans").mkdir(exist_ok=True)
    shutil.copy(out, work / "spans" / "cli-worker.json")
    metrics.update(stage_metrics(spans, "cli.main"))
    walls = [i["wall"] for i in doc["traced"]]
    metrics["cli.main_s"] = median(walls)
    metrics["cli.other_s"] = median(cli_other(spans))
    metrics["overhead.events_per_s"] = large.events / median(walls) - events_per_s
    metrics["tracing.spans"] = len(spans)
    return metrics


# -- service workloads ------------------------------------------------------------


def start_servers(work: Path, count: int, spans_dir: Path | None = None):
    """``count`` cold starts, each on a fresh data dir; all but the last stopped."""
    from service import Server

    times, server = [], None
    for i in range(count):
        if server is not None:
            server.stop()
        tag = "traced" if spans_dir is not None else "plain"
        server = Server(work / f"serve-{tag}-{i}", spans_dir=spans_dir)
        try:
            server.start()
        except BaseException:
            server.stop()
            raise
        times.append(server.setup_s)
    return server, times


def _server_spans(spans_dir: Path):
    return load_spans(sorted(spans_dir.glob("*.json")))


def reported_tail(key: str, samples: list[float]) -> float:
    """The tail value; its percentile and sample count go to the log."""
    t = tail(samples)
    if t is None:
        raise BenchError(f"too few samples ({len(samples)}) for {key}; raise --seconds")
    print(f"  {key}: p{t[1]} of {t[2]} samples = {t[0]:.6f} s")
    return t[0]


def served_window(work: Path, drive, spans_dir: Path | None = None, starts: int = 1):
    """Cold-start ``starts`` servers, run ``drive(url)`` on the last one, stop it.

    Returns what ``drive`` returned, the server's peak RSS and the set-up times.
    """
    server, setups = start_servers(work, starts, spans_dir)
    try:
        result = drive(server.url)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return result, rss, setups


def _apps_e2e(run, rss) -> dict[str, float]:
    miss = [o["latency"] for o in run.miss]
    hit = [o["latency"] for o in run.hit]
    out = {
        # Events of the analyzed traces over the whole closed loop
        # (uploads, misses, fleet ingest and hits).
        "events_per_s": sum(used[0].events for used in run.used) / run.wall_s,
        "peak_rss_mb": rss,
        # Per layer, not bounded end-to-end metrics: a bounded metric must
        # exist on every workload (see LAYERS.md).
        "service.ops_per_s": run.ops / run.wall_s,
        "service.miss_latency_p50_s": median(miss),
        "service.hit_latency_p50_s": median(hit),
    }
    out["service.miss_latency_tail_s"] = reported_tail("miss_latency_tail_s", miss)
    # Printed only: at ~p98 it rests on a handful of scheduler stalls and
    # does not repeat within a tenth from run to run.
    reported_tail("hit_latency_tail_s", hit)
    return out


def run_service_apps(args, work: Path, outcome: Outcome) -> dict[str, float]:
    from inputs import AppTraces
    from service import check_apps, report_bytes, run_apps

    traces = AppTraces(work, args.seed)
    traces.batch(0)

    def drive(url):
        return run_apps(url, traces.batch, args.seconds)

    starts = 1 if args.trace else SERVICE_COLD_STARTS
    run, rss, setups = served_window(work, drive, starts=starts)
    outcome.record(run.ops, check_apps(run))
    e2e = _apps_e2e(run, rss)
    if not args.trace:
        return {"setup_s": median(setups), **e2e}

    spans_dir = work / "spans"
    trun, trss, _ = served_window(work, drive, spans_dir=spans_dir)
    outcome.record(trun.ops, check_apps(trun))
    te2e = _apps_e2e(trun, trss)
    spans, gauges = _server_spans(spans_dir)
    metrics = stage_metrics(spans, "service.execute")
    metrics.update(span_medians(spans, {
        "api.POST.traces": "service.upload_s",
        "service.store_put": "service.store_put_s",
        "service.cache_get": "service.cache_get_s",
        "fleet.ingest": "fleet.ingest_s",
    }))
    cache = trun.metrics["cache"]
    lookups = cache["hits"] + cache["misses"]
    jobs = trun.miss + trun.hit
    metrics.update({
        "service.queue_wait_s": median(o["queue_wait"] for o in trun.miss),
        "service.execute_s": median(o["execute"] for o in trun.miss),
        "service.cache_hits": cache["hits"],
        "service.cache_lookups": lookups,
        "service.cache_hit_ratio": cache["hits"] / lookups,
        "service.report_bytes": median(
            report_bytes(o["job"], used[1]) for o, used in zip(trun.miss, trun.used)
        ),
        "service.http_other_s": median(o["latency"] - o["server"] for o in jobs),
        "service.pool_restarts": trun.metrics["queue"]["worker_restarts"],
        "fleet.backlog_max": gauges.get("fleet.backlog_max", 0),
        "tracing.spans": len(spans),
    })
    metrics.update({k: v for k, v in e2e.items() if k.startswith("service.")})
    for key in ("events_per_s", "service.miss_latency_p50_s",
                "service.hit_latency_p50_s", "peak_rss_mb"):
        metrics["overhead." + key.rpartition(".")[2]] = te2e[key] - e2e[key]
    return metrics


def _stream_e2e(sessions, rss) -> dict[str, float]:
    snaps = [x for s in sessions for x in s.snapshots]
    out = {
        "events_per_s": median(s.events / s.wall_s for s in sessions),
        "peak_rss_mb": rss,
        # Per layer, not end-to-end: see service.ops_per_s.  finalize_s
        # is the finalize round trip (drain, assemble, store).
        "stream.snapshot_latency_p50_s": median(snaps),
        "stream.finalize_s": median(s.finalize_s for s in sessions),
    }
    out["stream.snapshot_latency_tail_s"] = reported_tail("snapshot_latency_tail_s", snaps)
    return out


def _stream_problems(sessions) -> list[str]:
    return [f"session {i}: finalize digest differs from trace_digest of the batch trace"
            for i, s in enumerate(sessions) if not s.digest_ok]


def run_stream_ingest(args, work: Path, outcome: Outcome) -> dict[str, float]:
    from inputs import large_trace
    from service import run_stream

    trace = large_trace(args.seed)

    def drive(url):
        return run_stream(url, trace, args.seconds)

    starts = 1 if args.trace else SERVICE_COLD_STARTS
    sessions, rss, setups = served_window(work, drive, starts=starts)
    outcome.record(sum(s.posts + 1 for s in sessions), _stream_problems(sessions))
    e2e = _stream_e2e(sessions, rss)
    if not args.trace:
        return {"setup_s": median(setups), **e2e}

    spans_dir = work / "spans"
    tsessions, trss, _ = served_window(work, drive, spans_dir=spans_dir)
    outcome.record(sum(s.posts + 1 for s in tsessions), _stream_problems(tsessions))
    te2e = _stream_e2e(tsessions, trss)
    spans, gauges = _server_spans(spans_dir)
    metrics = span_medians(spans, {
        "stream.append": "stream.append_s",
        "trace.frame_decode": "trace.frame_decode_s",
        "core.online_observe": "core.online_observe_s",
        "core.online_snapshot": "core.online_snapshot_s",
        "stream.finalize_store": "stream.finalize_store_s",
        "stream.finalize_put": "stream.finalize_put_s",
        "fleet.ingest": "fleet.ingest_s",
    })
    posts = sum(s.posts for s in tsessions)
    rejected = sum(s.rejected_429 for s in tsessions)
    lags = [x for s in tsessions for x in s.lags]
    metrics.update({
        "stream.chunk_posts": posts,
        "stream.rejected_429": rejected,
        "stream.rejected_429_share": rejected / posts,
        "stream.ingest_lag_chunks": sum(lags) / len(lags),
        "fleet.backlog_max": gauges.get("fleet.backlog_max", 0),
        "tracing.spans": len(spans),
    })
    metrics.update({k: v for k, v in e2e.items() if k.startswith("stream.")})
    for key in ("events_per_s", "stream.snapshot_latency_p50_s",
                "stream.finalize_s", "peak_rss_mb"):
        metrics["overhead." + key.rpartition(".")[2]] = te2e[key] - e2e[key]
    return metrics


WORKLOADS = {
    "cli-large": run_cli_large,
    "service-apps": run_service_apps,
    "stream-ingest": run_stream_ingest,
}


def result_json(metrics: dict[str, float], names, units, outcome: Outcome) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            n: {"value": float(metrics.get(n, 0.0)), "unit": units[n]} for n in names
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error, so every server and worker started
    # so far is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        require_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = Outcome()
    ticks = cpu_ticks()
    try:
        metrics = WORKLOADS[args.workload](args, work, outcome)
        # Host CPU steal explains most run-to-run spread on a shared VM.
        metrics["host.steal_share"] = steal_share(ticks, cpu_ticks())
        print(f"  host CPU steal during the run: {metrics['host.steal_share']:.3f}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Keep span files of traced runs; drop inputs and data dirs.
        for path in work.iterdir():
            if path.name != "spans":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        if not any(work.iterdir()):
            work.rmdir()

    if args.trace:
        names, units = list(PER_LAYER), PER_LAYER
    else:
        names, units = list(END_TO_END), END_TO_END
        assert all(metrics.get(n) for n in names), "every end-to-end metric is measured"
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name in names:
        print(f"  {name}: {metrics.get(name, 0.0):.6g} {units[name]}")
    print(json.dumps(result_json(metrics, names, units, outcome)))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
