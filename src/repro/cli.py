"""Command line interface.

::

    critical-lock-analysis run radiosity --threads 24 -o rad.clt --report
    critical-lock-analysis analyze rad.clt --top 5 --timeline
    critical-lock-analysis analyze rad.clt --sample-rate 0.1
    critical-lock-analysis import perf_lock_events.jsonl -o perf.clt
    critical-lock-analysis whatif rad.clt "tq[0].qlock" --factor 0.5
    critical-lock-analysis experiment fig9
    critical-lock-analysis check --seeds 200
    critical-lock-analysis serve --port 8323 --workers 4
    critical-lock-analysis fleet summary --store .cla-service
    critical-lock-analysis fleet lint-rules docs/examples/fleet-alerts.toml
    critical-lock-analysis list

(also invocable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import json
import sys

# The default path, trace bytes to report, and nothing else: every other
# subcommand imports what it runs inside its handler, and each optional
# view of ``analyze`` only when its flag is set.  ``analyze`` and
# ``read_trace`` stay module attributes so they can be wrapped in place.
from repro.core.analyzer import analyze
from repro.errors import ReproError
from repro.trace.reader import read_trace
from repro.trace.writer import write_trace

__all__ = ["main", "build_parser"]


def _version_string() -> str:
    """Package version, preferring installed metadata over the source tree."""
    from importlib import metadata

    try:
        version = metadata.version("repro")
    except metadata.PackageNotFoundError:
        from repro import __version__ as version
    return f"critical-lock-analysis {version}"


class _VersionAction(argparse.Action):
    """``--version`` that reads the package metadata only when given."""

    def __init__(self, option_strings, dest):
        super().__init__(option_strings, argparse.SUPPRESS, nargs=0,
                         default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="critical-lock-analysis",
        description="Critical lock analysis (SC 2012) — simulate, trace, analyze.",
    )
    p.add_argument("--version", action=_VersionAction)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a workload on the simulator")
    run_p.add_argument("workload", help="workload name (see the list subcommand)")
    run_p.add_argument("--threads", "-t", type=int, default=4)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--cores", type=int, default=None, help="simulated core limit")
    run_p.add_argument(
        "--param", "-p", action="append", default=[], metavar="K=V",
        help="workload constructor parameter (repeatable)",
    )
    run_p.add_argument("--output", "-o", help="write the trace to this path (.clt/.jsonl)")
    run_p.add_argument("--report", action="store_true", help="print the analysis report")

    an_p = sub.add_parser("analyze", help="analyze a trace file")
    an_p.add_argument("trace")
    an_p.add_argument("--top", type=int, default=10, help="locks per table")
    an_p.add_argument("--json", action="store_true", help="machine-readable output")
    an_p.add_argument("--timeline", action="store_true", help="also print the ASCII timeline")
    an_p.add_argument("--chart", action="store_true", help="CP-vs-wait lock profile bars")
    an_p.add_argument("--windows", type=int, metavar="N",
                      help="lock criticality over N time windows")
    an_p.add_argument("--lock-order", action="store_true",
                      help="nesting graph + potential-deadlock check")
    an_p.add_argument("--model", action="store_true",
                      help="fit the Eyerman-Eeckhout speedup-ceiling model")
    an_p.add_argument("--blame", action="store_true",
                      help="idleness-blame ranking (prior-art baseline)")
    an_p.add_argument("--phases", action="store_true",
                      help="per-barrier-phase critical lock statistics")
    an_p.add_argument("--no-validate", action="store_true", help="skip trace validation")
    an_p.add_argument(
        "--sample-rate", type=float, default=None, metavar="R",
        help="downsample the trace to this lock-invocation inclusion "
        "probability and print the statistical estimate next to the exact "
        "report (a trace that is already a sampled capture is estimated "
        "directly; no flag needed)",
    )
    an_p.add_argument(
        "--sample-seed", type=int, default=0, metavar="S",
        help="deterministic sampling seed for --sample-rate (default: %(default)s)",
    )

    imp_p = sub.add_parser(
        "import",
        help="import a foreign lock-event dump (perf-style JSONL) as a "
        "native trace",
    )
    imp_p.add_argument("input", help="foreign dump file")
    imp_p.add_argument(
        "--format", default="perf-jsonl",
        help="input format (default: %(default)s)",
    )
    imp_p.add_argument("--output", "-o", help="write the trace here (.clt/.jsonl)")
    imp_p.add_argument("--report", action="store_true",
                       help="also print the analysis report")
    imp_p.add_argument("--top", type=int, default=10, help="locks per table")

    cmp_p = sub.add_parser("compare", help="diff two analyses (before vs after)")
    cmp_p.add_argument("before")
    cmp_p.add_argument("after")

    st_p = sub.add_parser("stats", help="descriptive statistics of a trace")
    st_p.add_argument("trace")

    ex2_p = sub.add_parser(
        "export",
        help="export a trace to Chrome/Perfetto JSON, an SVG timeline, "
        "or a full HTML report",
    )
    ex2_p.add_argument("trace")
    ex2_p.add_argument(
        "output", help="output path (.json = Chrome, .svg = SVG, .html = report)"
    )

    plan_p = sub.add_parser(
        "plan", help="greedy lock-optimization plan (what-if based)"
    )
    plan_p.add_argument("trace")
    plan_p.add_argument("--steps", type=int, default=3)
    plan_p.add_argument("--factor", type=float, default=0.5,
                        help="per-step shrink factor")

    rp_p = sub.add_parser(
        "replay", help="re-run a trace on the simulator, optionally modified"
    )
    rp_p.add_argument("trace")
    rp_p.add_argument("--shrink", metavar="LOCK",
                      help="scale this lock's critical sections")
    rp_p.add_argument("--factor", type=float, default=0.5,
                      help="remaining CS size fraction under --shrink")
    rp_p.add_argument("--cores", type=int, default=None,
                      help="replay on this many cores (default: no core limit; "
                      "refused on a core-limited trace)")
    rp_p.add_argument("--output", "-o", help="write the replayed trace here")

    wi_p = sub.add_parser(
        "whatif",
        help="predict speedup from shrinking a lock's CSs, or ground-truth "
        "replay under another lock protocol",
    )
    wi_p.add_argument("trace", nargs="?", help="trace file (.clt/.jsonl)")
    wi_p.add_argument("lock", nargs="?", help="lock display name (shrink mode)")
    wi_p.add_argument("--factor", type=float, default=0.0,
                      help="remaining CS size fraction (0 = eliminate)")
    wi_p.add_argument(
        "--protocol", metavar="NAME",
        help="replay under this lock protocol (see --list-protocols)",
    )
    wi_p.add_argument(
        "--priority", action="append", default=[], metavar="THREAD=P",
        help="lock priority for a thread under --protocol priority (tid or name; repeatable)",
    )
    wi_p.add_argument(
        "--proto-param", action="append", default=[], metavar="K=V",
        help="protocol constructor parameter, e.g. spin_limit=0.1 (repeatable)",
    )
    wi_p.add_argument("--cores", type=int, default=None,
                      help="replay on this many cores (default: no core limit; "
                      "refused on a core-limited trace)")
    wi_p.add_argument("--top", type=int, default=10,
                      help="locks in the re-ranking table")
    wi_p.add_argument("--json", action="store_true", help="machine-readable output")
    wi_p.add_argument("--list-protocols", action="store_true",
                      help="list available protocols, then exit")

    ex_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    ex_p.add_argument(
        "exp_id", help="experiment id (see the list subcommand), or 'all'"
    )
    ex_p.add_argument("--output", "-o", help="also append the tables to this file")

    chk_p = sub.add_parser(
        "check",
        help="differential verification: fuzz random programs through both "
        "critical-path formulations and cross-check every invariant",
    )
    chk_p.add_argument("--seeds", type=int, default=50, metavar="N",
                       help="number of seeds to check (default: %(default)s)")
    chk_p.add_argument("--start", type=int, default=0,
                       help="first seed (default: %(default)s)")
    chk_p.add_argument(
        "--out-dir", default=".cla-check",
        help="directory for shrunk repro files (default: %(default)s)",
    )
    chk_p.add_argument("--repro", metavar="FILE",
                       help="replay a repro file instead of fuzzing")
    chk_p.add_argument("--no-shrink", action="store_true",
                       help="skip minimization of failing programs")
    chk_p.add_argument(
        "--max-shrink-evals", type=int, default=400, metavar="N",
        help="shrinker evaluation budget per failure (default: %(default)s)",
    )

    lv_p = sub.add_parser(
        "live",
        help="tail a growing trace (or a service stream session) and "
        "render the exact analysis of the events so far",
    )
    lv_p.add_argument("trace", nargs="?", help="trace file to follow (.clt/.cls/.jsonl)")
    lv_p.add_argument("--service", metavar="URL",
                      help="poll a service stream session instead of a file")
    lv_p.add_argument("--session", metavar="SID",
                      help="stream session id (with --service)")
    lv_p.add_argument("--top", type=int, default=10, help="locks per table")
    lv_p.add_argument("--refresh", type=float, default=1.0,
                      help="seconds between renders (default: %(default)s)")
    lv_p.add_argument(
        "--timeout", type=float, default=5.0,
        help="stop after this long with no new events (default: %(default)s)",
    )
    lv_p.add_argument("--once", action="store_true",
                      help="render a single snapshot and exit")

    srv_p = sub.add_parser(
        "serve", help="run the parallel analysis service (HTTP/JSON API)"
    )
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8323)
    srv_p.add_argument(
        "--data-dir", default=".cla-service",
        help="trace store + cache spill directory (default: %(default)s)",
    )
    srv_p.add_argument(
        "--workers", "-w", type=int, default=2,
        help="analysis worker processes; 0 = run jobs inline (default: %(default)s)",
    )
    srv_p.add_argument(
        "--cache-size", type=int, default=256,
        help="in-memory result cache entries (default: %(default)s)",
    )
    srv_p.add_argument(
        "--rules", metavar="FILE",
        help="TOML alert-rule spec served at /fleet/alerts and the dashboard",
    )
    srv_p.add_argument(
        "--shared-dir", metavar="DIR",
        help="keep traces and cached results in DIR/traces and DIR/cache "
        "instead of the data dir; point every node of a ring at the same "
        "path to share them",
    )
    srv_p.add_argument(
        "--peers", metavar="URLS",
        help="comma-separated base URLs of the other ring nodes; enables "
        "consistent-hash job routing (redirects to the owning node)",
    )
    srv_p.add_argument(
        "--self-url", metavar="URL",
        help="this node's URL as peers reach it (default: http://HOST:PORT)",
    )

    fl_p = sub.add_parser(
        "fleet",
        help="cross-trace fleet analytics: cluster summary, ranking "
        "regressions, alert rules, live watch",
    )
    fl_sub = fl_p.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store", default=".cla-service", metavar="DIR",
            help="service data dir or shared dir to read (never written; "
            "default: %(default)s)",
        )
        sp.add_argument("--service", metavar="URL",
                        help="query a running service instead of local state")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    fs_p = fl_sub.add_parser("summary", help="fingerprinted bottleneck clusters")
    _fleet_common(fs_p)
    fs_p.add_argument("--top", type=int, default=15, help="clusters to show")

    fr_p = fl_sub.add_parser(
        "regressions", help="ranking shifts beyond the calibrated noise band"
    )
    _fleet_common(fr_p)
    fr_p.add_argument("--topk", type=int, default=None,
                      help="ranking depth for churn detection")
    fr_p.add_argument("--noise-floor", type=float, default=None,
                      help="minimum cp_fraction delta worth flagging")
    fr_p.add_argument("--sigma", type=float, default=None,
                      help="noise-band width in baseline standard deviations")

    fa_p = fl_sub.add_parser("alerts", help="evaluate an alert-rule spec")
    _fleet_common(fa_p)
    fa_p.add_argument("--rules", metavar="FILE",
                      help="TOML rule spec (required unless --service)")

    fw_p = fl_sub.add_parser(
        "watch", help="follow a service's fleet SSE stream and print events"
    )
    fw_p.add_argument("--service", required=True, metavar="URL")
    fw_p.add_argument("--events", type=int, default=0,
                      help="stop after N events (0 = until interrupted)")
    fw_p.add_argument("--timeout", type=float, default=60.0,
                      help="per-read socket timeout (default: %(default)s)")
    fw_p.add_argument("--json", action="store_true", help="machine-readable output")

    flr_p = fl_sub.add_parser(
        "lint-rules", help="validate alert-rule spec files without a store"
    )
    flr_p.add_argument("rules", nargs="+", help="TOML rule spec file(s)")

    sub.add_parser("list", help="list workloads and experiments")
    return p


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--param expects K=V, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload

    cls = get_workload(args.workload)
    wl = cls(**_parse_params(args.param))
    result = wl.run(nthreads=args.threads, seed=args.seed, cores=args.cores)
    print(
        f"{wl.name}: {args.threads} threads, completion time "
        f"{result.completion_time:.4f}, {len(result.trace)} events"
    )
    if args.output:
        path = write_trace(result.trace, args.output)
        print(f"trace written to {path}")
    if args.report or not args.output:
        print()
        print(analyze(result.trace).render())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.sampling.sampler import trace_sample_rate

    trace = read_trace(args.trace)
    if trace_sample_rate(trace) is not None:
        # A sampled capture: the exact engine's numbers would silently
        # describe the sample, not the execution — estimate instead.
        from repro.core.estimate import estimate_report

        est = estimate_report(trace)
        if args.json:
            print(json.dumps(est.to_dict(), indent=2))
        else:
            print(est.render(args.top))
        return 0
    analysis = analyze(trace, validate=not args.no_validate)
    est = None
    if args.sample_rate is not None:
        from repro.core.estimate import estimate_report
        from repro.sampling.sampler import downsample_trace

        sampled = downsample_trace(trace, args.sample_rate, seed=args.sample_seed)
        est = estimate_report(sampled)
    if args.json:
        doc = analysis.report.to_dict()
        if est is not None:
            doc = {"exact": doc, "estimated": est.to_dict()}
        print(json.dumps(doc, indent=2))
    else:
        print(analysis.render(args.top))
        if est is not None:
            print()
            print(est.render(args.top))
    if args.timeline:
        from repro.viz.timeline import render_timeline

        print()
        print(render_timeline(trace, analysis))
    if args.chart:
        from repro.viz.profile import render_lock_profile

        print()
        print(render_lock_profile(analysis.report, n=args.top))
    if args.windows:
        from repro.core.windows import windowed_criticality

        print()
        print(windowed_criticality(analysis, args.windows).render())
    if args.lock_order:
        from repro.core.lockorder import build_lock_order

        print()
        print(build_lock_order(trace).render())
    if args.model:
        from repro.core.eyerman import fit_model

        print()
        model = fit_model(analysis)
        print(model)
        for n in (2, 4, 8, 16, 32, 64):
            print(f"  model speedup @{n:>2} threads: {model.speedup(n):.2f}x")
    if args.blame:
        from repro.core.blame import compute_blame

        print()
        print(compute_blame(analysis).render(thread_names=trace.threads))
    if args.phases:
        from repro.core.phases import split_phases

        print()
        print(split_phases(analysis).render())
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from repro.trace.importers import import_trace

    trace = import_trace(args.input, format=args.format)
    info = trace.meta.get("import", {})
    repairs = ", ".join(f"{k}={v}" for k, v in info.items() if k != "file" and v)
    print(
        f"imported {args.input}: {len(trace)} events, "
        f"{len(trace.threads)} threads, {len(trace.objects)} objects"
        + (f" ({repairs})" if repairs else "")
    )
    if args.output:
        path = write_trace(trace, args.output)
        print(f"trace written to {path}")
    if args.report or not args.output:
        print()
        print(analyze(trace).render(args.top))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.stats import compute_trace_stats

    print(compute_trace_stats(read_trace(args.trace)).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    out = str(args.output)
    if out.endswith(".svg"):
        from repro.viz.svg import write_svg

        path = write_svg(read_trace(args.trace), args.output)
        print(f"SVG timeline written to {path}")
        return 0
    if out.endswith((".html", ".htm")):
        from repro.report_html import write_html_report

        path = write_html_report(read_trace(args.trace), args.output)
        print(f"HTML report written to {path}")
        return 0
    from repro.export import write_chrome_trace

    path = write_chrome_trace(read_trace(args.trace), args.output)
    print(f"Chrome trace written to {path}; open it at https://ui.perfetto.dev")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import plan_optimizations

    analysis = analyze(read_trace(args.trace), validate=False)
    print(plan_optimizations(analysis, steps=args.steps, factor=args.factor).render())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.replay import reconstruct

    trace = read_trace(args.trace)
    replay = reconstruct(trace)
    result = replay.run(
        shrink_lock=args.shrink, factor=args.factor if args.shrink else 1.0,
        cores=args.cores,
    )
    print(
        f"original completion {trace.duration:.6g} -> replay "
        f"{result.completion_time:.6g}"
        + (f" (with {args.shrink} x{args.factor})" if args.shrink else "")
    )
    if trace.duration > 0:
        print(f"speedup vs original: {trace.duration / result.completion_time:.3f}")
    if args.output:
        path = write_trace(result.trace, args.output)
        print(f"replayed trace written to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_analyses

    before = analyze(read_trace(args.before), validate=False)
    after = analyze(read_trace(args.after), validate=False)
    print(compare_analyses(before, after).render())
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    if args.list_protocols:
        from repro.sim.protocols import PROTOCOL_DOCS

        print("lock protocols (--protocol):")
        for name, doc in PROTOCOL_DOCS.items():
            print(f"  {name:<12} {doc}")
        return 0
    if not args.trace:
        raise ReproError("whatif needs a trace file (or --list-protocols)")
    trace = read_trace(args.trace)
    if args.protocol:
        from repro.core.replay_whatif import replay_whatif

        priorities = {}
        for pair in args.priority:
            if "=" not in pair:
                raise ReproError(f"--priority expects THREAD=P, got {pair!r}")
            key, val = pair.split("=", 1)
            priorities[int(key) if key.lstrip("-").isdigit() else key] = int(val)
        forecast = replay_whatif(
            trace,
            protocol=args.protocol,
            priorities=priorities or None,
            protocol_params=_parse_params(args.proto_param) or None,
            cores=args.cores,
        )
        if args.json:
            print(json.dumps(forecast.to_dict(), indent=2))
        else:
            print(forecast.render(args.top))
        return 0
    if not args.lock:
        raise ReproError(
            "whatif needs a lock name (shrink mode) or --protocol"
        )
    from repro.core.whatif import predict_shrink

    print(predict_shrink(trace, args.lock, factor=args.factor))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.harness import list_experiments, run_experiment

    ids = list_experiments() if args.exp_id == "all" else [args.exp_id]
    sink = open(args.output, "a", encoding="utf-8") if args.output else None
    try:
        for exp_id in ids:
            text = run_experiment(exp_id).render()
            print(text)
            print()
            if sink:
                sink.write(text + "\n\n")
    finally:
        if sink:
            sink.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import replay_repro, run_seeds

    if args.repro:
        report = replay_repro(args.repro)
        print(report.render())
        return 0 if report.ok else 1
    run = run_seeds(
        count=args.seeds,
        start=args.start,
        out_dir=args.out_dir,
        shrink_failures=not args.no_shrink,
        max_shrink_evals=args.max_shrink_evals,
    )
    print(run.render())
    return 0 if run.ok else 1


def _cmd_live(args: argparse.Namespace) -> int:
    if args.service:
        return _live_service(args)
    if not args.trace:
        raise ReproError("live needs a trace file, or --service with --session")
    from repro.stream import live_snapshots

    last = None
    for snap in live_snapshots(
        args.trace,
        top=args.top,
        refresh=args.refresh,
        timeout=args.timeout,
        stop=(lambda: True) if args.once else None,
    ):
        last = snap
        if not args.once:  # --once wants only the final (complete) snapshot
            _print_live(snap)
            print()
    if args.once and last is not None:
        _print_live(last)
    return 0


def _print_live(snap: dict) -> None:
    print(snap["rendered"])
    print(f"  [{snap['events']} events, {snap['nlocks']} locks, "
          f"span {snap['elapsed']:.6g}]")


def _live_service(args: argparse.Namespace) -> int:
    import time as _time

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    if not args.session:
        raise ReproError("--service needs --session SID")
    client = ServiceClient(args.service)
    idle_since = _time.monotonic()
    last_events = -1
    while True:
        try:
            snap = client.stream_snapshot(args.session, top=args.top, render=True)
        except ServiceError as exc:
            if exc.status != 409:
                raise
            # Finalized: the service keeps only the session's status.
            status = client.stream_status(args.session)
            print(f"stream {args.session} is {status['state']}: "
                  f"{status['events']} events, trace {status['digest']}")
            return 0
        print(snap.get("rendered", ""))
        print(f"  [{snap['events']} events, state {snap['state']}, "
              f"{snap['pending_chunks']} chunks pending]")
        print()
        if args.once or snap["state"] != "open":
            return 0
        if snap["events"] != last_events:
            last_events = snap["events"]
            idle_since = _time.monotonic()
        elif _time.monotonic() - idle_since > args.timeout:
            return 0
        _time.sleep(args.refresh)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        workers=args.workers,
        cache_capacity=args.cache_size,
        rules_path=args.rules,
        shared_dir=args.shared_dir,
        self_url=args.self_url,
        peers=tuple(
            p.strip() for p in (args.peers or "").split(",") if p.strip()
        ),
    )


def _local_fleet(store_dir: str):
    """Read-only fleet view of a service data dir or a shared dir.

    The fleet state under ``fleet/`` is folded, never written, and the
    ``traces/`` store (if any) is read, never opened: a live service may
    be writing both, and opening the store reaps its staging files and
    sidecar-less bodies.  Un-observed traces fold in memory only.  A
    ``--shared-dir`` node's data dir has no ``traces/``; a shared dir
    has no ``fleet/``.  A path with neither is refused, and nothing is
    created either way.
    """
    from pathlib import Path

    from repro.fleet import FleetAggregator, ingest_store
    from repro.service.store import stored_traces

    root = Path(store_dir)
    traces = root / "traces"
    if not (traces.is_dir() or (root / "fleet").is_dir()):
        raise ReproError(
            f"{root} is not a service data dir (no traces/ or fleet/ directory)"
        )
    agg = FleetAggregator(root / "fleet", read_only=True)
    if traces.is_dir():
        ingest_store(agg, stored_traces(traces))
    return agg


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (
        lint_rules,
        render_alerts,
        render_regressions,
        render_summary,
    )

    cmd = args.fleet_command
    if cmd == "lint-rules":
        problems = lint_rules(args.rules)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if not problems:
            n = len(args.rules)
            print(f"{n} rule file(s) OK")
        return 1 if problems else 0

    if cmd == "watch":
        from repro.service.client import ServiceClient

        client = ServiceClient(args.service)
        shown = 0
        while args.events <= 0 or shown < args.events:
            want = 1 if args.events <= 0 else args.events - shown
            events = client.fleet_events(max_events=want, timeout=args.timeout)
            if not events:
                break
            for event in events:
                shown += 1
                if args.json:
                    print(json.dumps(event))
                else:
                    summ = event.get("summary", {})
                    print(
                        f"fleet v{event.get('version')}: "
                        f"{summ.get('traces', 0)} traces, "
                        f"{summ.get('clusters', 0)} clusters, "
                        f"{event.get('regressions', 0)} regression flag(s), "
                        f"{event.get('alerts', 0)} alert(s)"
                    )
                    for row in summ.get("top", []):
                        print(f"  {row['workload']:<16} {row['site']:<28} "
                              f"cp {row['cp_latest']:.3f}")
        return 0

    if cmd == "summary":
        if args.service:
            from repro.service.client import ServiceClient

            doc = ServiceClient(args.service).fleet_summary(top=args.top)
        else:
            doc = _local_fleet(args.store).summary(top=args.top)
        print(json.dumps(doc, indent=2) if args.json else render_summary(doc, n=args.top))
        return 0

    if cmd == "regressions":
        if args.service:
            from repro.service.client import ServiceClient

            doc = ServiceClient(args.service).fleet_regressions(
                topk=args.topk, noise_floor=args.noise_floor, sigma=args.sigma
            )
        else:
            kwargs = {}
            if args.topk is not None:
                kwargs["topk"] = args.topk
            if args.noise_floor is not None:
                kwargs["noise_floor"] = args.noise_floor
            if args.sigma is not None:
                kwargs["sigma"] = args.sigma
            doc = _local_fleet(args.store).regressions(**kwargs)
        print(json.dumps(doc, indent=2) if args.json else render_regressions(doc))
        return 1 if doc.get("flags") else 0

    # cmd == "alerts"
    if args.service:
        from repro.service.client import ServiceClient

        doc = ServiceClient(args.service).fleet_alerts()
        alerts, nrules = doc["alerts"], doc["rules"]
    else:
        from repro.fleet import evaluate_rules, load_rules

        if not args.rules:
            raise ReproError("fleet alerts needs --rules FILE (or --service URL)")
        rules = load_rules(args.rules)
        alerts, nrules = evaluate_rules(rules, _local_fleet(args.store)), len(rules)
    if args.json:
        print(json.dumps({"rules": nrules, "alerts": alerts}, indent=2))
    else:
        print(render_alerts(alerts, nrules))
    return 1 if alerts else 0


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments.harness import list_experiments
    from repro.workloads import available_workloads

    print("workloads:")
    for name in available_workloads():
        print(f"  {name}")
    print("experiments:")
    for exp_id in list_experiments():
        print(f"  {exp_id}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "import": _cmd_import,
        "compare": _cmd_compare,
        "stats": _cmd_stats,
        "export": _cmd_export,
        "plan": _cmd_plan,
        "replay": _cmd_replay,
        "whatif": _cmd_whatif,
        "experiment": _cmd_experiment,
        "check": _cmd_check,
        "live": _cmd_live,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # output piped into head/less and closed
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
