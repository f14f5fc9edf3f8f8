"""Golden-report regression tests.

Checked-in rendered reports for two representative workloads — the
paper's hand-checkable ``micro`` example and the barrier-heavy
``radiosity`` simulation — pin the
full text of ``AnalysisResult.render`` so that any change to metrics,
ordering, or formatting shows up as a readable diff instead of a silent
drift.  Regenerate after an intentional change with::

    PYTHONPATH=src python tests/golden/regen.py

(see CONTRIBUTING.md) and review the diff like any other code change.
"""

import pathlib

import pytest

from repro.check.reference import critical_events, reference_analyze
from repro.cli import main
from repro.core.analyzer import analyze
from repro.trace.writer import write_trace
from repro.workloads import get_workload

GOLDEN_DIR = pathlib.Path(__file__).parent

#: name -> (workload, params, nthreads, seed).  Keep in sync with the
#: golden .txt files; regen.py reads this table.
CASES = {
    "micro": ("micro", {}, 4, 0),
    "radiosity": ("radiosity", {"total_tasks": 80, "iterations": 2}, 4, 11),
    # Contended rwlock config: under reader-preference the critical lock
    # re-ranks (entry_lock[0] -> entry_lock[1]), exercised by the
    # protocol-forecast tests.
    "ldap": (
        "openldap",
        {"requests": 150, "nbuckets": 2, "write_prob": 0.35,
         "write_cost": 0.12, "lookup_cost": 0.04},
        6,
        1,
    ),
}


#: Cases with a pinned *sampled* estimate render (<case>.sampled.txt):
#: the statistical pipeline at rate 0.1 with a fixed sampling seed.
SAMPLED_CASES = ("ldap", "radiosity")
SAMPLED_RATE = 0.1
SAMPLED_SEED = 10


#: The pipelines held to the goldens: production ``analyze`` (columnar)
#: and the per-event object pipeline ``reference_analyze``.
PIPELINES = {"columnar": analyze, "object": reference_analyze}


def render_case(case: str, pipeline: str = "columnar") -> str:
    """The exact text the CLI prints for ``analyze`` on this case."""
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    return PIPELINES[pipeline](trace).render(10)


def render_sampled_case(case: str) -> str:
    """The estimated report for this case sampled at SAMPLED_RATE."""
    from repro.core.estimate import estimate_report
    from repro.sampling import downsample_trace

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    sampled = downsample_trace(trace, SAMPLED_RATE, seed=SAMPLED_SEED)
    return estimate_report(sampled).render(10)


def render_whatif_case(case: str) -> str:
    """Pinned outputs of the what-if, plan and replay layers for this case.

    Times are written with ``repr`` so any float drift shows up.
    """
    from repro.core.planner import plan_optimizations
    from repro.core.whatif import predict_no_contention, predict_shrink
    from repro.replay import reconstruct

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    analysis = analyze(trace)
    graph = analysis.graph
    lines = []
    for info in sorted(trace.locks, key=lambda i: i.obj):
        for factor in (0.0, 0.5):
            r = predict_shrink(trace, info.obj, factor, graph=graph)
            lines.append(
                f"shrink {r.lock_name} x{factor}: "
                f"{r.baseline_time!r} -> {r.predicted_time!r}"
            )
        r = predict_no_contention(trace, info.obj, graph=graph)
        lines.append(
            f"no-contention {r.lock_name}: "
            f"{r.baseline_time!r} -> {r.predicted_time!r}"
        )
    lines.append(plan_optimizations(analysis, steps=3).render())
    lines.append(f"critical events: {len(critical_events(graph))}")
    top = analysis.report.top_locks(1)[0]
    replayed = reconstruct(trace).run(shrink_lock=top.obj, factor=0.5)
    lines.append(f"replay shrink {top.name} x0.5: {replayed.trace.duration!r}")
    return "\n".join(lines) + "\n"


#: Chunk sizes the live analyzer is fed at (``None`` = the whole trace
#: as one batch); each must render the ``{case}.txt`` golden.
ONLINE_CHUNKS = (1, 7, 4096, None)


def render_online_case(case: str, chunk: int | None) -> str:
    """The live analyzer's report of this case's records, fed in
    ``chunk``-event batches with the trace header."""
    from repro.core.online import OnlineAnalyzer
    from repro.trace.writer import header_dict

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    records = trace.records
    online = OnlineAnalyzer()
    step = chunk or len(records)
    for lo in range(0, len(records), step):
        online.observe_batch(records[lo:lo + step], header=header_dict(trace))
    return online.render(10)


def render_views_case(case: str) -> str:
    """The analysis views over one ``analyze`` of this case: windows,
    phases, blame, the Eyerman model, the forecast, the ASCII timeline,
    and the sha256 of the Chrome trace JSON and of the SVG."""
    import hashlib
    import json

    from repro.core.blame import compute_blame
    from repro.core.eyerman import fit_model
    from repro.core.forecast import forecast
    from repro.core.phases import split_phases
    from repro.core.windows import windowed_criticality
    from repro.export import to_chrome_trace
    from repro.viz.svg import render_svg
    from repro.viz.timeline import render_timeline

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    a = analyze(trace)

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    lines = [
        windowed_criticality(a, 10).render(),
        split_phases(a).render(),
        compute_blame(a).render(thread_names=trace.threads),
        str(fit_model(a)),
        forecast(a).render(),
        render_timeline(trace, a, width=100),
        f"chrome sha256 {sha(json.dumps(to_chrome_trace(trace, a)))}",
        f"svg sha256 {sha(render_svg(trace, a))}",
    ]
    return "\n".join(lines) + "\n"


def _golden(case: str) -> str:
    path = GOLDEN_DIR / f"{case}.txt"
    assert path.exists(), f"missing golden file {path}; run tests/golden/regen.py"
    return path.read_text()


# Both pipelines are checked against the *same* golden file: matching it
# byte for byte from either side is the bit-identity contract of
# docs/algorithm.md, pinned here at the rendered-report level.
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, pipeline):
    assert render_case(case, pipeline) == _golden(case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_report_matches_golden(case, tmp_path):
    """Chunk-streaming a golden trace into the service and finalizing must
    reproduce the checked-in report byte for byte — the streaming path is
    not allowed to change the answer."""
    import json
    import time

    from repro.service.api import ServiceAPI
    from repro.trace.framing import encode_records_frame, split_records
    from repro.trace.writer import header_dict

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    with ServiceAPI(tmp_path / "svc", workers=0) as api:
        _, session = api.handle("POST", "/streams", json.dumps({}).encode())
        sid = session["id"]
        for cid, block in enumerate(split_records(trace.records, 4096)):
            body = encode_records_frame(block, cid)
            while True:
                status, _ = api.handle("POST", f"/traces/{sid}/chunks", body)
                if status == 202:
                    break
                assert status == 429
                time.sleep(0.005)
        status, fin = api.handle(
            "POST",
            f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(trace), "analyze": True,
                        "params": {"render": True, "top": 10}}).encode(),
        )
    assert status == 200, fin
    assert fin["report"]["rendered"] == _golden(case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_analyze_matches_golden(case, tmp_path, capsys):
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    path = tmp_path / f"{case}.clt"
    write_trace(trace, str(path))

    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == _golden(case) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_whatif_matches_golden(case):
    """What-if predictions, the greedy plan, the critical event count and
    a replayed shrink are pinned per case, so the DAG and replay layers
    cannot drift silently."""
    assert render_whatif_case(case) == _golden(f"{case}.whatif")


@pytest.mark.parametrize("case", sorted(CASES))
def test_online_matches_golden(case):
    """The live analyzer's exact snapshot of a complete stream, at chunk
    sizes 1, 7, 4096 and the whole trace, renders the batch golden."""
    for chunk in ONLINE_CHUNKS:
        assert render_online_case(case, chunk) == _golden(case), chunk


@pytest.mark.parametrize("case", sorted(CASES))
def test_live_once_prints_the_golden(case, tmp_path, capsys):
    """``live --once`` on the written trace prints the ``analyze`` golden,
    then its summary line."""
    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    path = tmp_path / f"{case}.clt"
    write_trace(trace, str(path))
    assert main(["live", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    golden = _golden(case)
    assert out.startswith(golden + "\n")
    assert out[len(golden) + 1:] == (
        f"  [{len(trace)} events, {len(trace.locks)} locks, "
        f"span {trace.duration:.6g}]\n"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_views_match_golden(case):
    """Windows, phases, blame, the Eyerman model, the forecast, the ASCII
    timeline and the Chrome/SVG exports are pinned per case, so moving a
    view onto other data cannot change what it shows."""
    assert render_views_case(case) == _golden(f"{case}.views")


@pytest.mark.parametrize("case", SAMPLED_CASES)
def test_sampled_report_matches_golden(case, tmp_path, capsys):
    """The statistical pipeline (downsample -> estimate -> render) is
    pinned at rate 0.1 the same way the exact reports are; estimator or
    formatting drift shows up as a readable diff."""
    golden = _golden(f"{case}.sampled")
    assert render_sampled_case(case) == golden

    # The CLI prints the same bytes when handed the pre-sampled trace.
    from repro.core.estimate import estimate_report  # noqa: F401 (parity)
    from repro.sampling import downsample_trace

    workload, params, nthreads, seed = CASES[case]
    trace = get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace
    sampled = downsample_trace(trace, SAMPLED_RATE, seed=SAMPLED_SEED)
    path = tmp_path / f"{case}.sampled.clt"
    write_trace(sampled, str(path))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == golden + "\n"
