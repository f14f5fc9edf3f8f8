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

from repro.check.reference import reference_analyze
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
