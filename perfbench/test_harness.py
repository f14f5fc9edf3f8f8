"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, BenchError, require_program, tail  # noqa: E402

require_program()

import run  # noqa: E402
import service  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

from repro.errors import ServiceError  # noqa: E402


# -- the tail-percentile rule -----------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert tail(range(10)) is None
    assert tail(range(11)) == (0.0, 9, 11)


@pytest.mark.parametrize("n", [11, 12, 19, 20, 40, 45, 99, 100, 101, 376, 1000])
def test_tail_is_highest_whole_percentile_with_ten_beyond(n):
    xs = list(range(n))
    value, pct, count = tail(reversed(xs))
    assert count == n
    beyond = sum(1 for x in xs if x > value)
    assert beyond >= 10
    # One percentile higher would leave fewer than ten samples beyond it.
    assert n - math.ceil((pct + 1) * n / 100) < 10


def test_tail_examples():
    assert tail(range(40))[:2] == (29.0, 75)
    assert tail(range(1000))[:2] == (989.0, 99)


# -- the readiness wait -------------------------------------------------------------


class FakeProc:
    def __init__(self, code=None):
        self.returncode = code

    def poll(self):
        return self.returncode


class FakeClient:
    """/healthz fails ``down`` times; one worker answers the first ``solo`` selftests."""

    def __init__(self, down: int, solo: int):
        self.down = down
        self.solo = solo
        self.health_calls = 0
        self.jobs: list[str] = []

    def health(self):
        self.health_calls += 1
        if self.health_calls <= self.down:
            raise ServiceError("cannot reach service", status=503)
        return {"ok": True}

    def submit(self, kind, traces, params):
        assert kind == "selftest" and self.health_calls > self.down
        self.jobs.append(params["echo"])
        return str(len(self.jobs) - 1)

    def wait(self, job_id, timeout, poll):
        n = int(job_id)
        return {"pid": 100 if n < self.solo else 100 + n % 2}


def test_readiness_waits_for_health_then_every_worker():
    client = FakeClient(down=3, solo=5)
    sent = service.wait_ready(client, FakeProc(), workers=2, timeout=5)
    assert client.health_calls == 4
    # Selftests 0..4 all ran on pid 100; only the round holding job 5 (pid
    # 101) completes the set, and every probe carried a distinct echo.
    assert sent == 6
    assert len(set(client.jobs)) == len(client.jobs)


def test_readiness_fails_when_server_exits():
    with pytest.raises(BenchError, match="exited"):
        service.wait_ready(FakeClient(down=10**6, solo=0), FakeProc(code=1), timeout=5)


# -- correctness checks trip on tampered output ---------------------------------------


def test_cli_check_flags_tampered_report():
    good = hashlib.sha256(b"report\n").hexdigest()
    bad = hashlib.sha256(b"rep0rt\n").hexdigest()
    items = [{"sha256": good}, {"sha256": bad}]
    assert run.check_cli_outputs(items[:1], good) == []
    assert len(run.check_cli_outputs(items, good)) == 1


@pytest.fixture(scope="module")
def app_trace(tmp_path_factory):
    from inputs import AppTraces

    return AppTraces(tmp_path_factory.mktemp("apps"), seed=1).batch(0)[0]


def _apps_run(tf, miss_result, hit_result, miss_cached=False, hit_cached=True):
    return service.AppsRun(
        miss=[{"cached": miss_cached}], hit=[{"cached": hit_cached}],
        used=[(tf, miss_result, [hit_result])], metrics={"fleet": {"errors": 0}},
    )


def test_apps_check_accepts_service_results_and_flags_tampering(app_trace):
    from repro.service.jobs import execute

    result = json.loads(json.dumps(execute("analyze", [str(app_trace.path)], {})))
    assert service.check_apps(_apps_run(app_trace, result, result)) == []

    tampered = json.loads(json.dumps(result))
    tampered["critical_locks"][0]["cp_time_frac"] += 1e-9
    assert len(service.check_apps(_apps_run(app_trace, result, tampered))) == 1
    assert len(service.check_apps(_apps_run(app_trace, result, result, miss_cached=True))) == 1
    assert len(service.check_apps(_apps_run(app_trace, result, result, hit_cached=False))) == 1


def test_stream_check_flags_digest_mismatch():
    ok = service.Session(1, 1.0, 0.1, True, 1, 0, [0], [0.01])
    bad = service.Session(1, 1.0, 0.1, False, 1, 0, [0], [0.01])
    assert run._stream_problems([ok, ok]) == []
    assert len(run._stream_problems([ok, bad])) == 1


# -- spans ----------------------------------------------------------------------------


def test_self_time_subtracts_covered_children():
    spans = [
        (1, "parent", 0.0, 10.0, None, 1),
        (2, "a", 1.0, 4.0, 1, 1),
        (3, "b", 3.0, 6.0, 1, 1),  # overlaps a: covered once, not twice
        (4, "c", 9.0, 12.0, 1, 1),  # runs past the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_and_shares_request_ids():
    rec = SpanRecorder()
    with rec.span("outer", new_request=True):
        with rec.span("inner"):
            pass
    with rec.span("other"):
        pass
    (inner_id, _, _, _, inner_parent, inner_req), (outer_id, *_, outer_req), other = rec.spans
    assert inner_parent == outer_id and inner_req == outer_req == outer_id
    assert other[4] is None and other[5] != outer_req


def test_wrap_restores_originals():
    class Thing:
        def f(self, x):
            return x + 1

    rec = SpanRecorder()
    orig = Thing.f
    rec.wrap(Thing, "f", "thing.f")
    assert Thing().f(1) == 2 and rec.spans[0][1] == "thing.f"
    rec.unwrap_all()
    assert Thing.f is orig


# -- BENCHMARK.json matches what the harness prints -------------------------------------


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
