"""End-to-end over real HTTP: server thread + worker process + client.

One module-scoped server (1 spawn worker) carries all tests; each test
uses distinct params so cache state never couples them unless the test
is *about* the cache.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.analyzer import analyze
from repro.errors import ServiceError
from repro.service import ServiceAPI, ServiceClient
from repro.service.server import make_server
from repro.trace import write_trace


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    api = ServiceAPI(tmp_path_factory.mktemp("svc"), workers=1)
    srv = make_server(api, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    api.close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


@pytest.fixture(scope="module")
def micro():
    from repro.workloads import get_workload

    return get_workload("micro")().run(nthreads=4, seed=1).trace


@pytest.fixture(scope="module")
def digest(client, micro, tmp_path_factory):
    path = write_trace(micro, tmp_path_factory.mktemp("up") / "micro.clt")
    return client.upload_trace(path, name="micro")


def test_health_and_version_header(client):
    assert client.health()["ok"]


def test_upload_lists_trace(client, digest):
    entries = client.traces()
    assert any(e["digest"] == digest and e["name"] == "micro" for e in entries)


def test_analyze_over_http_matches_in_process(client, micro, digest):
    """The satellite's flagship check: HTTP ranking == in-process ranking."""
    result = client.analyze(digest, top=4)
    expected = analyze(micro).report.to_dict()
    assert result["locks"] == expected["locks"]
    ranked = [lock["name"] for lock in result["critical_locks"]]
    expected_rank = sorted(
        expected["locks"], key=lambda n: expected["locks"][n]["cp_time_frac"],
        reverse=True,
    )
    assert ranked == expected_rank[:4]


def test_cache_hit_over_http(client, digest):
    before = client.metrics()["cache"]["hits"]
    client.analyze(digest, top=7)   # cold
    again = client.submit("analyze", digest, {"top": 7})  # warm
    job = client.job(again)
    assert job["cached"] and job["state"] == "done"
    assert client.metrics()["cache"]["hits"] == before + 1


def test_whatif_and_forecast_kinds(client, digest):
    whatif = client.whatif(digest, "L2", factor=0.6)
    assert whatif["predicted_speedup"] == pytest.approx(1.263, abs=1e-3)
    forecast = client.forecast(digest)
    assert forecast["locks"][0]["name"] == "L2"


def test_compare_kind(client, digest):
    result = client.compare(digest, digest)
    assert result["speedup"] == pytest.approx(1.0)


def test_job_failure_surfaces_error(client, digest):
    job_id = client.submit("whatif", digest, {"lock": "NOT-A-LOCK"})
    with pytest.raises(ServiceError, match="failed"):
        client.wait(job_id, timeout=60)


def test_unknown_trace_is_client_error(client):
    with pytest.raises(ServiceError) as ei:
        client.submit("analyze", "0" * 64)
    assert ei.value.status == 404


def test_bad_kind_is_client_error(client, digest):
    with pytest.raises(ServiceError) as ei:
        client.submit("frobnicate", digest)
    assert ei.value.status == 400


def test_metrics_expose_latency_histogram(client, digest):
    client.analyze(digest, top=9)
    m = client.metrics()
    hist = m["latency"]["analyze"]
    assert hist["count"] >= 1
    assert hist["sum"] > 0
    assert m["queue"]["workers"] == 1


def test_sampled_analyze_over_http(client, micro, digest):
    result = client.sampled_analyze(digest, rate=1.0, top=3)
    exact = analyze(micro).report
    assert result["sampling"]["rate"] == 1.0
    top = result["critical_locks"][0]
    assert top["name"] == "L2"
    assert top["cp_time_frac"] == exact.lock("L2").cp_fraction
    assert top["ci_low"] <= top["cp_time_frac"] <= top["ci_high"]


# -- one request per answer -------------------------------------------------------


def _requests(client):
    """The server's request count; the /metrics request itself included."""
    return client.metrics()["requests"]


def _get(url, target):
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("GET", target)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_cache_hit_submit_and_wait_cost_one_request(client, digest):
    expected = client.analyze(digest, top=6)  # the miss fills the cache
    before = _requests(client)
    job_id = client.submit("analyze", digest, {"top": 6})
    assert client.wait(job_id, timeout=60) == expected
    assert _requests(client) - before - 1 == 1  # the submit alone


def test_miss_within_the_hold_costs_two_requests(client):
    client.wait(client.submit("selftest", [], {"echo": "warm"}), timeout=60)
    before = _requests(client)
    job_id = client.submit("selftest", [], {"echo": "one-hold"})
    assert client.wait(job_id, timeout=60, poll=30)["echo"] == "one-hold"
    assert _requests(client) - before - 1 == 2  # submit, one held report


def test_terminal_submit_answer_carries_the_result(server, client, digest):
    expected = client.analyze(digest, top=5)
    body = json.dumps({"kind": "analyze", "trace": digest, "params": {"top": 5}})
    status, job = server.api.handle("POST", "/jobs", body.encode())
    assert status == 202
    assert job["state"] == "done" and job["cached"]
    assert job["result"] == expected
    body = json.dumps({"kind": "selftest", "params": {"echo": "pending", "sleep": 0.5}})
    status, job = server.api.handle("POST", "/jobs", body.encode())
    assert job["state"] in ("queued", "running") and "result" not in job
    client.wait(job["id"], timeout=60)


def test_held_report_answers_once_the_job_is_done(server, client):
    client.wait(client.submit("selftest", [], {"echo": "warm"}), timeout=60)
    job_id = client.submit("selftest", [], {"echo": "held", "sleep": 0.2})
    t0 = time.monotonic()
    status, body = _get(server.url, f"/reports/{job_id}?wait=5")
    assert status == 200
    assert body["result"]["echo"] == "held"
    assert time.monotonic() - t0 < 2.0


def test_held_report_is_409_when_the_hold_expires(server, client):
    job_id = client.submit("selftest", [], {"echo": "expire", "sleep": 1.0})
    t0 = time.monotonic()
    status, body = _get(server.url, f"/reports/{job_id}?wait=0.05")
    elapsed = time.monotonic() - t0
    assert status == 409
    assert body["state"] in ("queued", "running")
    assert 0.04 <= elapsed < 0.9
    client.wait(job_id, timeout=60)


@pytest.mark.parametrize("value", ["abc", "-1", "nan"])
def test_held_report_bad_wait_is_400(server, client, value):
    job_id = client.submit("selftest", [], {"echo": f"bad-{value}"})
    status, body = _get(server.url, f"/reports/{job_id}?wait={value}")
    assert status == 400
    assert "wait" in body["error"]
    client.wait(job_id, timeout=60)


def test_held_report_unknown_job_is_404(server):
    status, body = _get(server.url, "/reports/nope?wait=0.1")
    assert status == 404
    assert "no such job" in body["error"]


def test_wait_on_failed_job_names_job_and_error(client, digest):
    job_id = client.submit("whatif", digest, {"lock": "NOT-A-LOCK-2"})
    with pytest.raises(ServiceError) as ei:
        client.wait(job_id, timeout=60)
    error = client.job(job_id)["error"]
    assert str(ei.value) == f"job {job_id} failed: {error}"
    assert ei.value.status == 500


def test_wait_on_failed_terminal_submit_sends_nothing(tmp_path):
    with ServiceAPI(tmp_path / "inline", workers=0) as api:
        srv = make_server(api, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            inline = ServiceClient(srv.url)
            job_id = inline.submit("selftest", [], {"fail": "boom"})
            before = _requests(inline)
            with pytest.raises(ServiceError) as ei:
                inline.wait(job_id, timeout=10)
            assert _requests(inline) - before == 1  # only the second /metrics
            assert str(ei.value) == f"job {job_id} failed: RuntimeError: boom"
            inline.close()
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)


def test_stream_trace_digest_matches_a_whole_file_upload(client, micro, digest):
    assert len(micro) > 3 * 5
    streamed = client.stream_trace(micro, chunk_events=5, name="micro-streamed")
    assert streamed["trace"]["digest"] == digest


def test_resume_stream_returns_the_chunks_sent(client, micro, digest):
    from repro.trace.framing import split_records
    from repro.trace.writer import header_dict

    blocks = list(split_records(micro.records, 5))
    sid = client.open_stream(name="micro-resumed")
    assert client.resume_stream(sid) == 0
    for chunk_id, block in enumerate(blocks[:3]):
        client.send_chunk(sid, chunk_id, block)
    resume_at = client.resume_stream(sid)
    assert resume_at == 3
    for chunk_id in range(resume_at, len(blocks)):
        client.send_chunk(sid, chunk_id, blocks[chunk_id])
    done = client.finalize_stream(sid, header=header_dict(micro))
    assert done["trace"]["digest"] == digest
