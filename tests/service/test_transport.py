"""The HTTP transport: kept-alive connections, held job waits, request
framing and how ``serve`` stops.

Servers run in-process (``make_server`` on a thread) except for the
signal tests, which start ``python -m repro serve`` as a subprocess.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ServiceError
from repro.service import ServiceAPI, ServiceClient
from repro.service import server as server_mod
from repro.service.jobs import JobSpec
from repro.service.server import make_server


def _start(data_dir, workers=0, port=0):
    api = ServiceAPI(data_dir, workers=workers)
    srv = make_server(api, "127.0.0.1", port)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _stop(srv, thread):
    srv.shutdown()
    srv.server_close()
    srv.api.close()
    thread.join(timeout=5)


@pytest.fixture
def inline_server(tmp_path):
    srv, thread = _start(tmp_path / "svc")
    yield srv
    _stop(srv, thread)


@pytest.fixture(scope="module")
def pool_server(tmp_path_factory):
    srv, thread = _start(tmp_path_factory.mktemp("svc"), workers=1)
    yield srv
    _stop(srv, thread)


def _selftest(client, echo, **params):
    return client.submit("selftest", [], {"echo": echo, **params})


# -- connection reuse ------------------------------------------------------------


class TestConnectionReuse:
    def test_job_round_trips_share_one_connection(self, pool_server):
        client = ServiceClient(pool_server.url)
        before = client.metrics()["connections"]  # opens the client's connection
        for i in range(50):
            job_id = _selftest(client, f"reuse-{i}")
            assert client.wait(job_id, timeout=60)["echo"] == f"reuse-{i}"
            assert client.report(job_id)["result"]["echo"] == f"reuse-{i}"
        opened = client.metrics()["connections"] - before + 1
        assert opened <= 2
        client.close()

    def test_metrics_count_requests_and_connections(self, inline_server):
        client = ServiceClient(inline_server.url)
        for _ in range(5):
            client.health()
        m = client.metrics()
        assert m["connections"] == 1
        assert m["requests"] == 6

    def test_close_then_reuse_reconnects(self, inline_server):
        client = ServiceClient(inline_server.url)
        client.health()
        client.close()
        assert client.health()["ok"]
        assert client.metrics()["connections"] == 2

    def test_restarted_server_reconnects_transparently(self, tmp_path):
        srv, thread = _start(tmp_path / "a")
        port = srv.server_address[1]
        client = ServiceClient(srv.url)
        assert client.health()["ok"]
        _stop(srv, thread)
        srv, thread = _start(tmp_path / "b", port=port)
        try:
            # The kept-alive connection died with the old server; the
            # request goes out again on a fresh one to the new server.
            assert client.health()["ok"]
            m = client.metrics()
            assert (m["connections"], m["requests"]) == (1, 2)
        finally:
            _stop(srv, thread)

    def test_idle_connection_closed_by_server_reconnects(
        self, inline_server, monkeypatch
    ):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.2)
        client = ServiceClient(inline_server.url)
        client.health()
        deadline = time.monotonic() + 5
        while inline_server._open and time.monotonic() < deadline:  # noqa: SLF001
            time.sleep(0.02)  # until the server times the idle connection out
        assert client.health()["ok"]
        assert client.metrics()["connections"] == 2

    def test_unreachable_is_503_without_retry(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(ServiceError) as ei:
            client.health()
        assert ei.value.status == 503

    def test_one_client_shared_by_four_threads(self, pool_server):
        client = ServiceClient(pool_server.url)
        before = client.metrics()["connections"]
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def work(n):
            try:
                out = []
                for i in range(10):
                    job_id = _selftest(client, f"shared-{n}-{i}")
                    out.append(client.wait(job_id, timeout=60)["echo"])
                results[n] = out
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        for n in range(4):
            assert results[n] == [f"shared-{n}-{i}" for i in range(10)]
        # One connection per thread, plus the main thread's.
        assert client.metrics()["connections"] - before + 1 <= 5
        client.close()


    def test_ring_redirect_pins_jobs_over_kept_alive_connections(
        self, tmp_path, micro_trace
    ):
        ports = []
        for _ in range(2):
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                ports.append(sock.getsockname()[1])
        urls = [f"http://127.0.0.1:{p}" for p in ports]
        nodes = []
        for i, url in enumerate(urls):
            api = ServiceAPI(
                tmp_path / f"node{i}", workers=0, shared_dir=tmp_path / "shared",
                self_url=url, peers=[u for u in urls if u != url],
            )
            srv = make_server(api, "127.0.0.1", ports[i])
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            nodes.append((srv, thread))
        try:
            client = ServiceClient(urls[0])
            digest = client.upload_trace(micro_trace)
            ring = nodes[0][0].api.ring
            top = next(
                k for k in range(1, 64)
                if ring.owner(JobSpec("analyze", (digest,), {"top": k}).cache_key())
                == urls[1]
            )
            for _ in range(3):
                job_id = client.submit("analyze", digest, {"top": top})
                assert client._served_by == urls[1]  # noqa: SLF001
                assert client.wait(job_id, timeout=60)["critical_locks"]
                assert client.job(job_id)["id"] == job_id  # pinned to node b
            a, b = (srv.api.metrics.to_dict() for srv, _ in nodes)
            assert a["jobs"]["redirected"] == {"analyze": 3}
            assert b["jobs"]["submitted"] == {"analyze": 3}
            assert (a["connections"], b["connections"]) == (1, 1)
            client.close()
        finally:
            for srv, thread in nodes:
                _stop(srv, thread)


# -- server-side job wait ----------------------------------------------------------


def _get(url, target, timeout=10.0):
    parts = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(parts[0], int(parts[1]), timeout=timeout)
    try:
        conn.request("GET", target)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestJobWait:
    def test_wait_returns_as_soon_as_job_finishes(self, pool_server):
        client = ServiceClient(pool_server.url)
        client.wait(_selftest(client, "warm"), timeout=60)  # worker is up
        job_id = _selftest(client, "wait-soon", sleep=0.1)
        t0 = time.monotonic()
        status, job = _get(pool_server.url, f"/jobs/{job_id}?wait=5")
        elapsed = time.monotonic() - t0
        assert status == 200
        assert job["state"] == "done"
        assert elapsed < 1.0

    def test_short_wait_on_pending_job_returns_its_state(self, pool_server):
        client = ServiceClient(pool_server.url)
        job_id = _selftest(client, "wait-pending", sleep=1.0)
        t0 = time.monotonic()
        status, job = _get(pool_server.url, f"/jobs/{job_id}?wait=0.05")
        elapsed = time.monotonic() - t0
        assert status == 200
        assert job["state"] in ("queued", "running")
        assert 0.04 <= elapsed < 0.9
        client.wait(job_id, timeout=60)

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_bad_wait_is_400(self, inline_server, value):
        client = ServiceClient(inline_server.url)
        job_id = _selftest(client, "bad-wait")
        status, body = _get(inline_server.url, f"/jobs/{job_id}?wait={value}")
        assert status == 400
        assert "wait" in body["error"]

    def test_unknown_job_is_404(self, inline_server):
        status, body = _get(inline_server.url, "/jobs/nope?wait=0.1")
        assert status == 404
        assert "no such job" in body["error"]

    def test_client_wait_keeps_timeout(self, pool_server):
        client = ServiceClient(pool_server.url)
        job_id = _selftest(client, "client-timeout", sleep=1.0)
        t0 = time.monotonic()
        with pytest.raises(ServiceError) as ei:
            client.wait(job_id, timeout=0.2, poll=5.0)
        assert ei.value.status == 504
        assert time.monotonic() - t0 < 0.9
        client.wait(job_id, timeout=60)


# -- request framing ---------------------------------------------------------------


_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _raw_exchange(url, head: bytes, body: bytes, hang_up: bool = False) -> bytes:
    """Send one raw request; everything the server sends until it closes."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(head + body)
        if hang_up:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except TimeoutError:
            pytest.fail(f"server kept the connection open after {b''.join(chunks)!r}")
    return b"".join(chunks)


class TestFraming:
    @pytest.mark.parametrize(
        "header, status",
        [
            (f"Content-Length: {(64 << 20) + 1}", b"413"),
            ("Content-Length: abc", b"400"),
            ("Content-Length: -5", b"400"),
            ("Content-Length: 5\r\nContent-Length: 7", b"400"),
            ("Transfer-Encoding: chunked", b"411"),
        ],
    )
    def test_unframed_body_is_never_read_as_a_request(
        self, inline_server, header, status
    ):
        head = f"POST /traces HTTP/1.1\r\nHost: x\r\n{header}\r\n\r\n".encode()
        out = _raw_exchange(inline_server.url, head, _SMUGGLED)
        assert out.startswith(b"HTTP/1.1 " + status)
        assert b"Connection: close" in out
        assert out.count(b"HTTP/1.1 ") == 1  # the smuggled GET got no answer
        assert b'"ok": true' not in out

    def test_body_cut_short_is_not_handled(self, inline_server):
        head = b"POST /traces HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
        out = _raw_exchange(inline_server.url, head, b"x" * 10, hang_up=True)
        assert out == b""
        assert ServiceClient(inline_server.url).traces() == []

    def test_framed_requests_pipeline_on_one_connection(self, inline_server):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        last = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        out = _raw_exchange(inline_server.url, head * 2, last)
        assert out.count(b"HTTP/1.1 200") == 3


# -- stopping serve ----------------------------------------------------------------


def _children(pid: int) -> set[int]:
    out: set[int] = set()
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        out.update(int(p) for p in task.read_text().split())
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_serve_stops_cleanly_on_signal(tmp_path, signum):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--data-dir", str(tmp_path / "svc"), "--workers", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_ignore_sigint,  # as a background job inherits it
    )
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10)
        deadline = time.monotonic() + 60
        while True:
            try:
                client.health()
                break
            except ServiceError:
                assert proc.poll() is None, "serve exited before it was ready"
                assert time.monotonic() < deadline, "serve never answered"
                time.sleep(0.05)
        worker = client.wait(_selftest(client, "signal"), timeout=60)["pid"]
        children = _children(proc.pid)
        assert worker in children
        client.close()
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
