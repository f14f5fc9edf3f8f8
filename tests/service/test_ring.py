"""Consistent-hash routing: the ring itself and the service redirects."""

import json
import socket
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.ring import HashRing
from repro.service.server import make_server
from repro.trace import write_trace

NODES = ["http://a:1", "http://b:2", "http://c:3"]


class TestHashRing:
    def test_deterministic(self):
        a = HashRing(NODES)
        b = HashRing(list(reversed(NODES)))  # order must not matter
        for i in range(100):
            assert a.owner(f"key-{i}") == b.owner(f"key-{i}")

    def test_covers_all_nodes(self):
        ring = HashRing(NODES)
        owners = {ring.owner(f"key-{i}") for i in range(500)}
        assert owners == set(NODES)

    def test_roughly_balanced(self):
        ring = HashRing(NODES, replicas=128)
        counts = {n: 0 for n in NODES}
        for i in range(3000):
            counts[ring.owner(f"key-{i}")] += 1
        for node, count in counts.items():
            assert 300 < count < 2000, (node, counts)

    def test_resize_moves_minority_of_keys(self):
        """The whole point of consistent hashing: adding one node moves
        ~1/N of the keyspace, not all of it."""
        small = HashRing(NODES)
        grown = HashRing([*NODES, "http://d:4"])
        keys = [f"key-{i}" for i in range(2000)]
        moved = sum(small.owner(k) != grown.owner(k) for k in keys)
        assert moved < len(keys) * 0.5  # naive mod-N hashing moves ~75%
        # ...and every key that moved, moved *to* the new node.
        for k in keys:
            if small.owner(k) != grown.owner(k):
                assert grown.owner(k) == "http://d:4"

    def test_preference_starts_with_owner(self):
        ring = HashRing(NODES)
        for i in range(50):
            pref = ring.preference(f"key-{i}", n=2)
            assert pref[0] == ring.owner(f"key-{i}")
            assert len(pref) == len(set(pref)) == 2

    def test_single_node_owns_everything(self):
        ring = HashRing(["http://solo:1"])
        assert ring.owner("anything") == "http://solo:1"

    def test_empty_rejected(self):
        with pytest.raises(ServiceError):
            HashRing([])

    def test_contains_len_dict(self):
        ring = HashRing(NODES, replicas=16)
        assert "http://a:1" in ring
        assert len(ring) == 3
        assert ring.to_dict() == {"nodes": sorted(NODES), "replicas": 16}


# ---------------------------------------------------------------------------
# Service-level routing (in-process, two APIs sharing one directory).
# ---------------------------------------------------------------------------


@pytest.fixture
def two_nodes(tmp_path):
    """Two ServiceAPI instances in one ring over one shared directory."""
    urls = ["http://node-a", "http://node-b"]
    apis = []
    for i, url in enumerate(urls):
        apis.append(
            ServiceAPI(
                tmp_path / f"node{i}",
                workers=0,
                shared_dir=tmp_path / "shared",
                self_url=url,
                peers=[u for u in urls if u != url],
            )
        )
    yield dict(zip(urls, apis))
    for api in apis:
        api.close()


def _upload(api, trace, tmp_path):
    data = write_trace(trace, tmp_path / "up.clt").read_bytes()
    status, entry = api.handle("POST", "/traces", data)
    assert status == 201
    return entry["digest"]


class TestServiceRouting:
    def test_ring_route(self, two_nodes):
        api = two_nodes["http://node-a"]
        status, out = api.handle("GET", "/ring")
        assert status == 200
        assert out["routing"] is True
        assert out["self"] == "http://node-a"
        assert out["nodes"] == sorted(two_nodes)

    def test_non_owner_redirects_owner_runs(self, two_nodes, micro_trace, tmp_path):
        digest = _upload(two_nodes["http://node-a"], micro_trace, tmp_path)
        body = json.dumps({"kind": "analyze", "trace": digest}).encode()
        results = {url: api.handle("POST", "/jobs", body) for url, api in two_nodes.items()}
        statuses = sorted(status for status, _ in results.values())
        assert statuses == [202, 307]
        for url, (status, payload) in results.items():
            if status == 307:
                assert payload["node"] in two_nodes and payload["node"] != url
                assert payload["redirect"] == f"{payload['node']}/jobs"
            else:
                assert payload["state"] in ("queued", "done")

    def test_owner_consistent_between_nodes(self, two_nodes, micro_trace, tmp_path):
        """Both nodes agree on who owns a given job key."""
        digest = _upload(two_nodes["http://node-a"], micro_trace, tmp_path)
        body = json.dumps({"kind": "analyze", "trace": digest}).encode()
        owners = set()
        for url, api in two_nodes.items():
            status, payload = api.handle("POST", "/jobs", body)
            owners.add(payload["node"] if status == 307 else url)
        assert len(owners) == 1

    def test_shared_store_serves_either_node(self, two_nodes, micro_trace, tmp_path):
        """Content addressing + shared directory: a trace uploaded to one
        node is resolvable on the other."""
        digest = _upload(two_nodes["http://node-a"], micro_trace, tmp_path)
        # node-b's index predates the upload; it adopts the sidecar lazily.
        status, entry = two_nodes["http://node-b"].handle("GET", f"/traces/{digest}")
        assert status == 200
        assert entry["digest"] == digest
        [path] = two_nodes["http://node-b"].store.resolve([digest])
        assert Path(path).stat().st_size > 0

    def test_selftest_and_fleet_jobs_never_redirect(self, two_nodes):
        for api in two_nodes.values():
            status, _ = api.handle(
                "POST", "/jobs", json.dumps({"kind": "selftest"}).encode()
            )
            assert status == 202
            status, _ = api.handle(
                "POST", "/jobs", json.dumps({"kind": "fleet_summary"}).encode()
            )
            assert status == 202

    def test_peers_without_self_url_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="self_url"):
            ServiceAPI(tmp_path / "x", workers=0, peers=["http://other"])

    def test_no_ring_by_default(self, tmp_path):
        with ServiceAPI(tmp_path / "solo", workers=0) as api:
            status, out = api.handle("GET", "/ring")
            assert status == 200
            assert out["routing"] is False
            body = json.dumps({"kind": "selftest"}).encode()
            status, _ = api.handle("POST", "/jobs", body)
            assert status == 202


@pytest.fixture
def two_served_nodes(tmp_path):
    """Two ring nodes over real HTTP (inline pools, one shared directory)."""
    ports = []
    for _ in range(2):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            ports.append(sock.getsockname()[1])
    urls = [f"http://127.0.0.1:{p}" for p in ports]
    servers = []
    for i, url in enumerate(urls):
        api = ServiceAPI(
            tmp_path / f"node{i}", workers=0, shared_dir=tmp_path / "shared",
            self_url=url, peers=[u for u in urls if u != url],
        )
        srv = make_server(api, "127.0.0.1", ports[i])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        servers.append((srv, thread))
    yield [srv for srv, _ in servers]
    for srv, thread in servers:
        srv.shutdown()
        srv.server_close()
        srv.api.close()
        thread.join(timeout=5)


def test_redirected_submit_pins_its_answer_and_report_fetch(
    two_served_nodes, micro_trace
):
    a, b = two_served_nodes
    client = ServiceClient(a.url)
    digest = client.upload_trace(micro_trace)
    top = next(
        k for k in range(1, 64)
        if a.api.ring.owner(JobSpec("analyze", (digest,), {"top": k}).cache_key())
        == b.url
    )

    def requests():
        return a.api.metrics.requests, b.api.metrics.requests

    before = requests()
    job_id = client.submit("analyze", digest, {"top": top})  # 307 a -> b
    assert requests() == (before[0] + 1, before[1] + 1)
    result = client.wait(job_id, timeout=30)  # the submit's answer
    assert result["critical_locks"]
    assert requests() == (before[0] + 1, before[1] + 1)
    # Another thread holds no answer for the job: it fetches the report,
    # from the node the job was pinned to.
    fetched = {}
    thread = threading.Thread(
        target=lambda: fetched.update(result=client.wait(job_id, timeout=30))
    )
    thread.start()
    thread.join(timeout=30)
    assert fetched["result"] == result
    assert requests() == (before[0] + 1, before[1] + 2)
    client.close()


def test_job_pins_stay_bounded(two_served_nodes, micro_trace):
    a, b = two_served_nodes
    client = ServiceClient(a.url)
    client.MAX_PINNED_JOBS = 2
    digest = client.upload_trace(micro_trace)
    top = next(
        k for k in range(1, 64)
        if a.api.ring.owner(JobSpec("analyze", (digest,), {"top": k}).cache_key())
        == b.url
    )
    jobs = []
    for _ in range(5):
        jobs.append(client.submit("analyze", digest, {"top": top}))  # 307 a -> b
        assert client.wait(jobs[-1], timeout=30)["critical_locks"]
    # Only the newest pins survive, and they still reach node b.
    assert list(client._job_nodes) == jobs[-2:]  # noqa: SLF001
    assert client.job(jobs[-1])["state"] == "done"
    client.close()


def test_job_pins_bounded_under_concurrent_submits():
    client = ServiceClient("http://127.0.0.1:9")
    client.MAX_PINNED_JOBS = 8
    errors = []

    def pin_many(worker):
        try:
            for i in range(2000):
                client._pin_job(f"{worker}-{i}", "http://b")  # noqa: SLF001
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_many, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(client._job_nodes) == 8  # noqa: SLF001
