"""Two-instance routing smoke test: real HTTP, one shared directory.

Standalone script (CI runs it directly)::

    PYTHONPATH=src python benchmarks/smoke_routing.py

Boots TWO ``python -m repro serve`` subprocesses on ephemeral ports,
both keeping traces and results in one ``--shared-dir``, each
configured with the other as a ring peer.  Then, end to end:

* ``GET /ring`` on both nodes reports the same two-node ring;
* a trace uploaded to node A resolves on node B (shared directory);
* jobs submitted through a :class:`ServiceClient` pointed at EITHER
  node land on the ring owner — the client follows the 307 redirect —
  and both entry points return the same report;
* the non-owner's metrics show the redirect happened.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service.client import ServiceClient  # noqa: E402
from repro.trace.writer import write_trace  # noqa: E402
from repro.workloads import SyntheticLocks  # noqa: E402


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_healthy(base: str, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=2.0) as resp:
                if json.loads(resp.read()).get("ok"):
                    return
        except Exception:
            time.sleep(0.2)
    raise RuntimeError(f"service at {base} never became healthy")


def spawn(port: int, peer_port: int, data_dir: Path, shared: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--data-dir", str(data_dir),
            "--workers", "1",
            "--shared-dir", str(shared),
            "--self-url", f"http://127.0.0.1:{port}",
            "--peers", f"http://127.0.0.1:{peer_port}",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="smoke_routing_") as tmp:
        tmp_path = Path(tmp)
        shared = tmp_path / "shared"
        trace = SyntheticLocks(nlocks=4, ops_per_thread=200).run(
            nthreads=4, seed=7
        ).trace
        clt = write_trace(trace, tmp_path / "smoke.clt")

        ports = [free_port(), free_port()]
        urls = [f"http://127.0.0.1:{p}" for p in ports]
        procs = [
            spawn(ports[0], ports[1], tmp_path / "node-a", shared),
            spawn(ports[1], ports[0], tmp_path / "node-b", shared),
        ]
        try:
            for url in urls:
                wait_healthy(url)
            clients = [ServiceClient(url) for url in urls]

            rings = [c.ring() for c in clients]
            assert all(r["routing"] for r in rings), rings
            assert rings[0]["nodes"] == rings[1]["nodes"] == sorted(urls), rings
            print(f"ring: both nodes agree on {rings[0]['nodes']}")

            digest = clients[0].upload_trace(clt)
            other = clients[1].trace(digest)
            assert other["digest"] == digest, other
            print(f"store: trace {digest[:12]}... visible from both nodes")

            reports = []
            for client, url in zip(clients, urls):
                job_id = client.submit("analyze", digest, {"top": 5})
                reports.append(client.wait(job_id, timeout=120))
                served = client._served_by  # noqa: SLF001 — our own smoke test
                print(f"job via {url}: done (served by {served})")
            assert reports[0] == reports[1], "entry points disagree on the report"

            redirects = sum(
                sum(c.metrics()["jobs"]["redirected"].values()) for c in clients
            )
            assert redirects >= 1, "no redirect was ever issued"
            print(f"routing: {redirects} redirect(s) followed transparently")
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    print("ok: two instances share one directory; the client follows the ring")
    return 0


if __name__ == "__main__":
    sys.exit(main())
