"""Dashboard smoke test: a live server, real HTTP, and one SSE event.

Standalone script (CI runs it directly)::

    PYTHONPATH=src python benchmarks/smoke_dashboard.py

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, uploads a micro-benchmark trace, then validates the fleet
observability surface end to end:

* ``GET /dashboard`` returns the self-contained HTML page (curl when
  available, urllib otherwise — the same check CI's shell would make);
* ``GET /fleet/summary`` reports the uploaded trace's cluster(s);
* ``GET /fleet/events`` (SSE) emits at least one ``fleet`` event;
* ``GET /fleet/alerts`` evaluates the example rule spec.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RULES = REPO / "docs" / "examples" / "fleet-alerts.toml"


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(url: str, timeout: float = 10.0) -> str:
    """GET via the curl binary when present (as CI would), else urllib."""
    curl = shutil.which("curl")
    if curl:
        out = subprocess.run(
            [curl, "-sSf", "--max-time", str(int(timeout)), url],
            capture_output=True, timeout=timeout + 5,
        )
        if out.returncode != 0:
            raise RuntimeError(f"curl {url} failed: {out.stderr.decode()!r}")
        return out.stdout.decode("utf-8")
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def wait_healthy(base: str, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            if json.loads(http_get(f"{base}/healthz", timeout=2.0)).get("ok"):
                return
        except Exception:
            time.sleep(0.2)
    raise RuntimeError(f"service at {base} never became healthy")


def read_sse_event(base: str, min_version: int, timeout: float = 20.0) -> dict:
    """Read SSE events off /fleet/events until one of ``min_version`` or later.

    The first event is the state at connect time, which may predate the
    background ingest of an upload; the ingest's commit pushes the next.
    """
    req = urllib.request.Request(f"{base}/fleet/events")
    data_lines: list[str] = []
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        assert resp.headers.get("Content-Type", "").startswith("text/event-stream")
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("data:"):
                data_lines.append(line[5:].lstrip())
            elif not line and data_lines:
                event = json.loads("\n".join(data_lines))
                if event.get("version", 0) >= min_version:
                    return event
                data_lines = []
    raise RuntimeError(f"SSE stream closed before a version-{min_version} event")


def main() -> int:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    tmp = Path(tempfile.mkdtemp(prefix="smoke-dashboard-"))
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--data-dir", str(tmp / "svc"),
            "--workers", "0",
            "--rules", str(RULES),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=str(REPO),
    )
    try:
        wait_healthy(base)

        # Upload one trace so the dashboard has something to show.
        sys.path.insert(0, str(REPO / "src"))
        from repro.service.client import ServiceClient
        from repro.trace.writer import write_trace
        from repro.workloads import get_workload

        trace = get_workload("micro")().run(nthreads=4, seed=1).trace
        path = write_trace(trace, tmp / "micro.clt")
        client = ServiceClient(base)
        digest = client.upload_trace(path, name="micro")
        print(f"uploaded micro trace {digest[:12]} to {base}")

        event = read_sse_event(base, min_version=1)
        assert event["type"] == "fleet", event
        assert event["version"] >= 1, event
        print(f"SSE ok: fleet event v{event['version']}, "
              f"{event['summary']['traces']} trace(s)")

        html = http_get(f"{base}/dashboard")
        assert html.startswith("<!DOCTYPE html>"), html[:80]
        assert "Critical-lock fleet dashboard" in html
        assert "micro" in html and "EventSource" in html
        print(f"dashboard ok: {len(html)} bytes of self-contained HTML")

        summary = json.loads(http_get(f"{base}/fleet/summary"))
        assert summary["traces"] >= 1, summary
        assert summary["top"], summary
        print(f"fleet summary ok: {summary['clusters']} cluster(s), "
              f"top site {summary['top'][0]['site']}")

        alerts = json.loads(http_get(f"{base}/fleet/alerts"))
        assert alerts["rules"] >= 1, alerts
        print(f"alerts ok: {alerts['rules']} rule(s) evaluated, "
              f"{len(alerts['alerts'])} firing")

        print("\nok: dashboard, fleet summary, alerts and SSE all live")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
