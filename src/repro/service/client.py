"""HTTP client for the analysis service (standard library only).

Used by the end-to-end tests, ``examples/service_client.py`` and any
script that wants remote analysis with local-call ergonomics::

    client = ServiceClient("http://127.0.0.1:8323")
    digest = client.upload_trace("rad.clt")
    report = client.analyze(digest)
    print(report["critical_locks"][0])
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.request
import weakref
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.trace.framing import encode_records_frame, split_records
from repro.trace.trace import Trace
from repro.trace.writer import header_dict, write_trace

__all__ = ["ServiceClient"]

_TERMINAL = ("done", "failed")

#: How a kept-alive connection fails when the server closed it before
#: this request (idle timeout, restart): nothing of a response arrived,
#: so sending the request again on a fresh connection is safe.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class ServiceClient:
    """Thin JSON-over-HTTP wrapper around the service endpoints.

    Ring-aware: when a node answers a job submission with a 307 (another
    node owns that cache key), the client re-issues the request to the
    owning node and pins the returned job id there, so subsequent
    ``job()``/``report()``/``wait()`` requests hit the node that actually
    runs the job.

    One request per answer: a submit whose answer already holds the
    finished job (a cache hit) keeps that answer for :meth:`wait`, and a
    pending job's result comes back in the held report request that
    first sees it finished.

    Connections persist: each thread keeps one HTTP/1.1 connection per
    node and sends all of its requests over it, so one client can be
    shared by several threads.  :meth:`close` drops them all.  Only the
    ``/fleet/events`` stream, which holds its connection open, gets a
    connection of its own.
    """

    #: Redirect hops tolerated before declaring the ring misconfigured.
    MAX_REDIRECTS = 4
    #: How many ring-redirected jobs keep their owning node pinned (the newest).
    MAX_PINNED_JOBS = 1024

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._job_nodes: dict[str, str] = {}  # job id -> owning node URL
        self._job_nodes_lock = threading.Lock()
        # Per thread: .conns, (scheme, netloc) -> connection; .served_by;
        # .finished, the latest submit answered with a finished job.
        self._local = threading.local()
        self._conns: weakref.WeakSet = weakref.WeakSet()  # every thread's, for close()
        self._conns_lock = threading.Lock()

    # -- transport ----------------------------------------------------------

    @property
    def _served_by(self) -> str:
        """The node that answered this thread's last request."""
        return getattr(self._local, "served_by", self.base_url)

    def _connection(self, scheme: str, netloc: str) -> http.client.HTTPConnection:
        """This thread's persistent connection to one node."""
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        conn = conns.get((scheme, netloc))
        if conn is None:
            cls = (
                http.client.HTTPSConnection if scheme == "https"
                else http.client.HTTPConnection
            )
            conn = conns[(scheme, netloc)] = cls(netloc, timeout=self.timeout)
            with self._conns_lock:
                self._conns.add(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connections.

        The client stays usable: the next request opens a new connection.
        """
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def _exchange(
        self, method: str, url: str, body: bytes | None = None,
        headers: dict[str, str] | None = None, timeout: float | None = None,
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request/response over this thread's connection to ``url``'s node.

        A reused connection the server has already closed (idle timeout,
        restart) fails before any response byte arrives; only then is the
        request sent once more, on a fresh connection.
        """
        parts = urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conn = self._connection(parts.scheme, parts.netloc)
        conn.timeout = timeout or self.timeout
        while True:
            reused = conn.sock is not None
            if reused:
                conn.sock.settimeout(conn.timeout)
            try:
                conn.request(method, target, body=body, headers=headers or {})
                resp = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and isinstance(exc, _STALE_CONNECTION):
                    continue
                raise ServiceError(
                    f"cannot reach service at {url}: {exc}", status=503
                ) from exc
            try:
                return resp, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise ServiceError(
                    f"{method} {url}: connection lost mid-response: {exc}", status=503
                ) from exc

    def _call(
        self, method: str, path: str, body: bytes | None = None,
        content_type: str = "application/json", base: str | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One request, following ring redirects: ``(status, JSON body)``."""
        url = f"{base or self.base_url}{path}"
        headers = {"Content-Type": content_type} if body is not None else {}
        for _hop in range(self.MAX_REDIRECTS + 1):
            resp, raw = self._exchange(method, url, body, headers, timeout)
            if 200 <= resp.status < 300:
                self._local.served_by = url[: -len(path)] if path else url
                return resp.status, json.loads(raw.decode("utf-8"))
            try:
                detail = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                detail = None
            if not isinstance(detail, dict):
                detail = {"error": resp.reason}
            if resp.status in (307, 308):
                target = detail.get("redirect") or resp.getheader("Location")
                if target:
                    url = target
                    continue
            return resp.status, detail
        raise ServiceError(
            f"{method} {path}: redirect loop after {self.MAX_REDIRECTS} hops",
            status=508,
        )

    def _request(
        self, method: str, path: str, body: bytes | None = None,
        content_type: str = "application/json", base: str | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        status, payload = self._call(method, path, body, content_type, base, timeout)
        if not 200 <= status < 300:
            raise _http_error(method, path, status, payload)
        return payload

    def _get(self, path: str) -> dict[str, Any]:
        return self._request("GET", path)

    def _post_json(self, path: str, payload: dict) -> dict[str, Any]:
        return self._request("POST", path, json.dumps(payload).encode("utf-8"))

    def _job_base(self, job_id: str) -> str | None:
        return self._job_nodes.get(job_id)

    def _pin_job(self, job_id: str, node: str) -> None:
        # Any thread may fetch a job's answer again at any time, so no call
        # ends a pin: the oldest are dropped past the bound.
        with self._job_nodes_lock:
            self._job_nodes[job_id] = node
            while len(self._job_nodes) > self.MAX_PINNED_JOBS:
                del self._job_nodes[next(iter(self._job_nodes))]

    # -- traces -------------------------------------------------------------

    def upload_trace(self, trace: Trace | str | Path, name: str | None = None) -> str:
        """Upload a trace (object or file path); returns its content digest."""
        if isinstance(trace, Trace):
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "upload.clt"
                write_trace(trace, path)
                data = path.read_bytes()
        else:
            data = Path(trace).read_bytes()
            if name is None:
                name = Path(trace).stem
        suffix = f"?name={name}" if name else ""
        entry = self._request(
            "POST", f"/traces{suffix}", data, content_type="application/octet-stream"
        )
        return entry["digest"]

    def traces(self) -> list[dict[str, Any]]:
        return self._get("/traces")["traces"]

    def trace(self, digest: str) -> dict[str, Any]:
        """Index entry for one stored trace (404 if unknown)."""
        return self._get(f"/traces/{digest}")

    # -- jobs ---------------------------------------------------------------

    def submit(
        self, kind: str, traces: list[str] | str, params: dict | None = None
    ) -> str:
        """Submit a job over already-uploaded digests; returns the job id."""
        if isinstance(traces, str):
            traces = [traces]
        job = self._post_json(
            "/jobs", {"kind": kind, "traces": traces, "params": params or {}}
        )
        if self._served_by != self.base_url:
            # A ring redirect landed this job on another node; pin every
            # follow-up (status polls, the report fetch) to that node.
            self._pin_job(job["id"], self._served_by)
        if job["state"] in _TERMINAL:
            # The answer already holds the outcome; wait() takes it from
            # here.  One per thread, so jobs never waited on cannot pile up.
            self._local.finished = job
        return job["id"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}", base=self._job_base(job_id))

    def report(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/reports/{job_id}", base=self._job_base(job_id))

    def wait(self, job_id: str, timeout: float = 120.0, poll: float = 0.05) -> dict:
        """Wait until the job finishes; returns the result dict.

        If this thread's latest finished submit was this job, its answer
        already holds the outcome and no request is sent.  Otherwise each
        report request asks the server to hold it until the job finishes
        or ``poll`` seconds pass (``GET /reports/<id>?wait=poll``), so the
        result arrives in the response that first sees the job finished
        and the client never sleeps; ``poll`` only sets how often it
        checks ``timeout``.  A failed job raises
        ``ServiceError("job <id> failed: <error>")``.
        """
        finished = getattr(self._local, "finished", None)
        if finished is not None and finished["id"] == job_id:
            self._local.finished = None
            if finished["state"] == "failed":
                raise _job_failed(job_id, finished["error"])
            return finished["result"]
        deadline = time.monotonic() + timeout
        base = self._job_base(job_id)
        path = f"/reports/{job_id}"
        while True:
            hold = max(0.0, min(poll, deadline - time.monotonic()))
            status, body = self._call(
                "GET", f"{path}?wait={hold:g}", base=base,
                timeout=self.timeout + hold,
            )
            if status == 200:
                return body["result"]
            if status == 500 and body.get("state") == "failed":
                raise _job_failed(job_id, body["error"])
            if status != 409:
                raise _http_error("GET", path, status, body)
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id}", status=504)

    # -- streaming ingestion -------------------------------------------------

    def open_stream(
        self, name: str = "", meta: dict | None = None,
        max_pending: int | None = None,
    ) -> str:
        """Open a chunked-append session; returns the session id."""
        payload: dict[str, Any] = {"name": name, "meta": meta or {}}
        if max_pending is not None:
            payload["max_pending"] = max_pending
        return self._post_json("/streams", payload)["id"]

    def send_chunk(
        self, sid: str, chunk_id: int, records, *,
        retries: int = 8, backoff: float = 0.05,
    ) -> dict[str, Any]:
        """Post one framed record block, retrying through 429 backpressure.

        Retries are safe: the service treats an already-applied chunk id
        as an idempotent duplicate, so a retry after an ambiguous failure
        cannot double-ingest.
        """
        body = encode_records_frame(records, chunk_id)
        delay = backoff
        for attempt in range(retries + 1):
            try:
                return self._request(
                    "POST", f"/traces/{sid}/chunks", body,
                    content_type="application/octet-stream",
                )
            except ServiceError as exc:
                if exc.status != 429 or attempt == retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
        raise AssertionError("unreachable")

    def finalize_stream(
        self, sid: str, header: dict | None = None, *,
        analyze: bool = False, name: str | None = None,
        params: dict | None = None, timeout: float | None = None,
    ) -> dict[str, Any]:
        """Finalize a session into a stored trace (optionally analyzed)."""
        payload: dict[str, Any] = {"header": header or {}, "analyze": analyze}
        if name:
            payload["name"] = name
        if params:
            payload["params"] = params
        if timeout is not None:
            payload["timeout"] = timeout
        return self._post_json(f"/traces/{sid}/finalize", payload)

    def stream_status(self, sid: str) -> dict[str, Any]:
        return self._get(f"/streams/{sid}")

    def resume_stream(self, sid: str) -> int:
        """Where to resume a (possibly restarted) session: the next chunk
        id the server expects.  After a server restart this is the first
        chunk *after* the last durably checkpointed one — re-send from
        here; anything the server already has is an idempotent duplicate.
        """
        return int(self.stream_status(sid)["chunks"])

    def stream_snapshot(
        self, sid: str, top: int | None = None, render: bool = False
    ) -> dict[str, Any]:
        query = []
        if top is not None:
            query.append(f"top={top}")
        if render:
            query.append("render=1")
        suffix = f"?{'&'.join(query)}" if query else ""
        return self._get(f"/streams/{sid}/snapshot{suffix}")

    def streams(self) -> list[dict[str, Any]]:
        return self._get("/streams")["streams"]

    def stream_trace(
        self, trace: Trace, chunk_events: int = 65536, *,
        name: str | None = None, analyze: bool = False,
        params: dict | None = None,
    ) -> dict[str, Any]:
        """Ship a whole trace chunk-by-chunk and finalize; returns the
        finalize payload (``["trace"]["digest"]`` matches a whole-file
        upload of the same trace)."""
        sid = self.open_stream(name=name or "")
        for chunk_id, block in enumerate(split_records(trace.records, chunk_events)):
            self.send_chunk(sid, chunk_id, block)
        return self.finalize_stream(
            sid, header=header_dict(trace), analyze=analyze,
            name=name, params=params,
        )

    # -- one-call conveniences ----------------------------------------------

    def analyze(self, digest: str, **params) -> dict[str, Any]:
        return self.wait(self.submit("analyze", digest, params))

    def sampled_analyze(self, digest: str, **params) -> dict[str, Any]:
        """Statistical estimate from a sampled trace (``repro.core.estimate``);
        pass ``rate=`` to downsample a full trace server-side first."""
        return self.wait(self.submit("sampled_analyze", digest, params))

    def whatif(self, digest: str, lock: str, factor: float = 0.0, **params) -> dict:
        params = {"lock": lock, "factor": factor, **params}
        return self.wait(self.submit("whatif", digest, params))

    def whatif_protocol(self, digest: str, protocol: str = "fifo", **params) -> dict:
        """Ground-truth policy forecast: replay under another lock protocol
        (see ``repro.core.replay_whatif``)."""
        params = {"protocol": protocol, **params}
        return self.wait(self.submit("whatif_protocol", digest, params))

    def compare(self, before: str, after: str, **params) -> dict[str, Any]:
        return self.wait(self.submit("compare", [before, after], params))

    def forecast(self, digest: str, **params) -> dict[str, Any]:
        return self.wait(self.submit("forecast", digest, params))

    # -- fleet observability -------------------------------------------------

    def fleet_summary(self, top: int | None = None) -> dict[str, Any]:
        """Cross-trace cluster summary (see ``repro.fleet``)."""
        suffix = f"?top={top}" if top is not None else ""
        return self._get(f"/fleet/summary{suffix}")

    def fleet_regressions(
        self,
        topk: int | None = None,
        noise_floor: float | None = None,
        sigma: float | None = None,
    ) -> dict[str, Any]:
        """Ranking-regression flags per workload series."""
        query = []
        if topk is not None:
            query.append(f"topk={topk}")
        if noise_floor is not None:
            query.append(f"noise_floor={noise_floor}")
        if sigma is not None:
            query.append(f"sigma={sigma}")
        suffix = f"?{'&'.join(query)}" if query else ""
        return self._get(f"/fleet/regressions{suffix}")

    def fleet_alerts(self) -> dict[str, Any]:
        """Evaluate the service's loaded alert rules right now."""
        return self._get("/fleet/alerts")

    def fleet_ingest(self) -> dict[str, Any]:
        """Catch fleet state up with every already-stored trace."""
        return self._request("POST", "/fleet/ingest", b"")

    def dashboard_html(self) -> str:
        """The live dashboard page as HTML text."""
        resp, raw = self._exchange("GET", f"{self.base_url}/dashboard")
        if resp.status != 200:
            raise ServiceError(
                f"GET /dashboard -> HTTP {resp.status}", status=resp.status
            )
        return raw.decode("utf-8")

    def fleet_events(
        self, max_events: int = 1, timeout: float = 30.0
    ) -> list[dict[str, Any]]:
        """Read fleet events from the ``/fleet/events`` SSE stream.

        Blocks until ``max_events`` events arrived (the first one — the
        current state — is sent immediately on connect), then closes the
        stream.  ``timeout`` bounds each socket read, and keepalive
        comments reset it, so a healthy but idle stream does not raise.
        """
        req = urllib.request.Request(f"{self.base_url}/fleet/events")
        events: list[dict[str, Any]] = []
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            data_lines: list[str] = []
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("data:"):
                    data_lines.append(line[5:].lstrip())
                elif not line and data_lines:  # blank line = event boundary
                    events.append(json.loads("\n".join(data_lines)))
                    data_lines = []
                    if len(events) >= max_events:
                        break
        return events

    # -- operational --------------------------------------------------------

    def ring(self) -> dict[str, Any]:
        """This node's view of the consistent-hash routing ring."""
        return self._get("/ring")

    def metrics(self) -> dict[str, Any]:
        return self._get("/metrics")

    def health(self) -> dict[str, Any]:
        return self._get("/healthz")


def _http_error(method: str, path: str, status: int, body: dict) -> ServiceError:
    return ServiceError(
        f"{method} {path} -> HTTP {status}: {body.get('error', '')}", status=status
    )


def _job_failed(job_id: str, error: str) -> ServiceError:
    return ServiceError(f"job {job_id} failed: {error}", status=500)
