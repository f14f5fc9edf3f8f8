"""Stdlib HTTP/JSON transport over :class:`~repro.service.api.ServiceAPI`.

A :class:`ThreadingHTTPServer` keeps request handling off the worker
pool entirely: handler threads only parse/serialize JSON and touch
thread-safe service state, while the CPU-heavy analysis runs in worker
*processes*.  One service instance therefore overlaps network I/O,
bookkeeping and N analyses at once.

Two routes bypass the JSON bridge: ``GET /dashboard`` returns the live
HTML fleet dashboard, and ``GET /fleet/events`` holds the connection
open as a Server-Sent-Events stream — an immediate snapshot event,
then one event per fleet-state change, with comment keepalives in
between.

Connections are HTTP/1.1 keep-alive: one handler thread serves every
request a client sends over its connection, until the client closes it
or leaves it idle for :data:`IDLE_TIMEOUT` seconds.
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.service.api import ServiceAPI
from repro.service.pool import DEFAULT_START_METHOD

__all__ = ["ServiceHTTPServer", "make_server", "serve"]

log = logging.getLogger("repro.service")

#: Uploads beyond this are rejected before buffering (64 MiB of trace).
MAX_BODY_BYTES = 64 << 20

#: Seconds between SSE comment keepalives while fleet state is idle.
SSE_KEEPALIVE = 15.0

#: Seconds a connection may wait on the client (for its next request or
#: the rest of a body) before the server closes it, so abandoned
#: keep-alive clients do not pin handler threads.
IDLE_TIMEOUT = 30.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "critical-lock-analysis"
    protocol_version = "HTTP/1.1"
    # An answer goes out in two writes (headers, then body).  With Nagle
    # on, the body waits for the client's delayed ACK of the headers:
    # ~40 ms per request on a kept-alive connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    # -- plumbing -----------------------------------------------------------

    @property
    def api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        log.debug("%s - %s", self.address_string(), fmt % args)

    def _read_body(self) -> bytes | None:
        """The request body, or None once the request has been refused.

        A body that cannot be framed stays unread, so the connection
        closes after the refusal: reading on would parse the body as the
        next request.
        """
        if self.headers.get("Transfer-Encoding"):
            self._reply(411, {"error": "send the body with a Content-Length"},
                        close=True)
            return None
        values = self.headers.get_all("Content-Length") or ["0"]
        raw = values[0].strip()
        if len(set(values)) > 1 or not (raw.isascii() and raw.isdigit()):
            self._reply(400, {"error": f"bad Content-Length: {raw!r}"}, close=True)
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                        close=True)
            return None
        body = self.rfile.read(length) if length else b""
        if len(body) < length:  # the client hung up mid-body
            self.close_connection = True
            return None
        return body

    def _dispatch(self, method: str, body: bytes) -> None:
        url = urlsplit(self.path)
        query = dict(parse_qsl(url.query))
        try:
            status, payload = self.api.handle(method, url.path, body, query)
        except Exception as exc:  # noqa: BLE001 — transport must answer something
            log.exception("unhandled error for %s %s", method, url.path)
            status, payload = 500, {"error": f"internal error: {exc}"}
        self._reply(status, payload)

    def _reply(self, status: int, payload: dict, close: bool = False) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        if status in (307, 308) and payload.get("redirect"):
            # Ring routing: point plain HTTP clients at the owning node
            # (the JSON body carries the same URL for ours).
            self.send_header("Location", payload["redirect"])
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    # -- fleet dashboard (non-JSON routes) ----------------------------------

    def _serve_dashboard(self) -> None:
        blob = self.api.dashboard_html().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _serve_fleet_events(self) -> None:
        """Server-Sent-Events stream of fleet-state changes.

        The response has no length and stays open, so the connection is
        marked close-on-done; the loop ends when the client disconnects
        (write fails) or the server shuts down beneath us.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        api = self.api
        api.metrics.count_fleet_sse(clients=1)
        last = -1  # version -1: the first wait returns the current state
        try:
            while True:
                version = api.fleet.wait_version(last, timeout=SSE_KEEPALIVE)
                if version <= last:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                last = version
                blob = json.dumps(api.fleet_event_payload())
                self.wfile.write(f"event: fleet\ndata: {blob}\n\n".encode("utf-8"))
                self.wfile.flush()
                api.metrics.count_fleet_sse(events=1)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away — the stream has no other exit

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:
        body = self._read_body()
        if body is None:
            return
        path = urlsplit(self.path).path
        if path == "/dashboard":
            self._serve_dashboard()
            return
        if path == "/fleet/events":
            self._serve_fleet_events()
            return
        self._dispatch("GET", body)

    def do_POST(self) -> None:
        body = self._read_body()
        if body is not None:
            self._dispatch("POST", body)


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ServiceAPI` instance."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], api: ServiceAPI):
        super().__init__(address, _Handler)
        self.api = api
        self._open: set[socket.socket] = set()  # accepted, not yet closed
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        self.api.metrics.count_connection()
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every open connection.

        A client's next request on a kept-alive connection then fails
        before any answer, and it reconnects to whatever listens now
        instead of talking to this closed server.
        """
        super().server_close()
        with self._open_lock:
            conns = list(self._open)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)

    def handle_error(self, request, client_address) -> None:
        if isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            # The client went away or went quiet: routine for keep-alive.
            log.debug("connection from %s dropped", client_address, exc_info=True)
            return
        super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.api.close()


def make_server(
    api: ServiceAPI, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (port 0 = ephemeral) without starting the serve loop."""
    return ServiceHTTPServer((host, port), api)


def serve(
    host: str = "127.0.0.1",
    port: int = 8323,
    data_dir: str | Path = ".cla-service",
    workers: int = 2,
    cache_capacity: int = 256,
    start_method: str = DEFAULT_START_METHOD,
    rules_path: str | Path | None = None,
    shared_dir: str | Path | None = None,
    self_url: str | None = None,
    peers: tuple[str, ...] = (),
) -> int:
    """Run the analysis service until interrupted (CLI entry point)."""
    # Fleet ingest (and inline jobs) analyze every upload; the analyzer is
    # imported inside a function there, so load it before reporting ready.
    import repro.core.analyzer  # noqa: F401

    if peers and not self_url:
        self_url = f"http://{host}:{port}"
    api = ServiceAPI(
        data_dir=data_dir,
        workers=workers,
        cache_capacity=cache_capacity,
        start_method=start_method,
        rules_path=rules_path,
        shared_dir=shared_dir,
        self_url=self_url,
        peers=peers,
    )
    server = make_server(api, host, port)
    resumed = api.streams.recovered_sessions
    print(
        f"critical-lock-analysis service on {server.url} "
        f"({workers} worker process(es), data in {Path(data_dir).resolve()}"
        + (f", shared dir {Path(shared_dir).resolve()}" if shared_dir else "")
        + (f", {len(api.fleet_rules)} alert rule(s)" if rules_path else "")
        + (f", ring of {len(api.ring)} nodes" if api.ring else "")
        + (f", {resumed} stream session(s) resumed" if resumed else "")
        + f"); dashboard at {server.url}/dashboard"
    )
    previous = {}
    try:
        if threading.current_thread() is threading.main_thread():
            # Whatever was inherited (a background job starts with SIGINT
            # ignored), both signals take the graceful path below, which
            # joins the worker pool instead of orphaning it.
            previous = {
                sig: signal.signal(sig, _interrupt)
                for sig in (signal.SIGINT, signal.SIGTERM)
            }
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        api.close()
        for sig, handler in previous.items():
            if handler is not None:  # None: not installed from Python
                signal.signal(sig, handler)
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt
