"""Transport-independent API core: routing, schemas, and orchestration.

:class:`ServiceAPI` owns every service component (store, cache, job
store, pool, metrics) and maps ``(method, path, body)`` requests onto
them, returning ``(status, payload)`` pairs.  The HTTP layer in
:mod:`repro.service.server` is a thin bridge over :meth:`handle`; tests
can drive the full service in-process through the same method without a
socket in sight.

Endpoints::

    POST /traces            raw trace bytes (.clt or .jsonl)  -> 201 {digest,...}
    GET  /traces            -> {traces: [...]}
    GET  /traces/<digest>   -> stored-trace metadata
    POST /jobs              {"kind","trace"|"traces","params"} -> 202 {id,state,...}
                               a job already done when the submit answers
                               (cache hit, inline pool) carries its result
    GET  /jobs              -> {jobs: [...]}
    GET  /jobs/<id>         -> job status (no result payload)
    GET  /reports/<id>      -> finished job's result (409 while pending,
                               500 with the error for a failed job)
    GET  /metrics           -> queue/cache/latency self-observation
    GET  /healthz           -> {ok: true}

Both ``GET /jobs/<id>`` and ``GET /reports/<id>`` take ``?wait=S``: the
request is held until the job is done/failed or S seconds (at most
MAX_JOB_WAIT) have passed, then answered.  So a client gets a result in
one request on a cache hit (the submit) and in two on a miss that
finishes within the hold (the submit, one held report fetch).

Streaming ingestion (chunked append, :mod:`repro.service.stream`)::

    POST /streams                     {"name","meta","max_pending"} -> 201 session
    GET  /streams                     -> {streams: [...]}
    GET  /streams/<id>                -> session status
    GET  /streams/<id>/snapshot       -> incremental estimator snapshot
                                       (409 once finalized: the session
                                       keeps only its status record)
    POST /traces/<session>/chunks     framed record blocks -> 202 ack
                                       (409 gap, 429 backpressure)
    POST /traces/<session>/finalize   {"header","analyze","name","params"}
                                       -> 200 stored trace (+report/reconciliation)

Fleet observability (:mod:`repro.fleet`; every store write feeds the
aggregator incrementally, and ``/dashboard`` + ``/fleet/events`` are
served by the HTTP layer on top of these)::

    GET  /fleet/summary      ?top=N          -> cluster summary
    GET  /fleet/regressions  ?topk=&noise_floor=&sigma= -> ranking shifts
    GET  /fleet/alerts                       -> alert rules evaluated now

Multi-node (consistent-hash routing, :mod:`repro.service.ring`)::

    GET  /ring               -> {routing, self, nodes, replicas}
    POST /jobs               -> 307 {redirect, node} when another ring
                                node owns the job's cache key

Traces and the result cache's spill tier live under ``data_dir``, or,
with ``shared_dir`` (``serve --shared-dir``), in a directory every ring
node shares (``<shared_dir>/traces``, ``<shared_dir>/cache``; the cache
then writes through).  Stream sessions and fleet state stay private.
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from repro._durable import reap_staging
from repro.errors import ServiceError
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.dashboard import render_dashboard
from repro.fleet.ingest import FleetIngestor, ingest_store
from repro.fleet.rules import evaluate_rules, load_rules
from repro.service.cache import ResultCache
from repro.service.jobs import (
    DONE, FAILED, QUEUED, RUNNING, Job, JobSpec, JobStore, execute,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import DEFAULT_START_METHOD, WorkerPool
from repro.service.ring import HashRing
from repro.service.store import TraceStore
from repro.service.stream import StreamStore

__all__ = ["MAX_JOB_WAIT", "ServiceAPI"]

#: Longest a ``?wait=S`` request (``GET /jobs/<id>``, ``GET /reports/<id>``)
#: is held, whatever S asks.
MAX_JOB_WAIT = 30.0


class ServiceAPI:
    """The analysis service, sans transport."""

    def __init__(
        self,
        data_dir: str | Path,
        workers: int = 2,
        cache_capacity: int = 256,
        start_method: str = DEFAULT_START_METHOD,
        max_pending_chunks: int = 64,
        rules_path: str | Path | None = None,
        shared_dir: str | Path | None = None,
        self_url: str | None = None,
        peers: Sequence[str] = (),
    ):
        self.data_dir = Path(data_dir)
        self.shared_dir = Path(shared_dir) if shared_dir is not None else None
        shared = self.shared_dir is not None
        storage = self.shared_dir or self.data_dir
        self.store = TraceStore(storage / "traces", shared=shared)
        self.cache = ResultCache(
            capacity=cache_capacity, disk_dir=storage / "cache", shared=shared
        )
        self.self_url = (self_url or "").rstrip("/") or None
        peers = [p.rstrip("/") for p in peers if p]
        if peers:
            if self.self_url is None:
                raise ServiceError(
                    "ring routing needs self_url when peers are configured"
                )
            self.ring: HashRing | None = HashRing([self.self_url, *peers])
        else:
            self.ring = None
        self.streams = StreamStore(
            self.data_dir / "streams", max_pending_chunks=max_pending_chunks
        )
        self.jobs = JobStore()
        self.metrics = ServiceMetrics()
        self.fleet = FleetAggregator(self.data_dir / "fleet")
        # Not in the aggregator: workers open this directory mid-save.
        reap_staging(self.fleet.state_dir)
        self.fleet_rules = load_rules(rules_path) if rules_path else []
        self.fleet_ingestor = FleetIngestor(self.fleet, metrics=self.metrics)
        self._cache_keys: dict[str, str] = {}  # job id -> cache key
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self.pool = WorkerPool(
            workers=workers, on_event=self._on_pool_event, start_method=start_method
        )

    def close(self) -> None:
        self.fleet_ingestor.close()
        self.streams.close()
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- request dispatch -----------------------------------------------------

    def handle(
        self, method: str, path: str, body: bytes = b"", query: dict | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; never raises for client-visible errors."""
        self.metrics.count_request()
        query = query or {}
        parts = [p for p in path.split("/") if p]
        try:
            return self._route(method.upper(), parts, body, query)
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}

    def _route(
        self, method: str, parts: list[str], body: bytes, query: dict
    ) -> tuple[int, dict[str, Any]]:
        import json

        match (method, parts):
            case ("POST", ["traces"]):
                entry = self.store.put_bytes(body, name=query.get("name"))
                self.fleet_ingestor.enqueue(entry)
                return 201, entry.to_dict()
            case ("GET", ["traces"]):
                return 200, {"traces": [e.to_dict() for e in self.store.list()]}
            case ("GET", ["traces", digest]):
                return 200, self.store.get(digest).to_dict()
            case ("POST", ["streams"]):
                try:
                    req = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    raise ServiceError(f"request body is not JSON: {exc}") from exc
                session = self.streams.open(
                    name=str(req.get("name", "")),
                    meta=req.get("meta") or {},
                    max_pending=req.get("max_pending"),
                )
                self.metrics.count_stream_opened()
                return 201, session.to_dict()
            case ("GET", ["streams"]):
                return 200, {"streams": self.streams.records()}
            case ("GET", ["streams", sid]):
                return 200, self.streams.status(sid)
            case ("GET", ["streams", sid, "snapshot"]):
                top = query.get("top")
                snap = self.streams.snapshot(
                    sid, top=int(top) if top is not None else None
                )
                if query.get("render"):
                    snap["rendered"] = self.streams.render_snapshot(sid)
                return 200, snap
            case ("POST", ["traces", sid, "chunks"]):
                return self._append_chunks(sid, body)
            case ("POST", ["traces", sid, "finalize"]):
                try:
                    req = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    raise ServiceError(f"request body is not JSON: {exc}") from exc
                return 200, self.finalize_stream(sid, req)
            case ("POST", ["jobs"]):
                try:
                    req = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    raise ServiceError(f"request body is not JSON: {exc}") from exc
                out = self.submit_job(req)
                if "redirect" in out:
                    return 307, out
                return 202, out
            case ("GET", ["jobs"]):
                return 200, {"jobs": [j.to_dict() for j in self.jobs.list()]}
            case ("GET", ["jobs", job_id]):
                if "wait" in query:
                    hold = _wait_seconds(query["wait"])
                    return 200, self._await_job(job_id, hold).to_dict()
                return 200, self.jobs.get(job_id).to_dict()
            case ("GET", ["reports", job_id]):
                if "wait" in query:
                    self._await_job(job_id, _wait_seconds(query["wait"]))
                return self._get_report(job_id)
            case ("GET", ["fleet", "summary"]):
                top = query.get("top")
                return 200, self.fleet.summary(
                    top=int(top) if top is not None else 20
                )
            case ("GET", ["fleet", "regressions"]):
                kwargs: dict[str, Any] = {}
                if query.get("topk") is not None:
                    kwargs["topk"] = int(query["topk"])
                if query.get("noise_floor") is not None:
                    kwargs["noise_floor"] = float(query["noise_floor"])
                if query.get("sigma") is not None:
                    kwargs["sigma"] = float(query["sigma"])
                return 200, self.fleet.regressions(**kwargs)
            case ("GET", ["fleet", "alerts"]):
                return 200, {
                    "rules": len(self.fleet_rules),
                    "alerts": evaluate_rules(self.fleet_rules, self.fleet),
                }
            case ("POST", ["fleet", "ingest"]):
                # Catch-up over traces stored before fleet observability
                # (or under a different service instance).
                counts = ingest_store(
                    self.fleet, self.store.list(), metrics=self.metrics
                )
                if counts["observed"]:
                    self.fleet.save()
                return 200, counts
            case ("GET", ["ring"]):
                if self.ring is None:
                    return 200, {"routing": False, "self": self.self_url}
                return 200, {
                    "routing": True,
                    "self": self.self_url,
                    **self.ring.to_dict(),
                }
            case ("GET", ["metrics"]):
                return 200, self.snapshot_metrics()
            case ("GET", ["healthz"]):
                return 200, {"ok": True, "workers": self.pool.workers}
            case _:
                raise ServiceError(
                    f"no route for {method} /{'/'.join(parts)}", status=404
                )

    # -- streaming ingestion ---------------------------------------------------

    def _append_chunks(self, sid: str, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            ack = self.streams.append_chunks(sid, body)
        except ServiceError as exc:
            if exc.status == 429:
                self.metrics.count_stream_backpressure()
            elif exc.status == 409 and "gap" in str(exc):
                self.metrics.count_stream_gap()
            raise
        self.metrics.count_stream_chunks(
            accepted=ack["accepted"],
            duplicates=ack["duplicates"],
            events=ack["accepted_events"],
            nbytes=len(body),
        )
        return 202, ack

    def finalize_stream(self, sid: str, req: dict[str, Any]) -> dict[str, Any]:
        """Drain a stream, store the assembled trace, optionally analyze.

        The stored trace is content-addressed through the same
        :class:`TraceStore` as whole-file uploads, so a trace streamed
        chunk-by-chunk and the identical trace uploaded in one POST get
        the same digest and hit the same result cache.  With
        ``analyze: true`` the exact batch analysis runs inline and the
        incremental estimator's final snapshot is reconciled against it.
        """
        if not isinstance(req, dict):
            raise ServiceError("finalize body must be a JSON object")
        header = req.get("header") or {}
        if not isinstance(header, dict):
            raise ServiceError("'header' must be an object")
        params = req.get("params", {})
        if not isinstance(params, dict):
            raise ServiceError("'params' must be an object")
        session, trace = self.streams.finalize(
            sid, header=header, timeout=req.get("timeout")
        )
        with session.alock:
            session.analyzer.register_names(header.get("objects", {}))
            snapshot = session.analyzer.snapshot()
        entry = self.store.put_trace(
            trace, name=req.get("name") or session.name or None
        )
        session.digest = entry.digest
        self.streams.retire(session)
        self.fleet_ingestor.enqueue(entry)
        self.metrics.count_stream_finalized()
        out: dict[str, Any] = {
            "trace": entry.to_dict(),
            "stream": session.to_dict(),
            "snapshot": snapshot,
        }
        if req.get("analyze"):
            result = execute("analyze", [str(entry.path)], params)
            out["report"] = result
            with session.alock:
                out["reconciliation"] = session.analyzer.reconcile(result)
        return out

    # -- job orchestration ----------------------------------------------------

    def submit_job(self, req: dict[str, Any]) -> dict[str, Any]:
        """Create a job from a request dict; may finish instantly on cache hit.

        Returns the job's record; a job already done by then (a cache
        hit, or the inline pool) comes back with its ``result``.
        """
        if not isinstance(req, dict):
            raise ServiceError("job request must be a JSON object")
        kind = req.get("kind")
        if not isinstance(kind, str):
            raise ServiceError("job request needs a string 'kind'")
        digests = req.get("traces", [])
        if "trace" in req:
            digests = [req["trace"], *digests]
        if not isinstance(digests, (list, tuple)):
            raise ServiceError("'traces' must be a list of digests")
        params = req.get("params", {})
        if not isinstance(params, dict):
            raise ServiceError("'params' must be an object")

        # Fleet kinds answer from mutable persisted state: resolve the
        # state dir for the worker and never cache the result.
        fleet_kind = kind in ("fleet_summary", "fleet_regressions")
        if fleet_kind:
            params = {**params}
            params.setdefault("state_dir", str(self.data_dir / "fleet"))

        spec = JobSpec(kind=kind, digests=tuple(digests), params=params)

        # Consistent-hash routing: every cacheable job has one owning
        # node; everyone else answers with a redirect the client follows.
        # (Fleet kinds read node-local persisted state and selftest is a
        # diagnostics probe of *this* node — both always run locally.)
        if self.ring is not None and not fleet_kind and kind != "selftest":
            owner = self.ring.owner(spec.cache_key())
            if owner != self.self_url:
                self.metrics.count_redirected(kind)
                return {
                    "redirect": f"{owner}/jobs",
                    "node": owner,
                    "kind": kind,
                    "key": spec.cache_key(),
                }

        paths = self.store.resolve(spec.digests)  # 404s before queuing
        job = self.jobs.create(spec)
        self.metrics.count_submitted(kind)

        if not fleet_kind:
            key = spec.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                self.jobs.mark_done(job.id, cached, cached=True)
                self.metrics.count_cached(kind)
                with self._done:
                    self._done.notify_all()
                return self.jobs.record(job.id)
            with self._lock:
                self._cache_keys[job.id] = key
        self.pool.submit(job.id, spec.kind, paths, spec.params)
        return self.jobs.record(job.id)

    def wait(self, job_id: str, timeout: float = 60.0) -> dict[str, Any]:
        """Block until a job finishes (in-process; HTTP has ``?wait=S``)."""
        job = self._await_job(job_id, timeout)
        if job.state not in (DONE, FAILED):
            raise ServiceError(f"timed out waiting for job {job_id}", status=504)
        return job.to_dict(include_result=True)

    def _await_job(self, job_id: str, timeout: float) -> Job:
        """The job once it is done/failed or ``timeout`` seconds have passed."""
        deadline = time.monotonic() + timeout
        with self._done:
            while True:
                job = self.jobs.get(job_id)
                remaining = deadline - time.monotonic()
                if job.state in (DONE, FAILED) or remaining <= 0:
                    return job
                self._done.wait(timeout=remaining)

    def _get_report(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.jobs.record(job_id)
        if job["state"] == FAILED:
            return 500, {"id": job_id, "state": FAILED, "error": job["error"]}
        if job["state"] != DONE:
            return 409, {
                "id": job_id,
                "state": job["state"],
                "error": "job not finished; hold with GET /reports/<id>?wait=S",
            }
        return 200, {"id": job_id, "kind": job["kind"], "cached": job["cached"],
                     "result": job["result"]}

    # -- fleet observability ---------------------------------------------------

    def flush_fleet(self, timeout: float = 30.0) -> bool:
        """Wait for pending fleet ingestion (tests, graceful drains)."""
        return self.fleet_ingestor.flush(timeout=timeout)

    def fleet_alerts(self) -> list[dict[str, Any]]:
        return evaluate_rules(self.fleet_rules, self.fleet)

    def dashboard_html(self) -> str:
        """The live dashboard page (served as GET /dashboard)."""
        return render_dashboard(
            self.fleet.summary(),
            self.fleet.regressions(),
            self.fleet_alerts(),
            nrules=len(self.fleet_rules),
        )

    def fleet_event_payload(self) -> dict[str, Any]:
        """One SSE event: compact state for dashboard live updates."""
        summary = self.fleet.summary(top=10)
        regressions = self.fleet.regressions()
        return {
            "type": "fleet",
            "version": summary["version"],
            "summary": {
                "traces": summary["traces"],
                "workloads": summary["workloads"],
                "clusters": summary["clusters"],
                "top": [
                    {
                        "workload": c["workload"],
                        "site": c["site"],
                        "cp_latest": c["cp_latest"],
                    }
                    for c in summary["top"][:5]
                ],
            },
            "regressions": len(regressions["flags"]),
            "alerts": len(self.fleet_alerts()),
        }

    def snapshot_metrics(self) -> dict[str, Any]:
        out = self.metrics.to_dict()
        out["queue"] = {
            "queued": self.jobs.count(QUEUED),
            "running": self.jobs.count(RUNNING),
            "pending": self.pool.pending,
            "workers": self.pool.workers,
            "worker_restarts": self.pool.restarts,
        }
        out["cache"] = self.cache.stats()
        out["traces"] = self.store.stats()
        out["storage"] = {
            "shared_dir": str(self.shared_dir) if self.shared_dir is not None else None
        }
        out["ring"] = (
            {"routing": True, "self": self.self_url, "nodes": len(self.ring)}
            if self.ring is not None
            else {"routing": False}
        )
        out["streams"].update(self.streams.stats())
        out["fleet"].update(self.fleet.stats())
        return out

    # -- pool event sink (collector thread) ------------------------------------

    def _on_pool_event(self, event: str, job_id: str, payload: Any) -> None:
        if event == "start":
            self.jobs.mark_running(job_id)
            return
        if event == "done":
            job = self.jobs.mark_done(job_id, payload)
            if job is not None:
                with self._lock:
                    key = self._cache_keys.pop(job_id, None)
                if key is not None:
                    self.cache.insert(key, payload)
                if job.latency is not None:
                    self.metrics.count_completed(job.spec.kind, job.latency)
        else:  # error / crashed
            job = self.jobs.mark_failed(job_id, str(payload))
            if job is not None:
                self.metrics.count_failed(job.spec.kind)
            with self._lock:
                self._cache_keys.pop(job_id, None)
        with self._done:
            self._done.notify_all()
        # The tier writes (spills, write-through) go after the wake-up:
        # waiters answer from memory while the disk catches up.
        self.cache.flush()


def _wait_seconds(raw: str) -> float:
    """The hold of a ``?wait=S`` query, capped at :data:`MAX_JOB_WAIT`."""
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not seconds >= 0:  # also refuses nan
        raise ServiceError(f"wait must be a number of seconds >= 0, got {raw!r}")
    return min(seconds, MAX_JOB_WAIT)
