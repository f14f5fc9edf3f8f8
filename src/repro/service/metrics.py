"""Service self-observation: counters and latency histograms.

The analyzer's whole thesis is that you diagnose a system by measuring
where its time actually goes — the service applies that to itself.
``GET /metrics`` exposes queue depth, per-kind job counts, cache hit
rate and per-kind latency histograms built here.
"""

from __future__ import annotations

import threading
import time
from typing import Any

__all__ = ["LatencyHistogram", "ServiceMetrics"]

#: Log-spaced upper bounds in seconds (last bucket is +inf).
_DEFAULT_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (Prometheus-style, cumulative-free)."""

    def __init__(self, bounds: tuple[float, ...] = _DEFAULT_BOUNDS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum += seconds
        self.max = max(self.max, seconds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding rank q."""
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def to_dict(self) -> dict[str, Any]:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": (self.sum / self.total) if self.total else 0.0,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Thread-safe counters + per-kind latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.submitted: dict[str, int] = {}
        self.completed: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.cache_short_circuits = 0  # jobs answered at submit time
        self.redirected: dict[str, int] = {}  # jobs routed to their ring owner
        self.requests = 0
        self.connections = 0  # accepted by the HTTP front end
        self._latency: dict[str, LatencyHistogram] = {}
        # Streaming ingestion (chunked-append sessions).
        self.streams_opened = 0
        self.streams_finalized = 0
        self.stream_chunks = 0
        self.stream_duplicate_chunks = 0
        self.stream_events = 0
        self.stream_bytes = 0
        self.stream_backpressure = 0  # 429 rejections
        self.stream_gaps = 0  # out-of-sequence 409 rejections
        # Fleet aggregation (repro.fleet): the aggregator observes itself.
        self.fleet_observed = 0
        self.fleet_duplicates = 0
        self.fleet_errors = 0
        self.fleet_sse_clients = 0
        self.fleet_sse_events = 0
        self._fleet_ingest = LatencyHistogram()

    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def count_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def count_submitted(self, kind: str) -> None:
        with self._lock:
            self.submitted[kind] = self.submitted.get(kind, 0) + 1

    def count_cached(self, kind: str) -> None:
        with self._lock:
            self.cache_short_circuits += 1

    def count_completed(self, kind: str, latency: float) -> None:
        with self._lock:
            self.completed[kind] = self.completed.get(kind, 0) + 1
            self._latency.setdefault(kind, LatencyHistogram()).observe(latency)

    def count_failed(self, kind: str) -> None:
        with self._lock:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def count_redirected(self, kind: str) -> None:
        with self._lock:
            self.redirected[kind] = self.redirected.get(kind, 0) + 1

    # -- streaming ingestion --------------------------------------------------

    def count_stream_opened(self) -> None:
        with self._lock:
            self.streams_opened += 1

    def count_stream_finalized(self) -> None:
        with self._lock:
            self.streams_finalized += 1

    def count_stream_chunks(
        self, accepted: int, duplicates: int, events: int, nbytes: int
    ) -> None:
        with self._lock:
            self.stream_chunks += accepted
            self.stream_duplicate_chunks += duplicates
            self.stream_events += events
            self.stream_bytes += nbytes

    def count_stream_backpressure(self) -> None:
        with self._lock:
            self.stream_backpressure += 1

    def count_stream_gap(self) -> None:
        with self._lock:
            self.stream_gaps += 1

    # -- fleet aggregation ----------------------------------------------------

    def count_fleet(
        self,
        observed: int = 0,
        duplicates: int = 0,
        errors: int = 0,
        seconds: float | None = None,
    ) -> None:
        with self._lock:
            self.fleet_observed += observed
            self.fleet_duplicates += duplicates
            self.fleet_errors += errors
            if seconds is not None:
                self._fleet_ingest.observe(seconds)

    def count_fleet_sse(self, clients: int = 0, events: int = 0) -> None:
        with self._lock:
            self.fleet_sse_clients += clients
            self.fleet_sse_events += events

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "uptime": time.time() - self.started_at,
                "requests": self.requests,
                "connections": self.connections,
                "jobs": {
                    "submitted": dict(self.submitted),
                    "completed": dict(self.completed),
                    "failed": dict(self.failed),
                    "cache_short_circuits": self.cache_short_circuits,
                    "redirected": dict(self.redirected),
                },
                "streams": {
                    "opened": self.streams_opened,
                    "finalized": self.streams_finalized,
                    "chunks": self.stream_chunks,
                    "duplicate_chunks": self.stream_duplicate_chunks,
                    "events": self.stream_events,
                    "bytes": self.stream_bytes,
                    "backpressure_429": self.stream_backpressure,
                    "sequence_gaps": self.stream_gaps,
                },
                "fleet": {
                    "observed": self.fleet_observed,
                    "duplicates": self.fleet_duplicates,
                    "errors": self.fleet_errors,
                    "sse_clients": self.fleet_sse_clients,
                    "sse_events": self.fleet_sse_events,
                    "ingest_latency": self._fleet_ingest.to_dict(),
                },
                "latency": {k: h.to_dict() for k, h in self._latency.items()},
            }
