"""Feeding the aggregator: background ingest and store-wide catch-up.

Both paths run :func:`ingest_store` over stored traces:

* :class:`FleetIngestor` — a single daemon thread the service owns.
  Every trace-store write (upload or finalized stream session) enqueues
  the stored entry; the thread drains the queue, analyzes each entry off
  the request path, and commits the group to the aggregator with one
  fsync.  Each digest is analyzed at most once while its observation is
  held — the observation persists in fleet state, so a service restart
  does not re-analyze the store.
* a catch-up over a whole trace store (the ``fleet`` CLI working against
  a data directory, or ``POST /fleet/ingest`` on a service that
  inherited a store populated before fleet observability existed).
  Every digest already observed is skipped, so repeated invocations are
  incremental, not rescans.
"""

from __future__ import annotations

import logging
import queue
import threading
import time

from repro.errors import ReproError
from repro.fleet.aggregate import FleetAggregator, Observation
from repro.fleet.fingerprint import workload_of

__all__ = ["FleetIngestor", "ingest_store", "observe_stored_trace"]

log = logging.getLogger("repro.fleet")


def observe_stored_trace(aggregator: FleetAggregator, entry) -> Observation | None:
    """Analyze one stored trace into an observation to commit.

    ``None`` if the aggregator already holds the digest.  ``entry`` is a
    :class:`repro.service.store.StoredTrace` (or anything with
    ``digest``/``path``/``name`` attributes).  Nothing changes until the
    caller passes the observation to :meth:`FleetAggregator.commit`.
    """
    if aggregator.has(entry.digest):
        return None
    from repro.core.analyzer import analyze
    from repro.trace.reader import read_trace

    trace = read_trace(entry.path)
    report = analyze(trace, validate=False).report.to_dict()
    return Observation.from_report(
        report, digest=entry.digest, workload=workload_of(trace.meta, entry.name)
    )


def ingest_store(aggregator: FleetAggregator, entries, *, metrics=None) -> dict[str, int]:
    """Catch the aggregator up with stored traces (incremental).

    ``entries`` are :class:`~repro.service.store.StoredTrace` records: a
    live store's ``list()``, or ``stored_traces(dir)`` read off disk.
    Their observations commit as one group, counted as observed only
    after it: durable first on a writable aggregator, folded into memory
    only on a read-only one (the ``fleet --store`` CLI's view).
    """
    staged: list[tuple[Observation, float]] = []
    skipped = errors = 0
    for entry in entries:
        t0 = time.perf_counter()
        try:
            obs = observe_stored_trace(aggregator, entry)
        except Exception as exc:  # noqa: BLE001 — one bad trace spoils no other
            errors += 1
            log.warning(
                "fleet ingest failed for %s: %s", entry.digest, exc,
                exc_info=not isinstance(exc, ReproError),  # a bug: keep its trace
            )
            if metrics is not None:
                metrics.count_fleet(errors=1)
            continue
        if obs is None:
            skipped += 1
            if metrics is not None:
                metrics.count_fleet(duplicates=1)
        else:
            staged.append((obs, time.perf_counter() - t0))
    t0 = time.perf_counter()
    try:
        committed = aggregator.commit([obs for obs, _ in staged])
    except OSError as exc:
        log.warning("fleet commit of %d observation(s) failed: %s", len(staged), exc)
        errors += len(staged)
        if metrics is not None:
            metrics.count_fleet(errors=len(staged))
        staged, committed = [], []
    commit_s = time.perf_counter() - t0
    observed = 0
    for (_, seconds), obs in zip(staged, committed):
        if obs is None:  # observed by another committer meanwhile
            skipped += 1
            if metrics is not None:
                metrics.count_fleet(duplicates=1)
        else:
            observed += 1
            if metrics is not None:
                metrics.count_fleet(observed=1, seconds=seconds + commit_s)
    return {"observed": observed, "skipped": skipped, "errors": errors}


class FleetIngestor:
    """Single background worker turning store writes into observations."""

    def __init__(self, aggregator: FleetAggregator, metrics=None):
        self.aggregator = aggregator
        self.metrics = metrics
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="fleet-ingest", daemon=True
        )
        self._thread.start()

    def enqueue(self, entry) -> None:
        """Schedule one stored trace for aggregation (idempotent by digest)."""
        if not self._closed:
            self._queue.put(entry)

    def flush(self, timeout: float = 30.0) -> bool:
        """Wait until every enqueued trace has been processed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return self._queue.unfinished_tasks == 0

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        while True:
            # Everything queued by now is one group: one fsync commits it.
            batch = [self._queue.get()]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            try:
                ingest_store(
                    self.aggregator,
                    [e for e in batch if e is not None],
                    metrics=self.metrics,
                )
            except Exception:  # noqa: BLE001 — keep the worker alive
                log.exception("fleet ingest error")
                if self.metrics is not None:
                    self.metrics.count_fleet(errors=1)
            finally:
                for _ in batch:
                    self._queue.task_done()
            if any(e is None for e in batch):
                return
