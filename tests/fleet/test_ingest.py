"""Store-driven ingestion: incremental catch-up and the background worker."""

from __future__ import annotations

from tests.conftest import make_micro_program

from repro.fleet import FleetAggregator, FleetIngestor, ingest_store
from repro.service.metrics import ServiceMetrics
from repro.service.store import TraceStore


def _seed_store(tmp_path, n=3):
    store = TraceStore(tmp_path / "traces")
    entries = []
    for i in range(n):
        trace = make_micro_program(cs2=2.5 + 0.001 * i).run().trace
        entries.append(store.put_trace(trace, name="micro"))
    return store, entries


def test_ingest_store_is_incremental(tmp_path):
    store, _ = _seed_store(tmp_path, n=3)
    agg = FleetAggregator(tmp_path / "fleet")
    metrics = ServiceMetrics()
    out = ingest_store(agg, store.list(), metrics=metrics)
    assert out == {"observed": 3, "skipped": 0, "errors": 0}
    assert agg.summary()["traces"] == 3
    assert metrics.fleet_observed == 3
    # Second pass: everything already observed.
    assert ingest_store(agg, store.list(), metrics=metrics) == {
        "observed": 0, "skipped": 3, "errors": 0,
    }
    assert metrics.fleet_duplicates == 3


def test_ingest_counts_unreadable_traces_as_errors(tmp_path):
    store, entries = _seed_store(tmp_path, n=2)
    entries[0].path.write_bytes(b"garbage, not a trace")
    agg = FleetAggregator(tmp_path / "fleet")
    out = ingest_store(agg, store.list())
    assert out["errors"] == 1 and out["observed"] == 1


def test_ingest_state_survives_restart(tmp_path):
    store, _ = _seed_store(tmp_path, n=2)
    first = FleetAggregator(tmp_path / "fleet")
    ingest_store(first, store.list())  # durable before it returns
    # A fresh aggregator over the same state dir skips all of them.
    agg = FleetAggregator(tmp_path / "fleet")
    assert ingest_store(agg, store.list())["skipped"] == 2


def test_ingest_store_never_saves(tmp_path):
    """On a read-only view (the ``fleet --store`` CLI's) the catch-up
    folds into memory and writes nothing."""
    store, _ = _seed_store(tmp_path, n=2)
    agg = FleetAggregator(tmp_path / "fleet", read_only=True)
    assert ingest_store(agg, store.list())["observed"] == 2
    assert agg.summary()["traces"] == 2
    assert not (tmp_path / "fleet").exists()


def test_background_ingestor_processes_queue(tmp_path):
    store, entries = _seed_store(tmp_path, n=2)
    agg = FleetAggregator(tmp_path / "fleet")
    metrics = ServiceMetrics()
    ingestor = FleetIngestor(agg, metrics=metrics)
    try:
        for entry in entries:
            ingestor.enqueue(entry)
        ingestor.enqueue(entries[0])  # duplicate digest: a no-op
        assert ingestor.flush(timeout=30)
        assert agg.summary()["traces"] == 2
        assert metrics.fleet_observed == 2
        assert metrics.fleet_duplicates == 1
    finally:
        ingestor.close()
    ingestor.enqueue(entries[1])  # post-close enqueue is ignored
    ingestor.close()  # idempotent


def test_background_ingestor_survives_bad_entries(tmp_path):
    store, entries = _seed_store(tmp_path, n=1)
    agg = FleetAggregator(tmp_path / "fleet")
    metrics = ServiceMetrics()
    ingestor = FleetIngestor(agg, metrics=metrics)
    try:
        bad = entries[0]
        bad.path.write_bytes(b"garbage")
        ingestor.enqueue(bad)
        assert ingestor.flush(timeout=30)
        assert metrics.fleet_errors == 1
    finally:
        ingestor.close()
