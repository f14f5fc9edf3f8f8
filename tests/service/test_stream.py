"""Streaming ingestion: chunked append, backpressure, finalize identity."""

import json
import os
import time

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.errors import ServiceError
from repro.service.api import ServiceAPI
from repro.service.jobs import execute
from repro.trace.digest import trace_digest
from repro.trace.framing import encode_records_frame, encode_trailer_frame, split_records
from repro.trace.writer import header_dict, write_trace

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro():
    return make_micro_program().run().trace


@pytest.fixture
def api(tmp_path):
    with ServiceAPI(tmp_path / "svc", workers=0) as a:
        yield a


def _post_json(api, path, payload):
    return api.handle("POST", path, json.dumps(payload).encode())


def _stream_all(api, sid, records, chunk_events=7):
    for cid, block in enumerate(split_records(records, chunk_events)):
        status, ack = api.handle(
            "POST", f"/traces/{sid}/chunks", encode_records_frame(block, cid)
        )
        assert status == 202, ack
    return ack


def _wait_drained(api, sid, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = api.handle("GET", f"/streams/{sid}")
        if status["pending_chunks"] == 0:
            return status
        time.sleep(0.01)
    raise AssertionError(f"ingest never drained: {status}")


def _open(api, **payload):
    status, session = _post_json(api, "/streams", payload)
    assert status == 201
    return session["id"]


class TestLifecycle:
    def test_open_and_list(self, api):
        sid = _open(api, name="s1")
        status, listing = api.handle("GET", "/streams")
        assert status == 200
        assert [s["id"] for s in listing["streams"]] == [sid]
        assert listing["streams"][0]["state"] == "open"

    def test_unknown_session_404(self, api, micro):
        status, err = api.handle(
            "POST", "/traces/nope/chunks", encode_records_frame(micro.records, 0)
        )
        assert status == 404

    def test_malformed_body_400(self, api):
        sid = _open(api)
        status, err = api.handle("POST", f"/traces/{sid}/chunks", b"garbage!!")
        assert status == 400
        assert "malformed" in err["error"]

    def test_unknown_event_type_400(self, api, micro):
        sid = _open(api)
        good = encode_records_frame(micro.records[:10], 0)
        assert api.handle("POST", f"/traces/{sid}/chunks", good)[0] == 202
        records = micro.records[10:20].copy()
        records["etype"][3] = 15
        status, err = api.handle(
            "POST", f"/traces/{sid}/chunks", encode_records_frame(records, 1)
        )
        assert status == 400
        assert f"stream {sid}: chunk 1: record 3: unknown event type 15" in err["error"]
        _, state = api.handle("GET", f"/streams/{sid}")
        assert state["chunks"] == 1  # the bad chunk was not applied
        assert state["events"] == 10

    def test_trailer_frame_rejected(self, api, micro):
        sid = _open(api)
        status, err = api.handle(
            "POST", f"/traces/{sid}/chunks",
            encode_trailer_frame(header_dict(micro), 0),
        )
        assert status == 409
        assert "finalize" in err["error"]


class TestSequencing:
    def test_duplicate_chunk_is_idempotent(self, api, micro):
        sid = _open(api)
        blob = encode_records_frame(micro.records[:10], 0)
        s1, a1 = api.handle("POST", f"/traces/{sid}/chunks", blob)
        s2, a2 = api.handle("POST", f"/traces/{sid}/chunks", blob)
        assert (s1, s2) == (202, 202)
        assert a1["accepted"] == 1 and a2["accepted"] == 0
        assert a2["duplicates"] == 1
        assert a2["events"] == 10  # not double-ingested

    def test_gap_rejected_409(self, api, micro):
        sid = _open(api)
        status, err = api.handle(
            "POST", f"/traces/{sid}/chunks",
            encode_records_frame(micro.records[:5], 3),
        )
        assert status == 409
        assert "gap" in err["error"]

    def test_multiple_frames_per_body(self, api, micro):
        sid = _open(api)
        body = encode_records_frame(micro.records[:10], 0) + encode_records_frame(
            micro.records[10:], 1
        )
        status, ack = api.handle("POST", f"/traces/{sid}/chunks", body)
        assert status == 202 and ack["accepted"] == 2
        assert ack["events"] == len(micro.records)


class TestBackpressure:
    def test_full_queue_answers_429(self, api, micro):
        api.streams.pause_ingest()
        sid = _open(api, max_pending=2)
        blocks = list(split_records(micro.records, 4))
        codes = []
        for cid, block in enumerate(blocks[:3]):
            status, _ = api.handle(
                "POST", f"/traces/{sid}/chunks", encode_records_frame(block, cid)
            )
            codes.append(status)
        assert codes == [202, 202, 429]
        api.streams.resume_ingest()
        _wait_drained(api, sid)
        # The rejected chunk id was not consumed: retrying it succeeds.
        status, ack = api.handle(
            "POST", f"/traces/{sid}/chunks", encode_records_frame(blocks[2], 2)
        )
        assert status == 202 and ack["accepted"] == 1

    def test_backpressure_counted_in_metrics(self, api, micro):
        api.streams.pause_ingest()
        sid = _open(api, max_pending=1)
        for cid in range(2):
            api.handle(
                "POST", f"/traces/{sid}/chunks",
                encode_records_frame(micro.records[:4], cid),
            )
        api.streams.resume_ingest()
        _, m = api.handle("GET", "/metrics")
        assert m["streams"]["backpressure_429"] == 1


class _CountingOS:
    """``os`` for the stream module, counting the spool's fsyncs."""

    def __init__(self):
        self.fsyncs = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self.fsyncs += 1
        os.fsync(fd)


class TestGroupCommit:
    def test_pending_group_shares_one_fsync_and_one_checkpoint(
        self, tmp_path, micro, monkeypatch
    ):
        from repro.service import stream

        store = stream.StreamStore(tmp_path / "s")
        try:
            session = store.open()
            counting = _CountingOS()
            checkpoints = []
            write_checkpoint = store._write_checkpoint
            append_durable = stream.append_durable

            def counted(s, chunks, *rest):
                checkpoints.append(chunks)
                write_checkpoint(s, chunks, *rest)

            def appended(path, *blocks):  # one append, one fsync
                counting.fsyncs += 1
                append_durable(path, *blocks)

            monkeypatch.setattr(stream, "append_durable", appended)
            monkeypatch.setattr(store, "_write_checkpoint", counted)
            frames = [encode_records_frame(block, cid)
                      for cid, block in enumerate(split_records(micro.records, 6))]
            assert len(frames) == 6
            store.pause_ingest()
            acks = [store.append_chunks(session.id, f) for f in frames]
            assert [a["durable_chunk"] for a in acks] == [0] * 6
            store.resume_ingest()
            deadline = time.monotonic() + 10
            while session.pending and time.monotonic() < deadline:
                time.sleep(0.005)
            assert (counting.fsyncs, checkpoints) == (1, [6])
            ack = store.append_chunks(session.id, frames[-1])  # a duplicate
            assert (ack["duplicates"], ack["durable_chunk"]) == (1, 6)
            assert session.spool_path.stat().st_size == micro.records.nbytes
        finally:
            store.close()

    def test_grouped_snapshot_equals_per_chunk_observation(self, api, micro):
        """A group committed at once snapshots like the chunks fed singly."""
        blocks = list(split_records(micro.records, 5))
        sid = _open(api, max_pending=len(blocks))
        api.streams.pause_ingest()
        _stream_all(api, sid, micro.records, chunk_events=5)
        api.streams.resume_ingest()
        _wait_drained(api, sid)
        status, snap = api.handle("GET", f"/streams/{sid}/snapshot")
        assert status == 200, snap
        ref = OnlineAnalyzer()
        for block in blocks:
            ref.observe_batch(block)
        for volatile in ("session", "state", "pending_chunks"):
            del snap[volatile]
        assert snap == ref.snapshot()


class TestSnapshot:
    def test_rolling_snapshot_counts_events(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _wait_drained(api, sid)
        status, snap = api.handle("GET", f"/streams/{sid}/snapshot")
        assert status == 200
        assert snap["events"] == len(micro.records)
        assert snap["nlocks"] == 2
        assert snap["state"] == "open"

    def test_snapshot_top_and_render(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _wait_drained(api, sid)
        status, snap = api.handle(
            "GET", f"/streams/{sid}/snapshot", query={"top": "1", "render": "1"}
        )
        assert len(snap["locks"]) == 1
        assert snap["locks"][0]["name"] == "obj#1"  # L2, named at finalize
        ref = OnlineAnalyzer().observe_batch(micro.records)
        assert snap["rendered"] == ref.render(1)
        assert snap["rendered"].startswith("critical lock analysis: (unnamed)")


class TestFinalize:
    def test_digest_identical_to_batch_upload(self, api, micro, tmp_path):
        sid = _open(api, name="micro")
        _stream_all(api, sid, micro.records)
        status, fin = _post_json(
            api, f"/traces/{sid}/finalize", {"header": header_dict(micro)}
        )
        assert status == 200
        assert fin["trace"]["digest"] == trace_digest(micro)
        assert fin["stream"]["state"] == "finalized"

    def test_rendered_report_byte_identical_to_batch(self, api, micro, tmp_path):
        path = write_trace(micro, tmp_path / "batch.clt")
        batch = execute("analyze", [str(path)], {"render": True, "top": 10})

        sid = _open(api)
        _stream_all(api, sid, micro.records, chunk_events=5)
        status, fin = _post_json(
            api,
            f"/traces/{sid}/finalize",
            {"header": header_dict(micro), "analyze": True,
             "params": {"render": True, "top": 10}},
        )
        assert status == 200
        assert fin["report"]["rendered"] == batch["rendered"]

    def test_out_of_order_arrival_normalized(self, api, micro):
        # Chunk the records in *reverse* order: framing preserves bytes,
        # finalize re-sorts, so the digest still matches.
        sid = _open(api)
        rev = micro.records[::-1].copy()
        _stream_all(api, sid, rev)
        _, fin = _post_json(
            api, f"/traces/{sid}/finalize", {"header": header_dict(micro)}
        )
        assert fin["trace"]["digest"] == trace_digest(micro)

    def test_last_snapshot_equals_the_finalize_report(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _wait_drained(api, sid)
        _, snap = api.handle("GET", f"/streams/{sid}/snapshot")
        _, fin = _post_json(
            api,
            f"/traces/{sid}/finalize",
            {"header": header_dict(micro), "analyze": True},
        )
        assert "snapshot" not in fin and "reconciliation" not in fin
        exact = analyze(micro).report
        assert fin["report"]["critical_locks"][0]["name"] == "L2"
        assert snap["elapsed"] == exact.duration
        assert [ls["cp_time_frac"] for ls in snap["locks"]] == [
            m.cp_fraction for m in exact.top_locks()
        ]

    def test_finalize_twice_409(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _post_json(api, f"/traces/{sid}/finalize", {"header": header_dict(micro)})
        status, err = _post_json(
            api, f"/traces/{sid}/finalize", {"header": header_dict(micro)}
        )
        assert status == 409

    def test_finalize_header_without_name_400_keeps_session_open(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        header = header_dict(micro)
        del next(iter(header["objects"].values()))["name"]
        status, err = _post_json(api, f"/traces/{sid}/finalize", {"header": header})
        assert status == 400
        assert "has no 'name' key" in err["error"]
        status, fin = _post_json(
            api, f"/traces/{sid}/finalize", {"header": header_dict(micro)}
        )
        assert status == 200, fin
        assert fin["trace"]["digest"] == trace_digest(micro)

    def test_chunks_after_finalize_409(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _post_json(api, f"/traces/{sid}/finalize", {"header": header_dict(micro)})
        status, err = api.handle(
            "POST", f"/traces/{sid}/chunks",
            encode_records_frame(micro.records[:5], 99),
        )
        assert status == 409

    def test_names_from_header_in_final_snapshot(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        _, fin = _post_json(
            api, f"/traces/{sid}/finalize",
            {"header": header_dict(micro), "analyze": True},
        )
        assert {l["name"] for l in fin["report"]["critical_locks"]} == {"L1", "L2"}

    def test_finalized_session_keeps_only_its_status(self, api, micro):
        sid = _open(api, name="micro")
        _stream_all(api, sid, micro.records)
        _, fin = _post_json(
            api, f"/traces/{sid}/finalize", {"header": header_dict(micro)}
        )
        status, record = api.handle("GET", f"/streams/{sid}")
        assert status == 200
        assert record["state"] == "finalized"
        assert record["digest"] == fin["trace"]["digest"] == trace_digest(micro)
        _, listed = api.handle("GET", "/streams")
        assert [r["id"] for r in listed["streams"]] == [sid]
        status, err = api.handle("GET", f"/streams/{sid}/snapshot")
        assert status == 409
        assert "finalized" in err["error"]

    def test_spool_removed_after_finalize(self, api, micro):
        sid = _open(api)
        _stream_all(api, sid, micro.records)
        spool = api.streams.get(sid).spool_path
        _post_json(api, f"/traces/{sid}/finalize", {"header": header_dict(micro)})
        assert not spool.exists()


class TestStoreDirect:
    """StreamStore unit behavior not reachable through the HTTP surface."""

    def test_closed_store_rejects_open(self, tmp_path):
        from repro.service.stream import StreamStore

        store = StreamStore(tmp_path / "s")
        store.close()
        with pytest.raises(ServiceError, match="closed"):
            store.open()

    def test_finalize_drain_timeout_504_reopens(self, tmp_path, micro):
        from repro.service.stream import StreamStore

        store = StreamStore(tmp_path / "s")
        try:
            store.pause_ingest()
            session = store.open()
            store.append_chunks(
                session.id, encode_records_frame(micro.records[:5], 0)
            )
            with pytest.raises(ServiceError, match="did not drain"):
                store.finalize(session.id, timeout=0.1)
            assert session.state == "open"  # caller may retry
            store.resume_ingest()
            _, trace = store.finalize(session.id, header=header_dict(micro))
            assert len(trace) == 5
        finally:
            store.close()

    def test_service_memory_stays_bounded(self, tmp_path, micro):
        # The pending queue never holds more than max_pending chunks; the
        # rest of the stream lives in the disk spool.
        from repro.service.stream import StreamStore

        store = StreamStore(tmp_path / "s", max_pending_chunks=4)
        try:
            session = store.open()
            for cid, block in enumerate(split_records(micro.records, 2)):
                while True:
                    try:
                        store.append_chunks(
                            session.id, encode_records_frame(block, cid)
                        )
                        break
                    except ServiceError as exc:
                        assert exc.status == 429
                        time.sleep(0.005)
                assert len(session.pending) <= 4
            _, trace = store.finalize(session.id, header=header_dict(micro))
            assert np.array_equal(trace.records, micro.records)
        finally:
            store.close()

    def test_retired_sessions_stay_bounded(self, tmp_path, micro, monkeypatch):
        from repro.service import stream

        monkeypatch.setattr(stream, "MAX_RETIRED", 3)
        store = stream.StreamStore(tmp_path / "s")
        try:
            sids = []
            for i in range(8):
                session = store.open(name=f"s{i}")
                store.append_chunks(session.id, encode_records_frame(micro.records, 0))
                session, _ = store.finalize(session.id, header=header_dict(micro))
                session.digest = f"digest-{i}"
                store.retire(session)
                sids.append(session.id)
            assert [r["id"] for r in store.records()] == sids[-3:]
            assert store.stats()["sessions"] == 3
            assert store.stats()["open"] == 0
            assert store.status(sids[-1])["digest"] == "digest-7"
            with pytest.raises(ServiceError) as ei:
                store.get(sids[-1])  # no analyzer left to read
            assert ei.value.status == 409
            with pytest.raises(ServiceError) as ei:
                store.status(sids[0])  # record trimmed
            assert ei.value.status == 404
        finally:
            store.close()
