"""repro.stream: ring drop accounting, flusher, sinks, session streaming."""

import threading
import time

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.errors import TraceError
from repro.instrument import ProfilingSession
from repro.stream import ChunkFileSink, EventRing, StreamFlusher, live_snapshots
from repro.trace.digest import trace_digest
from repro.trace.events import Event, EventType
from repro.trace.reader import read_trace
from repro.trace.writer import write_trace


def _ev(seq, t=0.0):
    return Event(seq=seq, time=t, tid=0, etype=EventType.ACQUIRE, obj=0, arg=0)


class TestEventRing:
    def test_push_drain_order(self):
        ring = EventRing(8)
        for i in range(5):
            assert ring.push(_ev(i))
        assert [e.seq for e in ring.drain()] == [0, 1, 2, 3, 4]
        assert len(ring) == 0

    def test_overflow_drops_and_counts(self):
        ring = EventRing(3)
        results = [ring.push(_ev(i)) for i in range(5)]
        assert results == [True, True, True, False, False]
        stats = ring.stats()
        assert stats["dropped"] == 2
        assert stats["pushed"] == 3
        assert stats["depth"] == 3
        # Drops lose the newest events; the survivors are intact.
        assert [e.seq for e in ring.drain()] == [0, 1, 2]

    def test_partial_drain(self):
        ring = EventRing(8)
        for i in range(6):
            ring.push(_ev(i))
        assert [e.seq for e in ring.drain(2)] == [0, 1]
        assert len(ring) == 4

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventRing(0)


class TestFlusherAndFileSink:
    def test_flush_writes_framed_chunks(self, micro_trace, tmp_path):
        ring = EventRing(1 << 16)
        sink = ChunkFileSink(tmp_path / "out.cls")
        flusher = StreamFlusher(ring, sink, chunk_events=10)
        for ev in micro_trace:
            ring.push(ev)
        assert flusher.flush() == len(micro_trace)
        assert sink.chunks == 4  # 32 events / 10 per chunk
        from repro.trace.writer import header_dict

        flusher.close(header_dict(micro_trace))
        back = read_trace(tmp_path / "out.cls")
        assert np.array_equal(back.records, micro_trace.records)

    def test_close_is_idempotent(self, micro_trace, tmp_path):
        flusher = StreamFlusher(
            EventRing(16), ChunkFileSink(tmp_path / "o.cls"), chunk_events=4
        )
        r1 = flusher.close({})
        r2 = flusher.close({})
        assert r1 == r2 == tmp_path / "o.cls"

    def test_background_thread_drains(self, tmp_path):
        ring = EventRing(1 << 10)
        flusher = StreamFlusher(
            ring, ChunkFileSink(tmp_path / "bg.cls"), interval=0.02, chunk_events=16
        ).start()
        for i in range(100):
            ring.push(_ev(i, t=i * 0.001))
        deadline = time.monotonic() + 5
        while len(ring) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(ring) == 0
        assert flusher.events_written == 100
        flusher.close({})


class TestSessionStreaming:
    def _run_session(self, tmp_path):
        sess = ProfilingSession("streamed")
        with sess as s:
            s.stream_to(
                ChunkFileSink(tmp_path / "live.cls"), interval=0.02, chunk_events=32
            )
            lock = s.lock("L")

            def worker():
                for _ in range(20):
                    with lock:
                        pass

            threads = [s.thread(worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return sess

    def test_streamed_file_matches_assembled_trace(self, tmp_path):
        sess = self._run_session(tmp_path)
        streamed = read_trace(tmp_path / "live.cls")
        batch = sess.trace()
        assert trace_digest(streamed) == trace_digest(batch)
        assert np.array_equal(streamed.records, batch.records)

    def test_no_drops_under_normal_load(self, tmp_path):
        sess = self._run_session(tmp_path)
        assert sess._flusher.ring.dropped == 0

    def test_stream_result_holds_finalize_value(self, tmp_path):
        sess = self._run_session(tmp_path)
        assert sess.stream_result == tmp_path / "live.cls"

    def test_double_stream_to_rejected(self, tmp_path):
        with ProfilingSession() as s:
            s.stream_to(ChunkFileSink(tmp_path / "a.cls"))
            with pytest.raises(TraceError, match="already streaming"):
                s.stream_to(ChunkFileSink(tmp_path / "b.cls"))

    def test_stream_to_after_close_rejected(self, tmp_path):
        s = ProfilingSession()
        with s:
            pass
        with pytest.raises(TraceError, match="closed"):
            s.stream_to(ChunkFileSink(tmp_path / "c.cls"))


class TestLiveSnapshots:
    def test_final_snapshot_covers_whole_file(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.clt")
        snaps = list(live_snapshots(path, timeout=0.1, poll_interval=0.02))
        final = snaps[-1]
        assert final["events"] == len(micro_trace)
        assert {l["name"] for l in final["locks"]} == {"L1", "L2"}
        assert final["rendered"] == analyze(micro_trace).render(10)

    def test_names_resolved_from_clt_header(self, micro_trace, tmp_path):
        path = write_trace(micro_trace, tmp_path / "t.clt")
        final = list(live_snapshots(path, timeout=0.1, poll_interval=0.02))[-1]
        assert not any(l["name"].startswith("obj#") for l in final["locks"])

    def test_follows_growing_cls(self, micro_trace, tmp_path):
        from repro.trace.framing import encode_records_frame, encode_trailer_frame
        from repro.trace.writer import header_dict

        path = tmp_path / "grow.cls"
        with open(path, "wb") as fh:
            fh.write(encode_records_frame(micro_trace.records[:16], 0))

        def finish():
            time.sleep(0.1)
            with open(path, "ab") as fh:
                fh.write(encode_records_frame(micro_trace.records[16:], 1))
                fh.write(encode_trailer_frame(header_dict(micro_trace), 2))

        t = threading.Thread(target=finish)
        t.start()
        snaps = list(
            live_snapshots(path, poll_interval=0.02, refresh=0.01, timeout=5.0)
        )
        t.join()
        assert snaps[-1]["events"] == len(micro_trace)
        # .cls names only arrive with the trailer; the final snapshot has them.
        assert {l["name"] for l in snaps[-1]["locks"]} == {"L1", "L2"}
