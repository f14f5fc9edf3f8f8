"""The flusher thread: drains the ring into framed chunks on a sink.

One daemon thread per streaming session.  It wakes on a timer (or when
:meth:`StreamFlusher.flush` is called directly), drains whatever the
ring holds, packs it into one numpy record block and hands it to the
sink.  Slow sinks therefore back up the *ring*, never the application
threads — the ring answers by dropping-and-counting, which is the whole
point of the design.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.trace.schema import EVENT_DTYPE

from repro.stream.ring import EventRing
from repro.stream.sink import ChunkSink

__all__ = ["StreamFlusher"]


class StreamFlusher:
    """Periodically move ring contents to a sink as framed chunks."""

    def __init__(
        self,
        ring: EventRing,
        sink: ChunkSink,
        interval: float = 0.25,
        chunk_events: int = 8192,
    ):
        self.ring = ring
        self.sink = sink
        self.interval = interval
        self.chunk_events = chunk_events
        self.chunks_written = 0
        self.events_written = 0
        self.finalize_result: Any = None
        self._stop = threading.Event()
        self._flush_lock = threading.Lock()  # flush() callable from any thread
        self._thread = threading.Thread(
            target=self._run, name="stream-flusher", daemon=True
        )
        self._started = False
        self._closed = False

    def start(self) -> "StreamFlusher":
        self._thread.start()
        self._started = True
        return self

    def flush(self) -> int:
        """Drain the ring now; returns the number of events flushed."""
        flushed = 0
        with self._flush_lock:
            while True:
                batch = self.ring.drain(self.chunk_events)
                if not batch:
                    return flushed
                self.sink.write_chunk(np.array(batch, dtype=EVENT_DTYPE))
                self.chunks_written += 1
                self.events_written += len(batch)
                flushed += len(batch)

    def close(self, header: dict[str, Any] | None = None) -> Any:
        """Stop the thread, flush the tail, finalize the sink."""
        if self._closed:
            return self.finalize_result
        self._closed = True
        self._stop.set()
        if self._started:
            self._thread.join(timeout=10.0)
        self.flush()
        self.finalize_result = self.sink.finalize(header or {})
        return self.finalize_result

    def stats(self) -> dict[str, Any]:
        out = self.ring.stats()
        out["chunks_written"] = self.chunks_written
        out["events_written"] = self.events_written
        return out

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()
