"""Bounded event ring between instrumented threads and the flusher.

The producer side is the application's own threads calling
:meth:`~repro.instrument.session.ProfilingSession.emit`; perturbing them
is exactly what a tracing tool must not do, so :meth:`EventRing.push`
never blocks: when the ring is full the event is *dropped and counted*.
The drop count is part of the ring's public accounting — a lossy stream
that knows its loss is diagnosable, a silently lossy one is a lie.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = ["EventRing"]


class EventRing:
    """Fixed-capacity MPSC buffer of record rows with drop accounting.

    A row is a ``(seq, time, tid, etype, obj, arg)`` tuple (an
    :class:`~repro.trace.events.Event` is one too).
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buf: deque[tuple] = deque()
        self._lock = threading.Lock()
        self.pushed = 0
        self.dropped = 0

    def push(self, row: tuple) -> bool:
        """Append one row; returns ``False`` (and counts) when full."""
        with self._lock:
            if len(self._buf) >= self.capacity:
                self.dropped += 1
                return False
            self._buf.append(row)
            self.pushed += 1
            return True

    def drain(self, max_events: int | None = None) -> list[tuple]:
        """Pop up to ``max_events`` (default: everything) in push order."""
        with self._lock:
            if max_events is None or max_events >= len(self._buf):
                out = list(self._buf)
                self._buf.clear()
            else:
                out = [self._buf.popleft() for _ in range(max_events)]
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "depth": len(self._buf),
                "pushed": self.pushed,
                "dropped": self.dropped,
            }
