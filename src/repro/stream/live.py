"""Tail-follow a growing trace and keep its exact lock ranking.

This is the consumer half of live diagnosis: point it at a trace file
another process is still writing (``.clt``, ``.cls`` or ``.jsonl``) and
it feeds each new batch to an :class:`~repro.core.online.OnlineAnalyzer`
and periodically yields its snapshot — the exact analysis of the events
read so far.  The ``live`` CLI subcommand renders these as they arrive;
the snapshot of a complete file renders as ``analyze`` prints it.
"""

from __future__ import annotations

import json
import struct
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.online import OnlineAnalyzer
from repro.errors import ReproError
from repro.trace.framing import CHUNK_MAGIC, iter_frames
from repro.trace.reader import iter_trace_chunks
from repro.trace.schema import EVENT_DTYPE
from repro.trace.writer import MAGIC

__all__ = ["read_live_header", "live_snapshots"]


def read_live_header(path: str | Path) -> dict[str, Any] | None:
    """Best-effort header (object/thread names) from a possibly-growing file.

    ``.clt`` and ``.jsonl`` carry the header up front, so names are
    available from the first byte; a ``.cls`` stream only learns them
    from the trailer frame, so this returns ``None`` until the stream is
    finalized.  Callers should simply try again later.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            probe = fh.read(len(MAGIC))
            if probe == MAGIC:
                (hlen,) = struct.unpack("<Q", fh.read(8))
                return json.loads(fh.read(hlen))
            if probe == CHUNK_MAGIC:
                for frame in iter_frames(path.read_bytes()):
                    if frame.is_trailer:
                        return frame.header
                return None
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        return json.loads(first).get("header")
    except (OSError, ValueError, KeyError):
        return None


def live_snapshots(
    path: str | Path,
    *,
    top: int | None = 10,
    chunk_events: int = 65536,
    poll_interval: float = 0.25,
    refresh: float = 1.0,
    timeout: float | None = 5.0,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield exact snapshots of the events read so far while tailing ``path``.

    A snapshot is yielded at most every ``refresh`` seconds while data
    flows, plus one final snapshot when the follow ends (idle
    ``timeout``, a finished ``.cls`` stream, or ``stop()``).  Each
    snapshot dict additionally carries a ``rendered`` report.  A
    mid-follow prefix that does not analyze (a record whose waker is
    still in flight) is skipped; the final snapshot raises.
    """
    analyzer = OnlineAnalyzer()
    header = read_live_header(path)
    last_emit = time.monotonic()
    emitted = False
    for batch in iter_trace_chunks(
        path,
        chunk_events=chunk_events,
        follow=True,
        poll_interval=poll_interval,
        timeout=timeout,
        stop=stop,
    ):
        analyzer.observe_batch(batch, header=header)
        now = time.monotonic()
        if not emitted or now - last_emit >= refresh:
            try:
                snap = _snap(analyzer, top)
            except ReproError:
                continue
            yield snap
            last_emit = now
            emitted = True
    # Names may only have become available at the end (.cls trailer).
    analyzer.observe_batch(np.empty(0, EVENT_DTYPE), header=read_live_header(path))
    yield _snap(analyzer, top)


def _snap(analyzer: OnlineAnalyzer, top: int | None) -> dict[str, Any]:
    snap = analyzer.snapshot(top=top)
    snap["rendered"] = analyzer.render(top)
    return snap
