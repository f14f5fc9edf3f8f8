"""Live trace streaming: ring buffer, flusher, sinks, and tail-follow.

The batch pipeline (:mod:`repro.instrument` -> ``.clt`` file ->
:mod:`repro.core`) only speaks after the program exits.  This package is
the runtime half of the streaming story:

* :class:`EventRing` — a bounded ring the instrumented threads push
  events into; when the consumer falls behind, *new* events are dropped
  and counted rather than blocking the application (the paper's
  instrumentation-perturbation concern, applied to streaming);
* :class:`StreamFlusher` — a daemon thread draining the ring into framed
  chunks (:mod:`repro.trace.framing`) on a sink;
* :class:`ChunkFileSink` / :class:`ServiceSink` — chunks appended to a
  ``.cls`` container on disk, or shipped to the analysis service's
  chunked-append endpoint with backpressure-aware retries;
* :func:`live_snapshots` — tail a growing trace file and yield exact
  :class:`~repro.core.online.OnlineAnalyzer` snapshots of the events so
  far (the ``live`` CLI subcommand renders these).
"""

from repro.stream.flusher import StreamFlusher
from repro.stream.live import live_snapshots, read_live_header
from repro.stream.ring import EventRing
from repro.stream.sink import ChunkFileSink, ChunkSink, ServiceSink

__all__ = [
    "EventRing",
    "StreamFlusher",
    "ChunkSink",
    "ChunkFileSink",
    "ServiceSink",
    "live_snapshots",
    "read_live_header",
]
