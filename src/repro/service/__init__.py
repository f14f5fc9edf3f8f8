"""Parallel analysis service.

Turns the one-shot post-processing analyzer into a persistent server:
traces are uploaded once into a content-addressed :class:`TraceStore`,
analysis requests become :class:`Job`\\ s fanned out across a
:class:`WorkerPool` of OS processes (sidestepping the GIL for the
numpy-heavy critical-path walk), and finished reports land in a
:class:`ResultCache` keyed on (trace digest, analysis kind, params) so
repeated queries are O(1).  A stdlib-only HTTP/JSON front end
(:mod:`repro.service.server`) and a matching :class:`ServiceClient`
expose the whole thing over the network; ``critical-lock-analysis
serve`` wires it into the CLI.

Layering::

    server.py   HTTP transport (http.server, threads)
      api.py    routing + request/response schemas      <- also usable in-process
    jobs.py     job model, JobStore, execute() facade   <- pure, picklable
    pool.py     multiprocessing worker pool + supervisor
    cache.py    LRU result cache with a spill directory
    store.py    content-addressed trace storage
    backend.py  the cache's spill directory (private or shared)
    ring.py     consistent-hash job routing across a fleet of instances
    stream.py   chunked-append streaming ingestion sessions (checkpointed)
    metrics.py  counters + latency histograms (self-observation)
    client.py   keep-alive HTTP client (follows ring redirects)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.api import ServiceAPI
    from repro.service.backend import BackendMissing, LocalDiskBackend
    from repro.service.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.jobs import JOB_KINDS, Job, JobSpec, JobStore, execute
    from repro.service.metrics import LatencyHistogram, ServiceMetrics
    from repro.service.pool import WorkerPool
    from repro.service.ring import HashRing
    from repro.service.store import TraceStore
    from repro.service.stream import StreamSession, StreamStore

# A pool worker imports ``repro.service.pool`` only, not the HTTP side.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.api": ("ServiceAPI",),
    "repro.service.backend": ("BackendMissing", "LocalDiskBackend"),
    "repro.service.cache": ("ResultCache",),
    "repro.service.client": ("ServiceClient",),
    "repro.service.jobs": ("JOB_KINDS", "Job", "JobSpec", "JobStore", "execute"),
    "repro.service.metrics": ("LatencyHistogram", "ServiceMetrics"),
    "repro.service.pool": ("WorkerPool",),
    "repro.service.ring": ("HashRing",),
    "repro.service.store": ("TraceStore",),
    "repro.service.stream": ("StreamSession", "StreamStore"),
})
