"""Profiling sessions: thread registry, event buffers, trace assembly.

A :class:`ProfilingSession` plays the role of the paper's preloaded
instrumentation library: it hands out traced synchronization primitives,
assigns thread ids, buffers raw ``(seq, time, tid, etype, obj, arg)``
record rows per thread in memory (one Python list per thread — appends
are GIL-atomic and contention-free) and packs them into the final
:class:`~repro.trace.Trace` with one array build when the session
closes, the analog of the paper's flush-on-completion trace file.

A session can additionally *stream while running*: :meth:`~ProfilingSession.stream_to`
mirrors every emitted event into a bounded :class:`~repro.stream.EventRing`
drained by a flusher thread (:mod:`repro.stream`), so a live consumer —
a ``.cls`` file tail or the analysis service's chunked-append endpoint —
sees the trace as it grows.  The mirror is lossy under overload (drops
are counted, never blocking the application); the in-memory buffers and
the final :meth:`trace` stay complete regardless.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

from repro.errors import TraceError
from repro.instrument.clock import Clock, MonotonicClock
from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.units import ns_to_time

__all__ = ["ProfilingSession"]

_LOCK_VERBS = frozenset((EventType.ACQUIRE, EventType.OBTAIN, EventType.RELEASE))


class ProfilingSession:
    """Collects synchronization events from real Python threads.

    Use as a context manager; the enclosing (usually main) thread is
    registered as tid 0 for the duration of the ``with`` block.  After
    the block, :meth:`trace` returns the assembled trace.
    """

    def __init__(
        self,
        name: str = "",
        clock: Clock | None = None,
        sample_rate: float | None = None,
        sample_seed: int = 0,
    ):
        self.name = name
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._tls = threading.local()
        self._buffers: dict[int, list[tuple]] = {}  # tid -> record rows
        self._objects: dict[int, ObjectInfo] = {}
        self._lock_objs: set[int] = set()  # lock-like object ids, for the sampler
        self._thread_names: dict[int, str] = {}
        self._registry_lock = threading.Lock()  # untraced internal lock
        self._next_tid = itertools.count()
        self._next_obj = itertools.count()
        self._seq = itertools.count()  # global tie-breaker for merged sort
        self._t0_ns = 0
        self._active = False
        self._closed = False
        self._ring = None  # set by stream_to(); emit() mirrors into it
        self._flusher = None
        self.stream_result: Any = None
        # Sampling capture: lock invocations are hash-sampled *before*
        # they reach the buffers (repro.sampling); rate 1.0 (or None)
        # records everything and keeps emit() on the fast path.
        self._sampler = None
        if sample_rate is not None and float(sample_rate) < 1.0:
            from repro.sampling.sampler import EventSampler

            self._sampler = EventSampler(float(sample_rate), int(sample_seed))

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProfilingSession":
        if self._active or self._closed:
            raise TraceError("ProfilingSession is not reusable")
        self._active = True
        self._t0_ns = self.clock.now_ns()
        tid = self.register_thread("main")
        self.emit(tid, EventType.THREAD_START)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tid = self.current_tid()
        self.emit(tid, EventType.THREAD_EXIT)
        self._active = False
        self._closed = True
        if self._flusher is not None:
            self.stream_result = self._flusher.close(self.stream_header())

    # -- thread registry ------------------------------------------------------

    def register_thread(self, name: str = "") -> int:
        """Assign a tid to the calling thread and open its event buffer."""
        tid = next(self._next_tid)
        self._tls.tid = tid
        with self._registry_lock:
            self._buffers[tid] = []
            self._thread_names[tid] = name or f"T{tid}"
        return tid

    def allocate_tid(self, name: str = "") -> int:
        """Pre-assign a tid for a thread that has not started yet."""
        tid = next(self._next_tid)
        with self._registry_lock:
            self._buffers[tid] = []
            self._thread_names[tid] = name or f"T{tid}"
        return tid

    def adopt_tid(self, tid: int) -> None:
        """Bind a pre-allocated tid to the calling thread."""
        self._tls.tid = tid

    def current_tid(self) -> int:
        """Tid of the calling thread (must be registered)."""
        try:
            return self._tls.tid
        except AttributeError:
            raise TraceError(
                "calling thread is not registered with this ProfilingSession; "
                "spawn threads via session.thread(...)"
            ) from None

    # -- object registry -------------------------------------------------------

    def register_object(self, kind: ObjectKind, name: str) -> int:
        obj = next(self._next_obj)
        with self._registry_lock:
            self._objects[obj] = ObjectInfo(obj=obj, kind=kind, name=name)
            if kind.is_lock_like:
                self._lock_objs.add(obj)
        return obj

    # -- event emission (the MAGIC() analog) ------------------------------------

    def emit(
        self,
        tid: int,
        etype: EventType,
        obj: int = NO_OBJECT,
        arg: int = 0,
        at_ns: int | None = None,
    ) -> int:
        """Record one event for thread ``tid``; returns the timestamp used."""
        t_ns = self.clock.now_ns() if at_ns is None else at_ns
        row = (next(self._seq), ns_to_time(t_ns - self._t0_ns), tid, etype, obj, arg)
        sampler = self._sampler
        if sampler is not None and etype in _LOCK_VERBS and obj in self._lock_objs:
            # Streaming keep/drop decision; a kept contended OBTAIN may
            # flush a retained waker unit (events of another thread).
            for out in sampler.process(row):
                self._buffers[out[2]].append(out)
                ring = self._ring
                if ring is not None:
                    ring.push(out)
            return t_ns
        self._buffers[tid].append(row)
        ring = self._ring
        if ring is not None:
            ring.push(row)  # lossy mirror; drops are counted in the ring
        return t_ns

    def emit_here(
        self, etype: EventType, obj: int = NO_OBJECT, arg: int = 0, at_ns: int | None = None
    ) -> int:
        """Emit for the calling thread."""
        return self.emit(self.current_tid(), etype, obj, arg, at_ns)

    # -- traced primitive factories -----------------------------------------------

    def lock(self, name: str = "") -> "TracedLock":
        """Create a traced mutual-exclusion lock."""
        from repro.instrument.locks import TracedLock

        return TracedLock(self, name)

    def semaphore(
        self, value: int = 1, name: str = "", bounded: bool = False
    ) -> "TracedSemaphore":
        """Create a traced (optionally bounded) counting semaphore."""
        from repro.instrument.locks import TracedSemaphore

        return TracedSemaphore(self, value, name, bounded=bounded)

    def barrier(self, parties: int, name: str = "") -> "TracedBarrier":
        """Create a traced cyclic barrier."""
        from repro.instrument.barrier import TracedBarrier

        return TracedBarrier(self, parties, name)

    def condition(self, lock: "TracedLock | None" = None, name: str = "") -> "TracedCondition":
        """Create a traced condition variable (optionally over a given lock)."""
        from repro.instrument.condition import TracedCondition

        return TracedCondition(self, lock, name)

    def thread(
        self,
        target: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        name: str = "",
    ) -> "TracedThread":
        """Create a traced (not yet started) thread running ``target``."""
        from repro.instrument.threads import TracedThread

        return TracedThread(self, target, args, kwargs or {}, name)

    # -- streaming ----------------------------------------------------------------

    def stream_to(
        self,
        sink,
        *,
        ring_capacity: int = 65536,
        interval: float = 0.25,
        chunk_events: int = 8192,
    ):
        """Mirror this session's events into ``sink`` while it runs.

        ``sink`` is any :class:`repro.stream.ChunkSink` (a
        :class:`~repro.stream.ChunkFileSink` for a tailable ``.cls``
        file, a :class:`~repro.stream.ServiceSink` for the service's
        chunked-append endpoint).  Returns the started
        :class:`~repro.stream.StreamFlusher`; it is closed — final
        flush + sink finalize with this session's header — automatically
        when the ``with`` block exits, and the finalize result lands in
        :attr:`stream_result`.

        Call this before spawning traced threads: events already emitted
        by the *calling* thread are backfilled into the ring, but events
        other threads emit concurrently with the attach could miss it.
        """
        from repro.stream import EventRing, StreamFlusher

        if self._flusher is not None:
            raise TraceError("session is already streaming")
        if self._closed:
            raise TraceError("session is closed")
        flusher = StreamFlusher(
            EventRing(ring_capacity), sink,
            interval=interval, chunk_events=chunk_events,
        )
        self._flusher = flusher
        # Backfill events emitted before streaming started (e.g. the main
        # thread's THREAD_START from __enter__), then go live.  Interleaving
        # with concurrent emits is harmless: finalization re-sorts by
        # (time, seq), so ring order need not be emission order.
        with self._registry_lock:
            backlog = [row for buf in self._buffers.values() for row in buf]
        backlog.sort()  # by seq, the rows' unique first field
        for row in backlog:
            flusher.ring.push(row)
        self._ring = flusher.ring
        return flusher.start()

    def stream_header(self) -> dict[str, Any]:
        """JSON header (objects, threads, meta) for stream finalization."""
        with self._registry_lock:
            return {
                "objects": {
                    str(obj): {"kind": int(info.kind), "name": info.name}
                    for obj, info in self._objects.items()
                },
                "threads": {
                    str(tid): name for tid, name in self._thread_names.items()
                },
                "meta": self._meta(),
            }

    def _meta(self) -> dict[str, Any]:
        meta: dict[str, Any] = {"name": self.name, "source": "instrument"}
        if self._sampler is not None:
            meta["sampling"] = self._sampler.meta()
        return meta

    # -- assembly -----------------------------------------------------------------

    def trace(self) -> Trace:
        """Merge all per-thread buffers into a time-ordered trace."""
        if self._active:
            raise TraceError("session still active; exit the 'with' block first")
        with self._registry_lock:
            return Trace.from_events(
                [row for buf in self._buffers.values() for row in buf],
                objects=dict(self._objects),
                threads=dict(self._thread_names),
                meta=self._meta(),
            )
