"""Virtual-time discrete-event engine.

The engine owns the event queue, the cores, every thread state transition
and all trace emission.  Determinism comes from two rules:

* queue entries are ordered by ``(time, seq)`` where ``seq`` is a global
  insertion counter, so simultaneous events execute in causal insertion
  order;
* every waiter-queue decision is delegated to a deterministic policy
  object (FIFO by default).

Blocking semantics mirror Pthreads: a blocked acquirer is handed the lock
at release time (direct handoff, which is what the paper's waker
attribution rule — "the thread holding the same lock adjacently before
the blocked thread" — assumes), barriers release the whole cohort when
the last party arrives, and ``cond_wait`` atomically releases the mutex,
waits for a signal and reacquires.

A :class:`repro.sim.protocols.LockProtocol` decides queue discipline,
grant order, handoff latency and spinning for every lock-like object
(the default :class:`FifoProtocol` reproduces the historical engine
bit-identically); it is the policy seam that what-if forecasting
(:mod:`repro.core.replay_whatif`) swaps.

In core-limited mode (``cores=N``) a thread that is runnable but has no
core waits in a FIFO ready queue, and its wait is folded into its next
execution segment (no extra trace events).  A core-limited trace's
compute gaps therefore already contain its core waits, which is why
:mod:`repro.replay` replays such traces with no core limit.

All paper experiments run with ``cores=None`` (as many cores as threads,
like the paper's 24-thread POWER7 runs) under the FIFO protocol.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import DeadlockError, SimulationError, SyncUsageError
from repro.sim import syscalls as sc
from repro.sim.protocols import FifoProtocol, LockProtocol, get_protocol
from repro.sim.sync import (
    SimBarrier,
    SimCondition,
    SimMutex,
    SimRWLock,
    SimSemaphore,
)
from repro.sim.thread import SimThread, ThreadBody, ThreadHandle, ThreadState
from repro.sim.tracing import TraceCollector
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["Simulator", "SimResult"]


@dataclass(frozen=True)
class SimResult:
    """Outcome of a simulation run."""

    trace: Trace
    completion_time: float
    results: dict[int, Any] = field(default_factory=dict)

    @property
    def nthreads(self) -> int:
        return len(self.trace.thread_ids)


class Simulator:
    """Discrete-event executor for simulated multithreaded programs."""

    def __init__(
        self,
        cores: int | None = None,
        seed: int = 0,
        name: str = "",
        max_events: int = 50_000_000,
        protocol: LockProtocol | str | None = None,
    ):
        if cores is not None and cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.cores = cores
        self.seed = seed
        self.name = name
        self.max_events = max_events
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._qseq = 0
        self._busy = 0
        self.protocol = self._resolve_protocol(protocol)
        self.protocol.bind(self)
        self._ready: deque[SimThread] = deque()  # runnable, waiting for a core
        self.threads: dict[int, SimThread] = {}
        self._next_tid = 0
        self._live = 0
        self._ran = False
        self.collector = TraceCollector()
        self._seedseq = np.random.SeedSequence(seed)
        self._handlers: dict[type, Callable[[SimThread, Any], None]] = {
            sc.Compute: self._handle_compute,
            sc.Acquire: self._handle_acquire,
            sc.TryAcquire: self._handle_try_acquire,
            sc.Release: self._handle_release,
            sc.BarrierWait: self._handle_barrier_wait,
            sc.CondWait: self._handle_cond_wait,
            sc.CondSignal: self._handle_cond_signal,
            sc.CondBroadcast: self._handle_cond_broadcast,
            sc.SemAcquire: self._handle_sem_acquire,
            sc.SemRelease: self._handle_sem_release,
            sc.RWAcquire: self._handle_rw_acquire,
            sc.RWRelease: self._handle_rw_release,
            sc.Spawn: self._handle_spawn,
            sc.Join: self._handle_join,
            sc.YieldCore: self._handle_yield_core,
        }

    @staticmethod
    def _resolve_protocol(protocol: LockProtocol | str | None) -> LockProtocol:
        if protocol is None:
            return FifoProtocol()
        if isinstance(protocol, str):
            return get_protocol(protocol)
        return protocol

    def set_protocol(self, protocol: LockProtocol | str) -> None:
        """Swap the lock protocol before the run starts.

        Exists for the replay layer, whose recorded protocol can only be
        built after the simulator's objects have been registered.
        """
        if self._ran:
            raise SimulationError("cannot change the lock protocol after run()")
        self.protocol = self._resolve_protocol(protocol)
        self.protocol.bind(self)

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def _post(self, time: float, fn: Callable[[], None]) -> None:
        self._qseq += 1
        heapq.heappush(self._queue, (time, self._qseq, fn))

    # -------------------------------------------------------------- factories

    def mutex(self, name: str = "", reentrant: bool = False) -> SimMutex:
        """Create a traced mutex (``reentrant=True`` for RLock semantics)."""
        obj = self.collector.register_object(SimMutex.kind, name)
        return SimMutex(obj=obj, name=name, reentrant=reentrant)

    def barrier(self, parties: int, name: str = "") -> SimBarrier:
        """Create a traced cyclic barrier for ``parties`` threads."""
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1, got {parties}")
        obj = self.collector.register_object(SimBarrier.kind, name)
        return SimBarrier(obj=obj, name=name, parties=parties)

    def condition(self, name: str = "") -> SimCondition:
        """Create a traced condition variable."""
        obj = self.collector.register_object(SimCondition.kind, name)
        return SimCondition(obj=obj, name=name)

    def semaphore(self, value: int = 1, name: str = "") -> SimSemaphore:
        """Create a traced counting semaphore with initial ``value``."""
        if value < 0:
            raise SimulationError(f"semaphore value must be >= 0, got {value}")
        obj = self.collector.register_object(SimSemaphore.kind, name)
        return SimSemaphore(obj=obj, name=name, value=value)

    def rwlock(self, name: str = "") -> SimRWLock:
        """Create a traced reader-writer lock."""
        obj = self.collector.register_object(SimRWLock.kind, name)
        return SimRWLock(obj=obj, name=name)

    # ------------------------------------------------------------- threading

    def spawn(
        self,
        fn: ThreadBody,
        *args: Any,
        name: str | None = None,
        priority: int = 0,
    ) -> ThreadHandle:
        """Create a root thread (before :meth:`run`), starting at time 0."""
        if self._ran:
            raise SimulationError("cannot spawn root threads after run()")
        return self._add_thread(fn, args, name, parent=None, priority=priority).handle

    def _add_thread(
        self,
        fn: ThreadBody,
        args: tuple,
        name: str | None,
        parent: SimThread | None,
        priority: int = 0,
    ) -> SimThread:
        tid = self._next_tid
        self._next_tid += 1
        tname = name if name is not None else f"T{tid}"
        rng = np.random.Generator(np.random.PCG64(self._seedseq.spawn(1)[0]))
        thread = SimThread(self, tid, tname, fn, args, rng, priority=priority)
        self.threads[tid] = thread
        self.collector.register_thread(tid, tname)
        self._live += 1
        if parent is not None:
            self.collector.emit(self._now, parent.tid, EventType.THREAD_CREATE, arg=tid)
        self.collector.emit(self._now, tid, EventType.THREAD_START)
        thread.start_generator()
        self._make_runnable(thread, None)
        return thread

    def _finish_thread(self, thread: SimThread) -> None:
        self.collector.emit(self._now, thread.tid, EventType.THREAD_EXIT)
        thread.state = ThreadState.DONE
        self._live -= 1
        self._release_core(thread)
        for joiner in thread.joiners:
            self.collector.emit(
                self._now, joiner.tid, EventType.JOIN_END, arg=thread.tid
            )
            self._make_runnable(joiner, None)
        thread.joiners.clear()

    # --------------------------------------------------------------- cores

    def _core_available(self) -> bool:
        return self.cores is None or self._busy < self.cores

    def _grant_core(self, thread: SimThread) -> None:
        thread.has_core = True
        self._busy += 1
        thread.state = ThreadState.RUNNING

    def _schedule_next_core(self) -> None:
        if self._ready and self._core_available():
            nxt = self._ready.popleft()
            self._grant_core(nxt)
            value, nxt.pending = nxt.pending, None
            self._resume(nxt, value)

    def _release_core(self, thread: SimThread) -> None:
        if not thread.has_core:
            return
        thread.has_core = False
        self._busy -= 1
        self._schedule_next_core()

    def _make_runnable(self, thread: SimThread, value: Any) -> None:
        """Thread became runnable (woken or newly created)."""
        thread.block_reason = ""
        if thread.has_core:
            # Was spinning on its core while blocked: resume in place.
            thread.state = ThreadState.RUNNING
            self._resume(thread, value)
        elif self._core_available():
            self._grant_core(thread)
            self._resume(thread, value)
        else:
            thread.state = ThreadState.READY
            thread.pending = value
            self._ready.append(thread)

    def _block(self, thread: SimThread, reason: str, spin: float = 0.0) -> None:
        thread.state = ThreadState.BLOCKED
        thread.block_reason = reason
        thread.block_start = self._now
        if spin > 0.0 and self.cores is not None and thread.has_core:
            # Spin-then-block: burn the core for the spin window, then park.
            self._post(self._now + spin, lambda: self._spin_expire(thread))
        else:
            self._release_core(thread)

    def _spin_expire(self, thread: SimThread) -> None:
        if thread.state is ThreadState.BLOCKED and thread.has_core:
            thread.has_core = False
            self._busy -= 1
            self._schedule_next_core()

    # --------------------------------------------------------------- stepping

    def _resume(self, thread: SimThread, value: Any) -> None:
        self._post(self._now, lambda: self._step(thread, value))

    def _step(self, thread: SimThread, value: Any) -> None:
        try:
            request = thread.gen.send(value)  # type: ignore[union-attr]
        except StopIteration as stop:
            if stop.value is not None:
                thread.result = stop.value
            self._finish_thread(thread)
            return
        except Exception as exc:
            raise SimulationError(
                f"thread {thread.name} (tid {thread.tid}) raised {type(exc).__name__}: {exc}"
            ) from exc
        handler = self._handlers.get(type(request))
        if handler is None:
            raise SimulationError(
                f"thread {thread.name} yielded non-request object {request!r}"
            )
        handler(thread, request)

    # --------------------------------------------------------------- handlers

    def _handle_compute(self, thread: SimThread, req: sc.Compute) -> None:
        if req.duration == 0:
            self._resume(thread, None)
        else:
            self._post(self._now + req.duration, lambda: self._step(thread, None))

    # -- lock grant plumbing -------------------------------------------------

    def _emit_obtain(self, lock: Any, thread: SimThread, contended: bool) -> None:
        arg = self.protocol.obtain_arg(lock, thread, contended)
        self.collector.emit(self._now, thread.tid, EventType.OBTAIN, obj=lock.obj, arg=arg)

    def _handle_acquire(self, thread: SimThread, req: sc.Acquire) -> None:
        m = req.mutex
        if m.owner is thread:
            if not m.reentrant:
                raise SyncUsageError(
                    f"thread {thread.name} re-acquired non-reentrant mutex {m.name!r}"
                )
            m.depth += 1  # nested acquire: no trace events (outermost only)
            self._resume(thread, None)
            return
        self.collector.emit(self._now, thread.tid, EventType.ACQUIRE, obj=m.obj)
        if m.owner is None and self.protocol.grant_free(m, thread):
            m.owner = thread
            m.depth = 1
            self._emit_obtain(m, thread, contended=False)
            self._resume(thread, None)
        else:
            self.protocol.enqueue(m, thread)
            self._block(
                thread,
                f"mutex {m.name or m.obj}",
                spin=self.protocol.spin_hold(m, thread),
            )

    def _handle_try_acquire(self, thread: SimThread, req: sc.TryAcquire) -> None:
        m = req.mutex
        if m.owner is thread and m.reentrant:
            m.depth += 1
            self._resume(thread, True)
        elif m.owner is None and self.protocol.grant_free(m, thread):
            self.collector.emit(self._now, thread.tid, EventType.ACQUIRE, obj=m.obj)
            m.owner = thread
            m.depth = 1
            self._emit_obtain(m, thread, contended=False)
            self._resume(thread, True)
        else:
            self._resume(thread, False)

    def _release_mutex(self, thread: SimThread, m: SimMutex) -> None:
        if m.owner is not thread:
            holder = m.owner.name if m.owner else "nobody"
            raise SyncUsageError(
                f"thread {thread.name} released mutex {m.name!r} held by {holder}"
            )
        if m.reentrant and m.depth > 1:
            m.depth -= 1  # still held; no trace events until outermost release
            return
        m.depth = 0
        self.collector.emit(self._now, thread.tid, EventType.RELEASE, obj=m.obj)
        nxt = self.protocol.select(m) if m.waiters else None
        if nxt is None:
            m.owner = None
            return
        m.owner = nxt
        m.depth = 1
        delay = self.protocol.handoff_latency(m, nxt)
        if delay > 0:
            self._post(self._now + delay, lambda: self._complete_handoff(m, nxt))
        else:
            self._complete_handoff(m, nxt)

    def _complete_handoff(self, lock: Any, nxt: SimThread) -> None:
        self._emit_obtain(lock, nxt, contended=True)
        self._make_runnable(nxt, None)

    def _handle_release(self, thread: SimThread, req: sc.Release) -> None:
        self._release_mutex(thread, req.mutex)
        self._resume(thread, None)

    def _handle_barrier_wait(self, thread: SimThread, req: sc.BarrierWait) -> None:
        b = req.barrier
        gen = b.generation
        self.collector.emit(self._now, thread.tid, EventType.BARRIER_ARRIVE, obj=b.obj, arg=gen)
        b.arrived.append(thread)
        if len(b.arrived) == b.parties:
            cohort, b.arrived = b.arrived, []
            b.generation += 1
            for t in cohort:
                self.collector.emit(
                    self._now, t.tid, EventType.BARRIER_DEPART, obj=b.obj, arg=gen
                )
            for t in cohort:
                if t is thread:
                    self._resume(t, None)
                else:
                    self._make_runnable(t, None)
        else:
            self._block(thread, f"barrier {b.name or b.obj}")

    def _handle_cond_wait(self, thread: SimThread, req: sc.CondWait) -> None:
        cv, m = req.cond, req.mutex
        if m.owner is not thread:
            raise SyncUsageError(
                f"thread {thread.name} called cond_wait on {cv.name!r} "
                f"without holding mutex {m.name!r}"
            )
        if m.reentrant and m.depth > 1:
            raise SyncUsageError(
                f"thread {thread.name} called cond_wait on {cv.name!r} with "
                f"mutex {m.name!r} held recursively (depth {m.depth})"
            )
        self.collector.emit(self._now, thread.tid, EventType.COND_BLOCK, obj=cv.obj)
        cv.waiters.append((thread, m))
        # Atomically release the mutex; the waker attribution for the block
        # is the future signaller, not the next lock holder.
        self._release_mutex(thread, m)
        self._block(thread, f"cond {cv.name or cv.obj}")

    def _wake_cond_waiter(
        self, signaler: SimThread, cv: SimCondition, waiter: SimThread, m: SimMutex
    ) -> None:
        self.collector.emit(
            self._now, waiter.tid, EventType.COND_WAKE, obj=cv.obj, arg=signaler.tid
        )
        # The woken thread immediately reacquires the mutex (blocking).
        self.collector.emit(self._now, waiter.tid, EventType.ACQUIRE, obj=m.obj)
        if m.owner is None and self.protocol.grant_free(m, waiter):
            m.owner = waiter
            m.depth = 1
            self._emit_obtain(m, waiter, contended=False)
            self._make_runnable(waiter, None)
        else:
            self.protocol.enqueue(m, waiter)
            waiter.block_start = self._now
            waiter.block_reason = f"mutex {m.name or m.obj}"

    def _handle_cond_signal(self, thread: SimThread, req: sc.CondSignal) -> None:
        cv = req.cond
        n = 1 if cv.waiters else 0
        self.collector.emit(self._now, thread.tid, EventType.COND_SIGNAL, obj=cv.obj, arg=n)
        if cv.waiters:
            waiter, m = self.protocol.select_cond_waiter(cv)
            self._wake_cond_waiter(thread, cv, waiter, m)
        self._resume(thread, n)

    def _handle_cond_broadcast(self, thread: SimThread, req: sc.CondBroadcast) -> None:
        cv = req.cond
        n = len(cv.waiters)
        self.collector.emit(self._now, thread.tid, EventType.COND_BROADCAST, obj=cv.obj, arg=n)
        while cv.waiters:
            waiter, m = self.protocol.select_cond_waiter(cv)
            self._wake_cond_waiter(thread, cv, waiter, m)
        self._resume(thread, n)

    def _handle_sem_acquire(self, thread: SimThread, req: sc.SemAcquire) -> None:
        sem = req.sem
        self.collector.emit(self._now, thread.tid, EventType.ACQUIRE, obj=sem.obj)
        if sem.value > 0 and self.protocol.grant_free(sem, thread):
            sem.value -= 1
            self._emit_obtain(sem, thread, contended=False)
            self._resume(thread, None)
            self._drain_sem_waiters(sem)
        else:
            self.protocol.enqueue(sem, thread)
            self._block(
                thread,
                f"semaphore {sem.name or sem.obj}",
                spin=self.protocol.spin_hold(sem, thread),
            )

    def _drain_sem_waiters(self, sem: SimSemaphore) -> None:
        # Only reachable with value > 0 *and* queued waiters, which the
        # FIFO baseline never produces: an order-constrained protocol may
        # queue an early arriver, whose turn can come while value is still
        # positive (after the rightful thread took its grant).
        while sem.value > 0 and sem.waiters:
            nxt = self.protocol.select(sem)
            if nxt is None:
                return
            sem.value -= 1
            self._emit_obtain(sem, nxt, contended=True)
            self._make_runnable(nxt, None)

    def _handle_sem_release(self, thread: SimThread, req: sc.SemRelease) -> None:
        sem = req.sem
        self.collector.emit(self._now, thread.tid, EventType.RELEASE, obj=sem.obj)
        nxt = self.protocol.select(sem) if sem.waiters else None
        if nxt is None:
            sem.value += 1
            self._drain_sem_waiters(sem)
        else:
            delay = self.protocol.handoff_latency(sem, nxt)
            if delay > 0:
                self._post(self._now + delay, lambda: self._complete_handoff(sem, nxt))
            else:
                self._complete_handoff(sem, nxt)
        self._resume(thread, None)

    def _handle_rw_acquire(self, thread: SimThread, req: sc.RWAcquire) -> None:
        rw, write = req.rwlock, req.write
        mode = 1 if write else 0
        self.collector.emit(self._now, thread.tid, EventType.ACQUIRE, obj=rw.obj, arg=mode)
        if self.protocol.rw_can_grant(rw, thread, write):
            if write:
                rw.writer = thread
            else:
                rw.readers.add(thread)
            self._emit_obtain(rw, thread, contended=False)
            self._resume(thread, None)
            self._drain_rw_waiters(rw)
        else:
            self.protocol.rw_enqueue(rw, thread, write)
            self._block(
                thread,
                f"rwlock {rw.name or rw.obj}",
                spin=self.protocol.spin_hold(rw, thread),
            )

    def _handle_rw_release(self, thread: SimThread, req: sc.RWRelease) -> None:
        rw, write = req.rwlock, req.write
        mode = 1 if write else 0
        if write:
            if rw.writer is not thread:
                raise SyncUsageError(
                    f"thread {thread.name} write-released rwlock {rw.name!r} it does not hold"
                )
            rw.writer = None
        else:
            if thread not in rw.readers:
                raise SyncUsageError(
                    f"thread {thread.name} read-released rwlock {rw.name!r} it does not hold"
                )
            rw.readers.discard(thread)
        self.collector.emit(self._now, thread.tid, EventType.RELEASE, obj=rw.obj, arg=mode)
        self._drain_rw_waiters(rw)
        self._resume(thread, None)

    def _drain_rw_waiters(self, rw: SimRWLock) -> None:
        for waiter, _wants_write in self.protocol.rw_drain(rw):
            self._emit_obtain(rw, waiter, contended=True)
            self._make_runnable(waiter, None)

    def _handle_spawn(self, thread: SimThread, req: sc.Spawn) -> None:
        child = self._add_thread(
            req.fn, req.args, req.name, parent=thread, priority=req.priority
        )
        self._resume(thread, child.handle)

    def _handle_join(self, thread: SimThread, req: sc.Join) -> None:
        target = req.handle._thread
        self.collector.emit(self._now, thread.tid, EventType.JOIN_BEGIN, arg=target.tid)
        if target.state is ThreadState.DONE:
            self.collector.emit(self._now, thread.tid, EventType.JOIN_END, arg=target.tid)
            self._resume(thread, None)
        else:
            target.joiners.append(thread)
            self._block(thread, f"join {target.name}")

    def _handle_yield_core(self, thread: SimThread, req: sc.YieldCore) -> None:
        if self.cores is None or not self._ready:
            self._resume(thread, None)
            return
        thread.has_core = False
        self._busy -= 1
        thread.state = ThreadState.READY
        thread.pending = None
        self._ready.append(thread)
        self._schedule_next_core()

    # --------------------------------------------------------------- running

    def run(self, meta: dict[str, Any] | None = None) -> SimResult:
        """Execute to completion and return the trace and results."""
        if self._ran:
            raise SimulationError("Simulator.run() may only be called once")
        self._ran = True
        processed = 0
        while self._queue:
            processed += 1
            if processed > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "likely a livelock in the simulated program"
                )
            time, _, fn = heapq.heappop(self._queue)
            self._now = time
            fn()
        blocked = {
            t.tid: t.block_reason or t.state.value
            for t in self.threads.values()
            if t.state in (ThreadState.BLOCKED, ThreadState.READY)
        }
        if blocked:
            raise DeadlockError(blocked)
        full_meta = {
            "name": self.name,
            "cores": self.cores,
            "seed": self.seed,
            "nthreads": len(self.threads),
        }
        if self.protocol.name != "fifo":
            full_meta["protocol"] = self.protocol.name
        full_meta.update(meta or {})
        trace = self.collector.build(full_meta)
        results = {tid: t.result for tid, t in self.threads.items()}
        return SimResult(trace=trace, completion_time=trace.duration, results=results)
