"""Simulated threads.

A thread body is a generator function whose first parameter is the
:class:`SimThread` itself (conventionally named ``env``).  The body
suspends by yielding request objects and receives results through the
``yield`` expression::

    def worker(env, n):
        yield env.compute(1.5)
        ok = yield env.try_acquire(lock)
        if not ok:
            yield env.acquire(lock)
        yield env.compute(n * 0.1)
        yield env.release(lock)

Helpers can be factored into sub-generators and invoked with
``yield from`` (their ``return`` value propagates), which is how the
concurrent data structures in :mod:`repro.workloads.queues` are built.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

import numpy as np

from repro.sim import syscalls as sc

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.sync import SimBarrier, SimCondition, SimMutex, SimRWLock, SimSemaphore

__all__ = ["ThreadState", "ThreadHandle", "SimThread", "ThreadBody"]

#: Type of a thread body: a generator function taking (env, *args).
ThreadBody = Callable[..., Generator[sc.Request, Any, Any]]


def _empty_body() -> Generator[sc.Request, Any, None]:
    """Generator that finishes on the first resume (see ``start_generator``)."""
    return
    yield  # pragma: no cover - makes this a generator function


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    CREATED = "created"
    READY = "ready"  # runnable, waiting for a core
    RUNNING = "running"  # owns a core (executing or computing)
    BLOCKED = "blocked"  # waiting on a synchronization object
    DONE = "done"


class ThreadHandle:
    """Opaque, user-facing handle to a spawned thread (joinable)."""

    __slots__ = ("_thread",)

    def __init__(self, thread: "SimThread"):
        self._thread = thread

    @property
    def tid(self) -> int:
        return self._thread.tid

    @property
    def name(self) -> str:
        return self._thread.name

    @property
    def done(self) -> bool:
        return self._thread.state is ThreadState.DONE

    @property
    def result(self) -> Any:
        """Return value of the thread body (valid once ``done``)."""
        return self._thread.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadHandle {self.name} tid={self.tid} {self._thread.state.value}>"


class SimThread:
    """Engine-side thread object; also the ``env`` API seen by thread code."""

    __slots__ = (
        "engine",
        "tid",
        "name",
        "state",
        "has_core",
        "block_reason",
        "gen",
        "handle",
        "rng",
        "joiners",
        "result",
        "pending",
        "priority",
        "block_start",
        "replay_tid",
        "_body",
        "_args",
    )

    def __init__(
        self,
        engine: "Simulator",
        tid: int,
        name: str,
        body: ThreadBody,
        args: tuple,
        rng: np.random.Generator,
        priority: int = 0,
    ):
        self.engine = engine
        self.tid = tid
        self.name = name
        self.state = ThreadState.CREATED
        self.has_core = False
        self.block_reason = ""
        self._body = body
        self._args = args
        self.gen: Generator[sc.Request, Any, Any] | None = None
        self.handle = ThreadHandle(self)
        self.rng = rng
        self.joiners: list["SimThread"] = []
        self.result: Any = None
        self.pending: Any = None  # resume value parked while waiting for a core
        self.priority = priority  # lock priority (the priority protocol)
        self.block_start = 0.0  # virtual time the current block began
        self.replay_tid: int | None = None  # original tid during trace replay

    def start_generator(self) -> None:
        """Instantiate the body generator (deferred so spawn stays cheap)."""
        out = self._body(self, *self._args)
        if isinstance(out, Generator):
            self.gen = out
        else:
            # A body with no yields is a plain function: it already ran to
            # completion; stand in an empty generator so the engine's first
            # resume immediately finishes the thread.
            self.result = out
            self.gen = _empty_body()

    # -- properties available to thread code --------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    # -- request constructors (the simulated "libc") ------------------------

    def compute(self, duration: float) -> sc.Compute:
        """Consume ``duration`` units of virtual CPU time."""
        return sc.Compute(duration)

    def acquire(self, mutex: "SimMutex") -> sc.Acquire:
        """Block until ``mutex`` is obtained."""
        return sc.Acquire(mutex)

    def try_acquire(self, mutex: "SimMutex") -> sc.TryAcquire:
        """Attempt ``mutex`` without blocking; yields back ``True`` if obtained."""
        return sc.TryAcquire(mutex)

    def release(self, mutex: "SimMutex") -> sc.Release:
        """Release a held ``mutex``."""
        return sc.Release(mutex)

    def barrier_wait(self, barrier: "SimBarrier") -> sc.BarrierWait:
        """Wait for all parties at ``barrier``."""
        return sc.BarrierWait(barrier)

    def cond_wait(self, cond: "SimCondition", mutex: "SimMutex") -> sc.CondWait:
        """Release ``mutex``, wait for a signal on ``cond``, reacquire."""
        return sc.CondWait(cond, mutex)

    def cond_signal(self, cond: "SimCondition") -> sc.CondSignal:
        """Wake one waiter of ``cond``."""
        return sc.CondSignal(cond)

    def cond_broadcast(self, cond: "SimCondition") -> sc.CondBroadcast:
        """Wake all waiters of ``cond``."""
        return sc.CondBroadcast(cond)

    def sem_acquire(self, sem: "SimSemaphore") -> sc.SemAcquire:
        """Decrement ``sem``, blocking at zero."""
        return sc.SemAcquire(sem)

    def sem_release(self, sem: "SimSemaphore") -> sc.SemRelease:
        """Increment ``sem``."""
        return sc.SemRelease(sem)

    def rw_acquire_read(self, rwlock: "SimRWLock") -> sc.RWAcquire:
        """Acquire ``rwlock`` for reading."""
        return sc.RWAcquire(rwlock, write=False)

    def rw_acquire_write(self, rwlock: "SimRWLock") -> sc.RWAcquire:
        """Acquire ``rwlock`` for writing."""
        return sc.RWAcquire(rwlock, write=True)

    def rw_release_read(self, rwlock: "SimRWLock") -> sc.RWRelease:
        """Release a read hold on ``rwlock``."""
        return sc.RWRelease(rwlock, write=False)

    def rw_release_write(self, rwlock: "SimRWLock") -> sc.RWRelease:
        """Release the write hold on ``rwlock``."""
        return sc.RWRelease(rwlock, write=True)

    def spawn(
        self, fn: ThreadBody, *args: Any, name: str | None = None, priority: int = 0
    ) -> sc.Spawn:
        """Create a child thread; yields back its :class:`ThreadHandle`."""
        return sc.Spawn(fn, args, name, priority)

    def join(self, handle: ThreadHandle) -> sc.Join:
        """Block until ``handle``'s thread exits."""
        return sc.Join(handle)

    def join_all(self, handles: Iterable[ThreadHandle]) -> Generator[sc.Request, Any, None]:
        """Sub-generator joining several threads: ``yield from env.join_all(hs)``."""
        for h in handles:
            yield sc.Join(h)

    def yield_core(self) -> sc.YieldCore:
        """Voluntarily requeue behind other ready threads (core-limited mode)."""
        return sc.YieldCore()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name} tid={self.tid} {self.state.value}>"
