"""Synchronization primitive state for the simulator.

These classes hold *state only* (owner, waiter queues, generation
counters); the blocking/waking protocol and all trace emission live in
:class:`repro.sim.engine.Simulator`, which keeps every state transition in
one auditable place, and who is granted what is decided by its
:class:`repro.sim.protocols.LockProtocol` (FIFO by default).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.trace.events import ObjectKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

__all__ = ["SimObject", "SimMutex", "SimBarrier", "SimCondition", "SimSemaphore", "SimRWLock"]


@dataclass(eq=False)
class SimObject:
    """Base class: a traced synchronization object."""

    obj: int
    name: str

    kind = ObjectKind.NONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name or self.obj}>"


@dataclass(eq=False)
class SimMutex(SimObject):
    """A mutual-exclusion lock with a FIFO wait queue.

    ``reentrant=True`` makes it an RLock: the owner may re-acquire, and
    only the outermost acquire/release pair emits trace events (matching
    the instrumentation layer's :class:`TracedRLock`).
    """

    kind = ObjectKind.MUTEX

    owner: "SimThread | None" = None
    waiters: deque["SimThread"] = field(default_factory=deque)
    reentrant: bool = False
    depth: int = 0  # recursion depth while held (reentrant only)


@dataclass(eq=False)
class SimBarrier(SimObject):
    """A cyclic barrier for a fixed number of parties."""

    kind = ObjectKind.BARRIER

    parties: int = 1
    generation: int = 0
    arrived: list["SimThread"] = field(default_factory=list)


@dataclass(eq=False)
class SimCondition(SimObject):
    """A condition variable; waiters remember the mutex to reacquire."""

    kind = ObjectKind.CONDITION

    waiters: deque[tuple["SimThread", SimMutex]] = field(default_factory=deque)


@dataclass(eq=False)
class SimSemaphore(SimObject):
    """A counting semaphore with FIFO handoff on release."""

    kind = ObjectKind.SEMAPHORE

    value: int = 1
    waiters: deque["SimThread"] = field(default_factory=deque)


@dataclass(eq=False)
class SimRWLock(SimObject):
    """A reader-writer lock: one writer or any number of readers."""

    kind = ObjectKind.RWLOCK

    readers: set["SimThread"] = field(default_factory=set)
    writer: "SimThread | None" = None
    waiters: deque[tuple["SimThread", bool]] = field(default_factory=deque)  # (thread, write)
