"""Synchronization event records.

The paper's instrumentation (Fig. 4) records, at every ``MAGIC()`` point,
the timestamp, event type, synchronization-object identifier and thread
identifier.  We use the same four fields plus:

``seq``
    A globally monotonic sequence number.  Virtual-time traces routinely
    contain simultaneous events; ``seq`` makes event order total and
    deterministic (the simulator assigns it in causal order, so e.g. a
    lock RELEASE always precedes the OBTAIN it enables even when both
    carry the same timestamp).

``arg``
    One type-specific integer:

    =================  =====================================================
    event type         meaning of ``arg``
    =================  =====================================================
    OBTAIN             1 if the acquisition was contended (blocked), else 0
    BARRIER_ARRIVE /   barrier generation (episode) index, counted from 0
    BARRIER_DEPART
    COND_WAKE          tid of the signalling thread
    COND_SIGNAL /      number of threads woken
    COND_BROADCAST
    THREAD_CREATE      tid of the created child
    JOIN_BEGIN /       tid of the thread being joined
    JOIN_END
    ACQUIRE/RELEASE    rwlocks: 0 = read mode, 1 = write mode (0 otherwise)
    =================  =====================================================
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventType", "ObjectKind", "Event", "NO_OBJECT"]

#: Object id used for events not tied to a synchronization object.
NO_OBJECT = -1


class EventType(enum.IntEnum):
    """Verb of a synchronization event (the paper's "event type")."""

    # -- lock-like objects (mutex, semaphore, rwlock) ---------------------
    ACQUIRE = 1  #: thread starts trying to acquire (paper: "acquire the lock")
    OBTAIN = 2  #: thread got ownership (paper: "obtain the lock")
    RELEASE = 3  #: thread released ownership (paper: "release the lock")
    # -- barriers ----------------------------------------------------------
    BARRIER_ARRIVE = 4  #: thread reached the barrier
    BARRIER_DEPART = 5  #: thread left the barrier (all arrived)
    # -- condition variables ------------------------------------------------
    COND_BLOCK = 6  #: thread started waiting on a condition variable
    COND_WAKE = 7  #: waiting thread received a signal (paper: "woken up")
    COND_SIGNAL = 8  #: signalling side (paper: "signal sent already")
    COND_BROADCAST = 9  #: broadcasting side
    # -- thread lifecycle ----------------------------------------------------
    THREAD_CREATE = 10  #: parent spawned a child thread
    THREAD_START = 11  #: first event of every thread
    THREAD_EXIT = 12  #: last event of every thread
    JOIN_BEGIN = 13  #: thread starts joining another thread
    JOIN_END = 14  #: join completed (target exited)

    @property
    def is_blocking_entry(self) -> bool:
        """True for events that may begin a blocked interval."""
        return self in _BLOCKING_ENTRY

    @property
    def is_wakeup(self) -> bool:
        """True for events that end a (potentially) blocked interval."""
        return self in _WAKEUP


_BLOCKING_ENTRY = frozenset(
    {EventType.ACQUIRE, EventType.BARRIER_ARRIVE, EventType.COND_BLOCK, EventType.JOIN_BEGIN}
)
_WAKEUP = frozenset(
    {EventType.OBTAIN, EventType.BARRIER_DEPART, EventType.COND_WAKE, EventType.JOIN_END}
)


class ObjectKind(enum.IntEnum):
    """Kind of synchronization object an event refers to."""

    NONE = 0
    MUTEX = 1
    BARRIER = 2
    CONDITION = 3
    SEMAPHORE = 4
    RWLOCK = 5

    @property
    def is_lock_like(self) -> bool:
        """Objects whose ownership transfers via ACQUIRE/OBTAIN/RELEASE."""
        return self in (ObjectKind.MUTEX, ObjectKind.SEMAPHORE, ObjectKind.RWLOCK)


class Event(NamedTuple):
    """A single synchronization event record.

    An event *is* a record row: its fields are those of
    :data:`repro.trace.schema.EVENT_DTYPE`, in the same order, so a list
    of events (or of plain 6-tuples) packs into a record block with one
    ``np.array`` call.  Bulk storage is that structured array; this class
    is the named per-row view :class:`repro.trace.Trace` yields.
    """

    seq: int
    time: float
    tid: int
    etype: EventType
    obj: int = NO_OBJECT
    arg: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        objpart = f" obj={self.obj}" if self.obj != NO_OBJECT else ""
        argpart = f" arg={self.arg}" if self.arg else ""
        return f"[{self.seq}] t={self.time:.6g} T{self.tid} {self.etype.name}{objpart}{argpart}"
