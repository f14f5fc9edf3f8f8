"""The lock-protocol interface and the FIFO baseline.

A :class:`LockProtocol` owns every policy decision the engine makes when
threads contend for lock-like objects (mutexes, semaphores, reader-writer
locks) and when condition-variable waiters are woken:

* queue discipline — where a blocked acquirer waits (:meth:`enqueue`)
  and who is granted ownership at release time (:meth:`select`);
* whether an arriving thread may take a *free* lock at all
  (:meth:`grant_free` — the recorded/identity protocol defers a thread
  that is ahead of its recorded turn);
* handoff cost — an optional wake-up latency between a release and the
  waiter's OBTAIN (:meth:`handoff_latency`), and an optional spin window
  during which a blocked thread keeps its core in core-limited mode
  (:meth:`spin_hold`);
* reader-writer policy — :meth:`rw_can_grant` for arrivals and
  :meth:`rw_drain` for release-time grants (the *drain* mutates the
  rwlock's holder state; the engine only emits events and wakes
  threads);
* condition wake order — :meth:`select_cond_waiter`.

The base class implements the engine's historical behavior: strict FIFO
everywhere, zero handoff latency, no spinning, no priorities.  Running
any simulation with the default protocol is bit-identical to the
pre-protocol engine — the golden reports pin this.

State-mutation contract (kept deliberately asymmetric so the default
path stays allocation-free): for mutexes and semaphores the *engine*
mutates ownership and the protocol only picks threads; for rwlocks the
release-time :meth:`rw_drain` mutates ``rw.readers``/``rw.writer``
itself because batching decisions and state updates are inseparable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.sync import SimCondition, SimMutex, SimRWLock
    from repro.sim.thread import SimThread

__all__ = ["LockProtocol", "FifoProtocol"]


class LockProtocol:
    """Pluggable acquisition policy (see module docstring).

    Subclasses override the hooks they care about; every default is the
    FIFO baseline.  One protocol instance serves one simulator run.
    """

    #: Registry name (subclasses override).
    name = "fifo"

    def __init__(self) -> None:
        self.engine: "Simulator | None" = None

    def bind(self, engine: "Simulator") -> None:
        """Attach to the engine (called once, before the run starts)."""
        self.engine = engine

    # -- mutex / semaphore queue discipline ---------------------------------

    def enqueue(self, lock: Any, thread: "SimThread") -> None:
        """Queue a blocked acquirer."""
        lock.waiters.append(thread)

    def select(self, lock: Any) -> "SimThread | None":
        """Pick the next owner at release time (``None`` leaves it free).

        Only called when ``lock.waiters`` is non-empty; the returned
        thread must have been removed from the queue.
        """
        return lock.waiters.popleft()

    def grant_free(self, lock: Any, thread: "SimThread") -> bool:
        """May ``thread`` take this currently-free (or counting) lock?"""
        return True

    def handoff_latency(self, lock: Any, thread: "SimThread") -> float:
        """Virtual-time delay between RELEASE and the waiter's OBTAIN."""
        return 0.0

    def spin_hold(self, lock: Any, thread: "SimThread") -> float:
        """How long a blocking acquirer keeps its core (core-limited mode)."""
        return 0.0

    def obtain_arg(self, lock: Any, thread: "SimThread", contended: bool) -> int:
        """The OBTAIN event's ``arg`` (1 = contended acquisition)."""
        return 1 if contended else 0

    # -- reader-writer policy ------------------------------------------------

    def rw_can_grant(self, rw: "SimRWLock", thread: "SimThread", write: bool) -> bool:
        """May an arriving request be granted immediately?

        FIFO fairness: queue behind any earlier waiter, so writers cannot
        starve behind a stream of late readers.
        """
        if rw.waiters:
            return False
        if write:
            return rw.writer is None and not rw.readers
        return rw.writer is None

    def rw_enqueue(self, rw: "SimRWLock", thread: "SimThread", write: bool) -> None:
        rw.waiters.append((thread, write))

    def rw_drain(self, rw: "SimRWLock") -> list[tuple["SimThread", bool]]:
        """Grants to perform after a release (mutates holder state).

        FIFO: consecutive queued readers are granted as a batch; a queued
        writer is granted alone and blocks everyone behind it.
        """
        grants: list[tuple["SimThread", bool]] = []
        while rw.waiters:
            waiter, wants_write = rw.waiters[0]
            if wants_write:
                if rw.writer is None and not rw.readers:
                    rw.waiters.popleft()
                    rw.writer = waiter
                    grants.append((waiter, True))
                break  # a queued writer blocks everyone behind it
            if rw.writer is not None:
                break
            rw.waiters.popleft()
            rw.readers.add(waiter)
            grants.append((waiter, False))
        return grants

    # -- condition variables -------------------------------------------------

    def select_cond_waiter(
        self, cv: "SimCondition"
    ) -> tuple["SimThread", "SimMutex"]:
        """Pick the waiter a signal/broadcast wakes next (queue non-empty)."""
        return cv.waiters.popleft()


class FifoProtocol(LockProtocol):
    """Explicit alias of the baseline (handy for registries and tests)."""

    name = "fifo"
