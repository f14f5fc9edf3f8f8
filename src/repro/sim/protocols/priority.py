"""Priority-aware lock protocols: plain priority, inheritance, ceiling.

All three grant a released lock to the highest-effective-priority waiter
(FIFO among equals — the earliest-queued waiter wins ties, keeping runs
deterministic).  They differ in how they fight priority inversion:

* :class:`PriorityProtocol` — ordering only; a low-priority holder can
  still stall a high-priority waiter for its whole critical section.
* :class:`PriorityInheritanceProtocol` — a blocked waiter donates its
  effective priority to the holder (transitively along the blocked-on
  chain), so the holder finishes its critical section at the waiter's
  urgency.
* :class:`PriorityCeilingProtocol` — taking a lock immediately boosts
  the holder to the lock's ceiling (default: the highest base priority
  in the program), bounding inversion to at most one critical section
  without waiting for a blocker to show up.

Priorities live on threads (``SimThread.priority`` base value plus a
protocol-managed ``boost``) and decide lock handoff only: the core-limited
ready queue is FIFO whatever the priorities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.protocols.base import LockProtocol, holders, waiter_threads

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

__all__ = [
    "PriorityProtocol",
    "PriorityInheritanceProtocol",
    "PriorityCeilingProtocol",
]


class PriorityProtocol(LockProtocol):
    """Grant to the highest-effective-priority waiter (no boosting)."""

    name = "priority"

    def select(self, lock: Any) -> "SimThread | None":
        ws = lock.waiters
        best = 0
        for i in range(1, len(ws)):
            if ws[i].effective_priority > ws[best].effective_priority:
                best = i
        chosen = ws[best]
        del ws[best]
        return chosen


class PriorityInheritanceProtocol(PriorityProtocol):
    """Priority ordering plus transitive priority inheritance."""

    name = "pi"

    def on_block(self, lock: Any, thread: "SimThread") -> None:
        # Walk the blocked-on chain: boost every holder that is slower
        # than the newly blocked thread, following holders that are
        # themselves blocked (transitive inheritance).
        eff = thread.effective_priority
        node, hops = lock, 0
        while node is not None and hops < 64:
            hops += 1
            advanced = None
            for holder in holders(node):
                if eff > holder.boost:
                    holder.boost = eff
                advanced = holder.blocked_on
            node = advanced

    def on_release(self, lock: Any, thread: "SimThread") -> None:
        # Recompute the boost from the waiters of locks still held.
        boost = 0
        for held in thread.held:
            for waiter in waiter_threads(held):
                if waiter.effective_priority > boost:
                    boost = waiter.effective_priority
        thread.boost = boost


class PriorityCeilingProtocol(PriorityProtocol):
    """Priority ordering plus ceiling boosting on acquisition.

    ``ceilings`` maps lock *names* to ceiling priorities; unnamed locks
    fall back to the highest base priority of any thread in the program
    (computed lazily, once the thread population is known).
    """

    name = "ceiling"

    def __init__(self, ceilings: dict[str, int] | None = None) -> None:
        super().__init__()
        self.ceilings = dict(ceilings or {})
        self._default: int | None = None

    def describe(self) -> dict[str, Any]:
        return {"ceilings": dict(self.ceilings)} if self.ceilings else {}

    def _ceiling(self, lock: Any) -> int:
        name = getattr(lock, "name", "")
        if name in self.ceilings:
            return self.ceilings[name]
        if self._default is None:
            threads = self.engine.threads.values() if self.engine else ()
            self._default = max((t.priority for t in threads), default=0)
        return self._default

    def on_obtain(self, lock: Any, thread: "SimThread") -> None:
        ceiling = self._ceiling(lock)
        if ceiling > thread.boost:
            thread.boost = ceiling

    def on_release(self, lock: Any, thread: "SimThread") -> None:
        boost = 0
        for held in thread.held:
            c = self._ceiling(held)
            if c > boost:
                boost = c
        thread.boost = boost
