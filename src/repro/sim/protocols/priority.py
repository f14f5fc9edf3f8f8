"""The priority lock protocol.

A released lock goes to the highest-priority waiter (FIFO among equals —
the earliest-queued waiter wins ties, keeping runs deterministic).  It
orders grants only: nothing boosts a holder, so a low-priority holder
can still stall a high-priority waiter for its whole critical section.

Priorities live on threads (``SimThread.priority``, set at spawn or from
a what-if priority map) and decide lock handoff only: the core-limited
ready queue is FIFO whatever the priorities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.protocols.base import LockProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

__all__ = ["PriorityProtocol"]


class PriorityProtocol(LockProtocol):
    """Grant to the highest-priority waiter."""

    name = "priority"

    def select(self, lock: Any) -> "SimThread | None":
        ws = lock.waiters
        best = 0
        for i in range(1, len(ws)):
            if ws[i].priority > ws[best].priority:
                best = i
        chosen = ws[best]
        del ws[best]
        return chosen
