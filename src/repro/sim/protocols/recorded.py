"""The recorded (identity) protocol: replay a trace's own grant order.

Replaying a trace under plain FIFO almost — but not always — reproduces
it: simultaneous zero-duration acquisitions leave no timing evidence, so
their race can re-resolve the other way, flipping contended-OBTAIN flags
even when every timestamp matches.  The recorded protocol closes that
gap by consulting the original trace:

* per lock, grants happen in the recorded OBTAIN order — a thread that
  arrives at a free lock *ahead of its recorded turn* is queued until
  the rightful thread has taken (and released) it;
* each OBTAIN's contended flag is replayed verbatim from the trace;
* condition signals wake waiters in the recorded COND_WAKE order.

This is the fidelity guard behind every protocol forecast: the
``replay-identity`` check invariant replays each trace under this
protocol and requires bit-identical completion time and critical-lock
report.  On genuine divergence (a thread the order expects never shows
up) the replay deadlocks and surfaces as a check discrepancy rather
than silently drifting; where the recorded order runs out, behavior
falls back to FIFO.

Replay threads carry their original tid in ``SimThread.replay_tid``
(set by :class:`repro.replay.ReplayProgram`); object ids are remapped
through the old-to-new table the replay builder passes to
:meth:`RecordedProtocol.from_trace`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.sim.protocols.base import LockProtocol
from repro.trace.events import EventType
from repro.trace.ops import group_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.sync import SimCondition, SimMutex, SimRWLock
    from repro.sim.thread import SimThread
    from repro.trace.trace import Trace

__all__ = ["RecordedProtocol"]


def _per_object(
    records: np.ndarray, etype: EventType, *fields: str
) -> Iterator[tuple[Any, ...]]:
    """``(obj, field lists...)`` of one event type's rows, per object.

    One stable sort by ``obj`` keeps trace order within each object.
    """
    rows = np.flatnonzero(records["etype"] == etype)
    objs = records["obj"][rows]
    order = np.argsort(objs, kind="stable")
    rows = rows[order]
    starts, keys = group_bounds(objs[order])
    ends = np.append(starts[1:], len(rows)).tolist()
    cols = [records[f][rows].tolist() for f in fields]
    for obj, lo, hi in zip(keys.tolist(), starts.tolist(), ends):
        yield (obj, *(col[lo:hi] for col in cols))


def _rtid(thread: "SimThread") -> int:
    """The trace tid this replay thread stands for."""
    rt = thread.replay_tid
    return thread.tid if rt is None else rt


class RecordedProtocol(LockProtocol):
    """Force lock grants and cond wake-ups into a trace's recorded order."""

    name = "recorded"

    def __init__(
        self,
        orders: dict[int, deque[tuple[int, int]]] | None = None,
        cond_orders: dict[int, deque[int]] | None = None,
    ) -> None:
        super().__init__()
        #: obj id -> deque of (tid, contended-arg), one entry per OBTAIN.
        self.orders = orders or {}
        #: cond obj id -> deque of waiter tids, one entry per COND_WAKE.
        self.cond_orders = cond_orders or {}

    @classmethod
    def from_trace(
        cls, trace: "Trace", obj_map: dict[int, int] | None = None
    ) -> "RecordedProtocol":
        """Extract grant/wake orders (``obj_map`` remaps old ids to new)."""
        records = trace.records
        orders = {
            obj: deque(zip(tid, arg))
            for obj, tid, arg in _per_object(records, EventType.OBTAIN, "tid", "arg")
        }
        cond_orders = {
            obj: deque(tid)
            for obj, tid in _per_object(records, EventType.COND_WAKE, "tid")
        }
        if obj_map is not None:
            orders = {obj_map[o]: q for o, q in orders.items() if o in obj_map}
            cond_orders = {
                obj_map[o]: q for o, q in cond_orders.items() if o in obj_map
            }
        return cls(orders, cond_orders)

    # -- recorded-order plumbing --------------------------------------------

    def _next_tid(self, lock: Any) -> int | None:
        order = self.orders.get(lock.obj)
        return order[0][0] if order else None

    def grant_free(self, lock: Any, thread: "SimThread") -> bool:
        nxt = self._next_tid(lock)
        return nxt is None or nxt == _rtid(thread)

    def select(self, lock: Any) -> "SimThread | None":
        nxt = self._next_tid(lock)
        if nxt is None:
            return lock.waiters.popleft()  # order exhausted: FIFO fallback
        for i, waiter in enumerate(lock.waiters):
            if _rtid(waiter) == nxt:
                del lock.waiters[i]
                return waiter
        return None  # the rightful thread has not arrived yet

    def obtain_arg(self, lock: Any, thread: "SimThread", contended: bool) -> int:
        order = self.orders.get(lock.obj)
        if order and order[0][0] == _rtid(thread):
            return order.popleft()[1]
        return 1 if contended else 0  # divergence: default flag

    # -- reader-writer ------------------------------------------------------

    def rw_can_grant(self, rw: "SimRWLock", thread: "SimThread", write: bool) -> bool:
        if self._next_tid(rw) != _rtid(thread):
            return False
        if write:
            return rw.writer is None and not rw.readers
        return rw.writer is None

    def rw_drain(self, rw: "SimRWLock") -> list[tuple["SimThread", bool]]:
        # Order entries are consumed by ``obtain_arg`` when the engine
        # emits each grant's OBTAIN — *after* this loop returns.  Index
        # past the entries belonging to grants already made this call,
        # or a recorded reader batch would stall after its first member.
        order = self.orders.get(rw.obj)
        grants: list[tuple["SimThread", bool]] = []
        while rw.waiters:
            if order is None or len(grants) >= len(order):
                break  # order exhausted; arrivals fall back via rw_can_grant
            nxt = order[len(grants)][0]
            granted = False
            for i, (waiter, wants_write) in enumerate(rw.waiters):
                if _rtid(waiter) != nxt:
                    continue
                if wants_write:
                    if rw.writer is not None or rw.readers:
                        break
                    rw.writer = waiter
                else:
                    if rw.writer is not None:
                        break
                    rw.readers.add(waiter)
                del rw.waiters[i]
                grants.append((waiter, wants_write))
                granted = True
                break
            if not granted:
                break  # next-in-order absent or incompatible: wait
        return grants

    # -- condition variables ------------------------------------------------

    def select_cond_waiter(
        self, cv: "SimCondition"
    ) -> tuple["SimThread", "SimMutex"]:
        order = self.cond_orders.get(cv.obj)
        if order:
            nxt = order[0]
            for i, (waiter, m) in enumerate(cv.waiters):
                if _rtid(waiter) == nxt:
                    order.popleft()
                    del cv.waiters[i]
                    return waiter, m
        return cv.waiters.popleft()  # divergence/exhausted: FIFO fallback
