"""One grouping of a trace's rows, shared by every analysis stage.

Validation, waker resolution and timeline construction all group the
same rows: the events per thread, and the ACQUIRE/OBTAIN/RELEASE rows
per ``(thread, object)``.  :class:`TraceIndex` sorts them once and keeps
the result compact (int32 positions, the record dtype's own ``tid`` and
``obj``), and :attr:`repro.trace.Trace.index` caches it on the trace,
so whichever stage runs first pays for it and the others read it.

What it holds:

* contiguous ``etype`` / ``tid`` / ``obj`` columns;
* the thread order (positions stably sorted by ``tid``) and its group
  starts;
* the lock rows (every ACQUIRE/OBTAIN/RELEASE), stably sorted by
  ``(tid, obj)`` with group starts — ``NO_OBJECT`` and non-lock objects
  get groups of their own, so a consumer that ignores them drops whole
  groups and the walks of the others stay valid;
* per lock row, the value after it of two per-group counters that stay
  at 0 instead of going negative (:func:`~repro.trace.ops.
  floored_cumsum`): ``pending`` ACQUIREs (ACQUIRE +1, OBTAIN -1) and
  ``held`` levels (OBTAIN +1, RELEASE -1);
* on first use, the lock rows stably sorted by ``obj`` alone
  (:attr:`TraceIndex.obj_rows`).

Everything derived from those — the acquire slot each OBTAIN pops, the
RELEASE that closes each OBTAIN — is computed on request and not kept.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.trace.events import EventType
from repro.trace.ops import dense_keys, floored_cumsum, group_bounds, sort_order

__all__ = ["TraceIndex"]

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)


def _steps(**by_etype: int) -> np.ndarray:
    """Lookup table from an etype byte to a counter step."""
    table = np.zeros(256, dtype=np.int8)
    for name, step in by_etype.items():
        table[int(EventType[name])] = step
    return table


_PENDING_STEP = _steps(ACQUIRE=1, OBTAIN=-1)
_HELD_STEP = _steps(OBTAIN=1, RELEASE=-1)


class TraceIndex:
    """Thread order and ``(tid, obj)``-grouped lock rows of one record array.

    Positions are indices into the record array the index was built
    from.  Arrays named ``lock_*``, ``pending`` and ``held`` are
    parallel to :attr:`lock_rows` ("lock order"); methods that take or
    return lock-order indices say so.
    """

    def __init__(self, records: np.ndarray):
        n = len(records)
        pos_dtype = np.int32 if n < 2**31 else np.int64
        self.etype = np.ascontiguousarray(records["etype"])
        self.tid = np.ascontiguousarray(records["tid"])
        self.obj = np.ascontiguousarray(records["obj"])

        order = sort_order(self.tid)
        #: Positions in ``(tid, position)`` order.
        self.thread_order = order.astype(pos_dtype)
        #: Start of each thread's run in :attr:`thread_order`, and its tid.
        self.thread_starts, self.tids = group_bounds(self.tid[order])
        del order

        rows = np.flatnonzero(self._lock_mask())
        key = dense_keys(self.tid[rows], self.obj[rows])
        order = sort_order(key)
        #: Positions of the lock rows in ``(tid, obj, position)`` order.
        self.lock_rows = rows[order].astype(pos_dtype)
        #: Start of each ``(tid, obj)`` group in lock order.
        self.lock_starts, _ = group_bounds(key[order])
        del rows, key, order
        self.lock_etype = self.etype[self.lock_rows]
        #: Pending ACQUIREs of the row's group just after the row.
        self.pending = self._walk(_PENDING_STEP)
        #: Held levels of the row's group just after the row.
        self.held = self._walk(_HELD_STEP)

    def _lock_mask(self) -> np.ndarray:
        return (self.etype >= _ACQUIRE) & (self.etype <= _RELEASE)

    def _walk(self, table: np.ndarray) -> np.ndarray:
        # A count never exceeds the row count, which positions hold.
        return floored_cumsum(table[self.lock_etype], self.lock_starts, self.lock_rows.dtype)

    @cached_property
    def obj_rows(self) -> np.ndarray:
        """Positions of the lock rows in ``(obj, position)`` order."""
        rows = np.flatnonzero(self._lock_mask())
        return rows[sort_order(self.obj[rows])].astype(self.lock_rows.dtype)

    # -- lock groups -------------------------------------------------------

    @property
    def lock_ends(self) -> np.ndarray:
        """End (exclusive) of each ``(tid, obj)`` group in lock order."""
        return np.append(self.lock_starts[1:], len(self.lock_rows))

    def lock_groups(self) -> np.ndarray:
        """Group number of every lock row."""
        sizes = np.diff(np.append(self.lock_starts, len(self.lock_rows)))
        return np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)

    def before(self, after: np.ndarray) -> np.ndarray:
        """A counter's value just before each lock row, from its value after."""
        out = np.empty_like(after)
        if len(out):
            out[0] = 0
            out[1:] = after[:-1]
            out[self.lock_starts] = 0
        return out

    def acquire_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The ACQUIRE whose slot each OBTAIN pops.

        Returns ``(obtains, acquires)``, lock-order indices: every OBTAIN
        row, and the ACQUIRE that filled the ``(tid, obj)`` slot it pops
        or ``-1``.  ACQUIRE sets the slot and OBTAIN pops it, so an
        OBTAIN finds a value iff the row before it among its group's
        ACQUIREs and OBTAINs is an ACQUIRE.
        """
        et = self.lock_etype
        setget = np.flatnonzero(et != _RELEASE)
        j = np.flatnonzero(et[setget] == _OBTAIN)
        obtains = setget[j]
        prev = setget[np.maximum(j - 1, 0)]
        group = self.lock_groups()
        filled = (j > 0) & (et[prev] == _ACQUIRE) & (group[prev] == group[obtains])
        return obtains, np.where(filled, prev, -1)

    def lifo_closes(self) -> tuple[np.ndarray, np.ndarray]:
        """The RELEASE that pops each OBTAIN off its group's hold stack.

        Returns ``(close, unmatched)``, lock-order indices: per OBTAIN row
        (in lock order) its RELEASE or ``-1``, and the RELEASEs that pop
        an empty stack.  Those match nothing; what is left is a
        well-nested walk in which the rows crossing each depth alternate
        OBTAIN, RELEASE, OBTAIN, ... so every RELEASE pairs with the row
        just before it in ``(group, depth, position)`` order — one stable
        sort of the lock-ordered rows by ``(group, depth)``.
        """
        et = self.lock_etype
        rows = np.flatnonzero(et != _ACQUIRE)
        opens = et[rows] == _OBTAIN
        held_before = self.before(self.held)[rows]
        live = opens | (held_before > 0)
        unmatched = rows[~live]
        depth = np.where(opens, held_before, self.held[rows])[live]
        rows = rows[live]
        if depth.any():  # with one depth level, lock order is that order
            rows = rows[sort_order(dense_keys(self.lock_groups()[rows], depth))]
        closes = np.flatnonzero(et[rows] == _RELEASE)
        close = np.full(len(et), -1, dtype=rows.dtype)
        close[rows[closes - 1]] = rows[closes]
        return close[et == _OBTAIN], unmatched
