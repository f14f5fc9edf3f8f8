"""Batch kernel for :meth:`repro.core.online.OnlineAnalyzer.observe_batch`.

One record batch is consumed with a constant number of array passes and
two small Python loops: one over the batch's locks, one over its
``(lock, thread)`` groups.  No step loops over rows.  The lock rows are
sorted twice, both times stably with :func:`~repro.trace.ops.sort_order`:
by lock, which keeps batch order within each lock for the sums and the
chain, and by ``(lock, thread)`` (:func:`~repro.trace.ops.dense_keys`)
for the slots.

* **Slots.**  The per-lock dicts of pending ACQUIREs and open holds are
  pop-on-get slots keyed by thread, so each ``(lock, thread)`` run holds
  one slot's whole history in the batch: a getter's value is the time of
  the slot row just before it in its run if that row is a setter, its
  own time if that row is a getter, and the value carried in from
  earlier batches if it opens the run.  Each run's last slot row decides
  what is carried out.
* **Sums.**  Counters are per-lock counts.  Each batch's wait and hold
  times are summed left to right in batch order per lock (one
  ``np.cumsum`` each) and then added to the running totals, the order
  the streaming estimator has always used: a stream split the same way
  gives the same bits.
* **Chain heuristic.**  Holds are non-negative, so between two chain
  resets the running chain only grows and each segment's maximum is its
  final value: one difference of the lock's hold ``cumsum`` per segment.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.trace.events import EventType
from repro.trace.ops import dense_keys, exact_group_sums, group_bounds, sort_order

__all__ = ["consume_batch"]

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)


def consume_batch(records: np.ndarray, stats_for: Callable) -> None:
    """Feed one record batch's lock rows into per-lock ``OnlineLockStats``.

    ``stats_for(obj)`` returns the stats of lock ``obj``, creating it on
    first sight; it is called in ascending ``obj`` order.
    """
    etype = records["etype"]
    rows = np.flatnonzero((etype >= _ACQUIRE) & (etype <= _RELEASE))
    if len(rows) == 0:
        return
    # Lock order: the batch's lock rows grouped by obj, batch order within.
    obj = records["obj"][rows]
    by_lock = sort_order(obj)
    rows, obj = rows[by_lock], obj[by_lock]
    tid = records["tid"][rows]
    etype = records["etype"][rows]
    time = records["time"][rows]
    lock_starts, lock_objs = group_bounds(obj)
    stats = [stats_for(int(o)) for o in lock_objs]
    lock_id = np.repeat(
        np.arange(len(stats)), np.diff(np.append(lock_starts, len(rows)))
    )

    # Slot values, computed in (obj, tid) order and scattered back.
    by_thread = sort_order(dense_keys(obj, tid))
    acq_time = np.empty(len(rows))
    start_time = np.empty(len(rows))
    acq_time[by_thread] = _slot_values(
        by_thread, lock_id, tid, etype, time, _ACQUIRE, _OBTAIN,
        [ls._pending_acquire for ls in stats],
    )
    start_time[by_thread] = _slot_values(
        by_thread, lock_id, tid, etype, time, _OBTAIN, _RELEASE,
        [ls._obtain_time for ls in stats],
    )

    is_obtain = etype == _OBTAIN
    is_release = etype == _RELEASE
    contended = is_obtain & (records["arg"][rows] != 0)
    nlocks = len(stats)
    invocations = np.bincount(lock_id[is_obtain], minlength=nlocks)
    n_contended = np.bincount(lock_id[contended], minlength=nlocks)
    waits = (time - acq_time)[contended]
    wait_lock = lock_id[contended]
    holds = (time - start_time)[is_release]
    release_lock = lock_id[is_release]
    release_time = time[is_release]

    # Chain resets: uncontended OBTAINs at or after the latest earlier
    # release of their lock (in this batch, else the carried one).
    n_rel_incl = np.cumsum(is_release)
    rel_base = np.concatenate(([0], n_rel_incl[:-1]))[lock_starts]
    rel_before = n_rel_incl - is_release - rel_base[lock_id]
    uncontended = np.flatnonzero(is_obtain & ~contended)
    k = rel_before[uncontended]
    u_lock = lock_id[uncontended]
    prev_rel = np.array([ls._last_release for ls in stats])[u_lock]
    in_batch = k > 0
    prev_rel[in_batch] = release_time[(rel_base[u_lock] + k - 1)[in_batch]]
    is_reset = time[uncontended] >= prev_rel
    reset_k = k[is_reset]
    reset_lock = u_lock[is_reset]

    locks = np.arange(nlocks + 1)
    wait_bounds = np.searchsorted(wait_lock, locks)
    rel_bounds = np.searchsorted(release_lock, locks)
    reset_bounds = np.searchsorted(reset_lock, locks)
    wait_sums = exact_group_sums(waits, wait_bounds[:-1], wait_bounds[1:])
    hold_sums = exact_group_sums(holds, rel_bounds[:-1], rel_bounds[1:])
    for i, ls in enumerate(stats):
        ls.invocations += int(invocations[i])
        ls.contended += int(n_contended[i])
        ls.wait_time += float(wait_sums[i])
        ls.hold_time += float(hold_sums[i])
        rel = slice(rel_bounds[i], rel_bounds[i + 1])
        _advance_chain(
            ls,
            holds[rel],
            reset_k[reset_bounds[i]:reset_bounds[i + 1]],
            release_time[rel],
        )


def _slot_values(
    order: np.ndarray,
    lock_id: np.ndarray,
    tid: np.ndarray,
    etype: np.ndarray,
    time: np.ndarray,
    setter: int,
    getter: int,
    carries: list[dict[int, float]],
) -> np.ndarray:
    """Replay one per-thread pop-on-get slot dict per lock over the rows.

    ``order`` sorts the rows by ``(lock, tid)``, batch order within.
    Returns, in that order, each getter's popped value (its own time when
    the slot is empty); other rows get their own time.  ``carries[i]``
    is lock ``i``'s slot dict, read for getters that open their run and
    updated in place to the post-batch state.
    """
    etype = etype[order]
    values = time[order]
    sel = np.flatnonzero((etype == setter) | (etype == getter))
    if len(sel) == 0:
        return values
    lk = lock_id[order[sel]]
    th = tid[order[sel]]
    is_set = etype[sel] == setter
    t = values[sel]
    same_prev = (lk[1:] == lk[:-1]) & (th[1:] == th[:-1])
    # A getter right after a setter of its run pops the setter's time.
    hit = np.flatnonzero(same_prev & is_set[:-1] & ~is_set[1:]) + 1
    values[sel[hit]] = t[hit - 1]
    opens = np.concatenate(([True], ~same_prev))
    closes = np.concatenate((~same_prev, [True]))
    for j in np.flatnonzero(opens & ~is_set):
        got = carries[lk[j]].get(int(th[j]))
        if got is not None:
            values[sel[j]] = got
    for j in np.flatnonzero(closes):
        carry = carries[lk[j]]
        if is_set[j]:
            carry[int(th[j])] = float(t[j])
        else:
            carry.pop(int(th[j]), None)
    return values


def _advance_chain(
    ls, holds: np.ndarray, reset_k: np.ndarray, release_time: np.ndarray
) -> None:
    """Fold one batch of a lock's holds into its dependent-chain state.

    ``reset_k[j]`` counts the batch's releases before the ``j``-th chain
    reset, so the releases split into ``len(reset_k) + 1`` segments; the
    first extends the carried chain, the others start from zero.
    """
    if len(holds) == 0:
        if len(reset_k):
            ls.chain_time = 0.0
        return
    csum = np.cumsum(holds)
    bounds = np.concatenate(([0], reset_k, [len(holds)]))
    lo, hi = bounds[:-1], bounds[1:]
    seg = csum[hi - 1] - np.where(lo > 0, csum[lo - 1], 0.0)
    base = np.zeros(len(seg))
    base[0] = ls.chain_time
    chains = (base + seg)[hi > lo]
    # ``>`` passes over NaN chains, as a running ``max()`` does.
    longer = chains[chains > ls.max_chain_time]
    if len(longer):
        ls.max_chain_time = float(longer.max())
    last_lo = int(bounds[-2])
    tail = float(csum[-1]) - (float(csum[last_lo - 1]) if last_lo else 0.0)
    ls.chain_time = (ls.chain_time if len(reset_k) == 0 else 0.0) + tail
    ls._last_release = float(release_time[-1])
