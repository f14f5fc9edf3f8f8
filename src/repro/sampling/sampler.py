"""Deterministic unit sampling of lock events (GAPP-style low overhead).

Full tracing records every synchronization event; production services
cannot afford that.  This module implements the capture-side half of the
statistical pipeline (the analysis half is :mod:`repro.core.estimate`):
keep a configurable fraction of *lock invocations* while always
retaining the blocking-chain edges the backward walk needs.

Sampling unit
-------------
The unit is one **lock invocation**: the ACQUIRE/OBTAIN/RELEASE bracket
of one critical section (reentrant re-acquisitions inside an open
bracket belong to the outermost one), identified by ``(tid, obj, k)``
where ``k`` is the per-``(tid, obj)`` outermost-acquisition counter.
Keeping or dropping whole units means a sampled trace never contains an
orphaned RELEASE or a hold without its acquisition — the per-thread lock
protocol stays intact, so the exact analyzer runs on the sampled trace
unchanged.

The keep/drop decision is hash-Bernoulli: a splitmix64-style mix of
``(seed, tid, obj, k)`` compared against ``rate * 2**64``.  The same
hash is computed by the streaming scalar sampler (used inside
:meth:`repro.instrument.ProfilingSession.emit`, before the event is ever
buffered) and by the vectorized :func:`downsample_trace` (used to thin
an already-captured trace), so both paths select the *same* units for a
given ``(rate, seed)``.

Blocking-chain retention
------------------------
Events that carry cross-thread blocking-chain edges are never sampled
out.  Two classes:

* thread lifecycle (create/start/exit, join), barriers and condition
  variables never participate in sampling at all;
* **waker units**: when a kept OBTAIN is contended, the wait it records
  is a blocking-chain edge whose other end is the previous holder's
  RELEASE.  If that holder's unit lost the hash toss it is retained
  *retroactively* (the whole unit, so the trace stays well formed) —
  the streaming sampler keeps a one-unit stash per lock for exactly
  this purpose.  Retention raises a lock's effective inclusion rate to
  ``r + (1-r)·r·c`` (``c`` = its contention probability); the estimator
  inverts that, not the nominal rate (see ``docs/sampling.md``).

At ``rate=1.0`` every unit hashes below the threshold and the output
records are byte-identical to full capture; at ``rate=0.0`` only the
blocking-chain events remain.

Sampled traces carry ``trace.meta["sampling"] = {"strategy", "rate",
"seed"}``; the estimator reads it to invert the inclusion probability.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = [
    "SAMPLING_STRATEGY",
    "EventSampler",
    "downsample_trace",
    "sample_mask",
    "sampling_meta",
    "trace_sample_rate",
    "unit_hash",
]

#: Strategy tag written into the sampling metadata header.
SAMPLING_STRATEGY = "unit-hash"

_MASK64 = (1 << 64) - 1
# splitmix64 finalizer constants plus three odd stream-separation
# multipliers (golden-ratio family) for tid / obj / k.
_C_GAMMA = 0x9E3779B97F4A7C15
_C_MIX1 = 0xBF58476D1CE4E5B9
_C_MIX2 = 0x94D049BB133111EB
_C_TID = 0xA24BAED4963EE407
_C_OBJ = 0x9FB21C651E98DF25
_C_K = 0xC2B2AE3D27D4EB4F

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)
_LOCK_VERBS = (_ACQUIRE, _OBTAIN, _RELEASE)


def unit_hash(seed: int, tid: int, obj: int, k: int) -> int:
    """64-bit mix of one sampling unit (pure-Python reference).

    :func:`sample_mask` computes the identical value vectorized; the
    equality of the two implementations is pinned by tests.
    """
    x = (seed * _C_GAMMA + tid * _C_TID + obj * _C_OBJ + k * _C_K) & _MASK64
    x = ((x ^ (x >> 30)) * _C_MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _C_MIX2) & _MASK64
    return x ^ (x >> 31)


def _threshold(rate: float) -> int:
    """Keep threshold on the 64-bit hash for inclusion probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise TraceError(f"sample rate must be in [0, 1], got {rate}")
    return int(round(rate * float(1 << 64)))


def sampling_meta(rate: float, seed: int) -> dict[str, Any]:
    """The ``meta["sampling"]`` header describing a sampled capture."""
    return {"strategy": SAMPLING_STRATEGY, "rate": float(rate), "seed": int(seed)}


def trace_sample_rate(trace: Trace) -> float | None:
    """The trace's sampling rate, or ``None`` for a full capture."""
    info = trace.meta.get("sampling")
    if not isinstance(info, dict) or "rate" not in info:
        return None
    return float(info["rate"])


class EventSampler:
    """Streaming keep/drop decisions for the instrumentation hot path.

    One instance per :class:`~repro.instrument.ProfilingSession`.
    :meth:`process` is called only for lock verbs on lock-like objects,
    in per-thread event order, with ``(seq, time, tid, etype, obj, arg)``
    record rows, and returns the rows to record — the row itself when
    its unit is kept, preceded by a retroactively retained waker unit
    when the row is a kept contended OBTAIN.  Each unit is hashed once,
    when it opens; its later events reuse the decision.

    The per-``(tid, obj)`` state and stashes are touched only by
    their own thread; the per-lock pending-waker slot is handed between
    the releasing and the acquiring thread with atomic dict operations,
    so a unit is flushed at most once even under races.
    """

    __slots__ = ("rate", "seed", "_threshold", "_units", "_stash", "_pending")

    def __init__(self, rate: float, seed: int = 0):
        self.rate = float(rate)
        self.seed = int(seed)
        self._threshold = _threshold(self.rate)
        # (tid, obj) -> [bracket depth, outermost-acquisition counter k,
        #                whether unit (tid, obj, k) is kept]
        self._units: dict[tuple[int, int], list] = {}
        # (tid, obj) -> dropped rows of the current (open) unit
        self._stash: dict[tuple[int, int], list[tuple]] = {}
        # obj -> completed dropped unit awaiting a possible contended waiter
        self._pending: dict[int, list[tuple]] = {}

    def _kept(self, tid: int, obj: int, k: int) -> bool:
        return unit_hash(self.seed, tid, obj, k) < self._threshold

    def process(self, row: tuple) -> list[tuple]:
        """Decide one lock event row; returns the rows to record now."""
        _, _, tid, etype, obj, arg = row
        key = (tid, obj)
        unit = self._units.get(key)
        if unit is None:
            # An opening ACQUIRE hashes its own unit below.
            unit = self._units[key] = [0, 0, etype != _ACQUIRE and self._kept(tid, obj, 0)]
        if etype == _ACQUIRE:
            if unit[0] == 0:
                unit[1] += 1
                unit[2] = self._kept(tid, obj, unit[1])
            unit[0] += 1
        elif etype == _RELEASE:
            unit[0] -= 1
        closes_unit = etype == _RELEASE and unit[0] == 0

        if unit[2]:
            out = []
            if etype == _OBTAIN and arg:
                # Contended: the previous holder's RELEASE is this wait's
                # blocking-chain edge — retain its whole unit if dropped.
                out = self._pending.pop(obj, [])
            out.append(row)
            if closes_unit:
                # The latest release on this lock is now in the trace.
                self._pending.pop(obj, None)
            return out

        stash = self._stash.get(key)
        if stash is None or (etype == _ACQUIRE and unit[0] == 1):
            stash = self._stash[key] = []
        stash.append(row)
        if closes_unit:
            del self._stash[key]
            # Only a well-formed bracket may be resurrected: flushing a
            # bare RELEASE would corrupt the per-thread lock protocol.
            if any(r[3] == _OBTAIN for r in stash):
                self._pending[obj] = stash
        return []

    def meta(self) -> dict[str, Any]:
        """Sampling metadata header for this sampler's configuration."""
        return sampling_meta(self.rate, self.seed)


def _unit_columns(records: np.ndarray, is_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, uid)`` for the lock events selected by ``is_unit``.

    ``k`` is the per-``(tid, obj)`` outermost-acquisition counter
    (vectorized equivalent of :class:`EventSampler`'s bracket tracking);
    ``uid`` densely numbers the distinct ``(tid, obj, k)`` units.
    """
    idx = np.flatnonzero(is_unit)
    n = len(idx)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    tid = records["tid"][idx].astype(np.int64)
    obj = records["obj"][idx].astype(np.int64)
    etype = records["etype"][idx]
    is_acq = (etype == _ACQUIRE).astype(np.int64)
    is_rel = (etype == _RELEASE).astype(np.int64)
    # Dense group ids per (tid, obj), then group-segmented cumsums in
    # stable trace order.
    pair = np.stack([tid, obj], axis=1)
    _, inv = np.unique(pair, axis=0, return_inverse=True)
    order = np.lexsort((np.arange(n), inv))
    starts = np.flatnonzero(np.diff(inv[order], prepend=-1))
    counts = np.diff(np.append(starts, n))

    def seg_cumsum(sorted_values: np.ndarray) -> np.ndarray:
        # Input must already be in sorted-group space (i.e. values[order]).
        csum = np.cumsum(sorted_values)
        base = np.where(starts > 0, csum[starts - 1], 0)
        return csum - np.repeat(base, counts)

    acq_incl = seg_cumsum(is_acq[order])
    rel_incl = seg_cumsum(is_rel[order])
    depth_before = (acq_incl - is_acq[order]) - (rel_incl - is_rel[order])
    outermost = is_acq[order] * (depth_before == 0)
    k_sorted = seg_cumsum(outermost)
    k = np.empty(n, dtype=np.int64)
    k[order] = k_sorted
    triple = np.stack([tid, obj, k], axis=1)
    _, uid = np.unique(triple, axis=0, return_inverse=True)
    return k, uid.astype(np.int64)


def _hash_events(
    records: np.ndarray, idx: np.ndarray, k: np.ndarray, seed: int
) -> np.ndarray:
    """Vectorized splitmix64 mix, identical to :func:`unit_hash`."""
    with np.errstate(over="ignore"):
        x = (
            np.uint64(seed & _MASK64) * np.uint64(_C_GAMMA)
            + records["tid"][idx].astype(np.uint64) * np.uint64(_C_TID)
            + records["obj"][idx].astype(np.uint64) * np.uint64(_C_OBJ)
            + k.astype(np.uint64) * np.uint64(_C_K)
        )
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_C_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_C_MIX2)
        return x ^ (x >> np.uint64(31))


def sample_mask(
    records: np.ndarray, lock_objs: set[int] | frozenset[int], rate: float, seed: int = 0
) -> np.ndarray:
    """Boolean keep-mask over ``records`` (vectorized unit sampling).

    Selects the same events as a stream of :meth:`EventSampler.process`
    calls with the same ``(rate, seed)``, waker retention included.
    """
    n = len(records)
    keep = np.ones(n, dtype=bool)
    thresh = _threshold(rate)
    if thresh >= 1 << 64 or n == 0:
        return keep
    is_unit = np.isin(records["etype"], _LOCK_VERBS)
    if lock_objs:
        is_unit &= np.isin(records["obj"], np.fromiter(lock_objs, dtype=np.int64))
    else:
        is_unit &= False
    idx = np.flatnonzero(is_unit)
    if len(idx) == 0:
        return keep
    k, uid = _unit_columns(records, is_unit)
    if thresh <= 0:
        hash_kept = np.zeros(len(idx), dtype=bool)
    else:
        hash_kept = _hash_events(records, idx, k, seed) < np.uint64(thresh)

    nunits = int(uid.max()) + 1
    unit_kept = np.zeros(nunits, dtype=bool)
    unit_kept[uid[hash_kept]] = True
    etype = records["etype"][idx]
    obj = records["obj"][idx].astype(np.int64)
    arg = records["arg"][idx]
    # Replay EventSampler's waker-retention rule: a kept contended OBTAIN
    # resurrects the dropped unit of the latest prior unit-closing
    # RELEASE on its lock (well-formed brackets only).
    unit_has_obtain = np.zeros(nunits, dtype=bool)
    unit_has_obtain[uid[etype == _OBTAIN]] = True
    is_acq = (etype == _ACQUIRE).astype(np.int64)
    is_rel = (etype == _RELEASE).astype(np.int64)
    depth = {}
    last_closed: dict[int, int] = {}
    retained: set[int] = set()
    for j in range(len(idx)):
        o = int(obj[j])
        if is_acq[j]:
            depth[(int(records["tid"][idx[j]]), o)] = depth.get(
                (int(records["tid"][idx[j]]), o), 0
            ) + 1
        elif is_rel[j]:
            key = (int(records["tid"][idx[j]]), o)
            d = depth.get(key, 0) - 1
            depth[key] = d
            if d == 0:
                last_closed[o] = int(uid[j])
        elif etype[j] == _OBTAIN and arg[j] and hash_kept[j]:
            u = last_closed.get(o)
            if u is not None and not unit_kept[u] and unit_has_obtain[u]:
                retained.add(u)
    if retained:
        unit_kept[np.fromiter(retained, dtype=np.int64)] = True
    keep[idx] = unit_kept[uid]
    return keep


def downsample_trace(trace: Trace, rate: float, seed: int = 0) -> Trace:
    """Thin an already-captured full trace to inclusion probability ``rate``.

    Whole invocation units are kept or dropped together; blocking-chain
    events (lifecycle, barriers, condition variables, waker units of
    kept contended acquisitions) always survive.  The result carries the
    sampling metadata header and (sparse) original sequence numbers.  At
    ``rate=1.0`` the records are byte-identical to the input's.
    """
    if trace_sample_rate(trace) is not None:
        raise TraceError(
            "trace is already sampled; downsampling twice would make the "
            "inclusion probability unknowable"
        )
    lock_objs = {info.obj for info in trace.objects.values() if info.kind.is_lock_like}
    mask = sample_mask(trace.records, lock_objs, rate, seed)
    meta = dict(trace.meta)
    meta["sampling"] = sampling_meta(rate, seed)
    return Trace(
        records=trace.records[mask].copy(),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=meta,
    )
