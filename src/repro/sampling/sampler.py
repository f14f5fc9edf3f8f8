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
``(seed, tid, obj, k)`` compared against ``rate * 2**64``.  One
:class:`EventSampler` makes every decision: live capture feeds it
inside :meth:`repro.instrument.ProfilingSession.emit`, before the event
is ever buffered, and :func:`downsample_trace` feeds it an
already-captured trace's lock rows in trace order.  Both paths are the
same code, so they select the *same* units for a given ``(rate, seed)``.

On a trace that breaks the lock protocol, a row outside any ACQUIRE
bracket (a bare OBTAIN or RELEASE) reuses the hash decision of the
thread's latest unit on that object (``k = 0`` before its first
ACQUIRE).  A unit kept only as a waker (below) does not carry later
bare rows with it: retention flushes the unit's own rows and nothing
else.

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
    """64-bit mix of one sampling unit."""
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

    One instance per :class:`~repro.instrument.ProfilingSession` or
    :func:`downsample_trace` call.  :meth:`process` is called only for
    lock verbs on lock-like objects, in per-thread event order, with
    ``(seq, time, tid, etype, obj, arg)`` record rows, and returns the
    rows to record — the row itself when its unit is kept, preceded by a
    retroactively retained waker unit when the row is a kept contended
    OBTAIN.  Each unit is hashed once, when it opens; its later events
    reuse the decision.

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


def downsample_trace(trace: Trace, rate: float, seed: int = 0) -> Trace:
    """Thin an already-captured full trace to inclusion probability ``rate``.

    The trace's lock rows go through one :class:`EventSampler` in trace
    order, as live capture feeds them.  Whole invocation units are kept
    or dropped together; blocking-chain events (lifecycle, barriers,
    condition variables, waker units of kept contended acquisitions)
    always survive.  The result carries the sampling metadata header and
    (sparse) original sequence numbers.  At ``rate=1.0`` the records are
    byte-identical to the input's.
    """
    if trace_sample_rate(trace) is not None:
        raise TraceError(
            "trace is already sampled; downsampling twice would make the "
            "inclusion probability unknowable"
        )
    sampler = EventSampler(rate, seed)
    records = trace.records
    is_unit = np.isin(records["etype"], _LOCK_VERBS) & np.isin(
        records["obj"], [info.obj for info in trace.locks]
    )
    pos = np.flatnonzero(is_unit)
    rows = records[pos]
    # The record position rides in the seq slot, so every row the
    # sampler hands back names the record it keeps.
    rows["seq"] = pos
    keep = ~is_unit
    keep[[out[0] for row in rows.tolist() for out in sampler.process(row)]] = True
    meta = dict(trace.meta)
    meta["sampling"] = sampling_meta(rate, seed)
    return Trace(
        records=records[keep],
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=meta,
    )
