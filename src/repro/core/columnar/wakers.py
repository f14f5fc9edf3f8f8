"""Vectorized waker resolution (columnar form of the per-event
:func:`repro.check.reference.resolve_wakers`).

Each of the paper's §IV.B rules is one vectorized query instead of a
dict maintained while looping events:

* contended OBTAIN → latest prior RELEASE on the same lock object: a
  running maximum over the trace index's object-ordered lock rows
  (:attr:`~repro.trace.index.TraceIndex.obj_rows`);
* BARRIER_DEPART → the cohort's *global* last arrival per (barrier,
  generation) — a group-max, not a latest-prior, mirroring the object
  engine's separate first pass;
* COND_WAKE → latest prior COND_SIGNAL/BROADCAST on the condition if it
  was emitted by the recorded signaller, else that thread's latest prior
  event of any type (:func:`~repro.trace.ops.latest_prior`);
* JOIN_END → the joined thread's latest prior THREAD_EXIT (likewise);
* THREAD_CREATE → last creation per child tid (a dict overwrite in the
  object engine, a group-max here).

Failures raise :class:`~repro.errors.WakerResolutionError` with the same
message the object engine produces, for the earliest failing event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.ops import dense_keys, group_bounds, latest_prior, sort_order
from repro.core.model import WakeInfo
from repro.errors import WakerResolutionError
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["ColumnarWakers", "resolve_wakers_columnar"]

_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)
_ARRIVE = int(EventType.BARRIER_ARRIVE)
_DEPART = int(EventType.BARRIER_DEPART)
_SIGNAL = int(EventType.COND_SIGNAL)
_BROADCAST = int(EventType.COND_BROADCAST)
_COND_WAKE = int(EventType.COND_WAKE)
_EXIT = int(EventType.THREAD_EXIT)
_JOIN_END = int(EventType.JOIN_END)
_CREATE = int(EventType.THREAD_CREATE)


@dataclass
class ColumnarWakers:
    """Waker columns parallel to ``trace.records``.

    ``waker_seq[i] >= 0`` iff record ``i`` is a resolved wake event; the
    other ``waker_*`` columns then carry its waker.  ``creations`` is
    tiny (one entry per created thread) and stays a dict.
    """

    waker_tid: np.ndarray  # int64, -1 where not a wake event
    waker_time: np.ndarray  # float64
    waker_seq: np.ndarray  # int64, -1 where not a wake event
    creations: dict[int, WakeInfo] = field(default_factory=dict)


def _raise_first(trace: Trace, failures: list[tuple[np.ndarray, str]]) -> None:
    """Raise the object engine's error for the earliest failing event."""
    first_pos = None
    first_rule = ""
    for pos_arr, rule in failures:
        if len(pos_arr) == 0:
            continue
        p = int(pos_arr.min())
        if first_pos is None or p < first_pos:
            first_pos, first_rule = p, rule
    if first_pos is None:
        return
    row = trace.records[first_pos]
    seq, obj, arg = int(row["seq"]), int(row["obj"]), int(row["arg"])
    if first_rule == "obtain":
        raise WakerResolutionError(
            f"seq {seq}: contended OBTAIN on "
            f"{trace.object_name(obj)} with no preceding RELEASE"
        )
    if first_rule == "depart":
        raise WakerResolutionError(
            f"seq {seq}: BARRIER_DEPART on {trace.object_name(obj)} "
            f"generation {arg} with no arrivals"
        )
    if first_rule == "cond":
        raise WakerResolutionError(
            f"seq {seq}: COND_WAKE signalled by T{arg} which has no prior events"
        )
    raise WakerResolutionError(
        f"seq {seq}: JOIN_END on T{arg} which has not exited"
    )


def resolve_wakers_columnar(trace: Trace) -> ColumnarWakers:
    """Columnar twin of :func:`repro.check.reference.resolve_wakers`."""
    rec = trace.records
    n = len(rec)
    ix = trace.index
    etype, tid, obj = ix.etype, ix.tid, ix.obj
    arg = rec["arg"]
    time = rec["time"]
    seq = rec["seq"]

    waker_tid = np.full(n, -1, dtype=np.int64)
    waker_time = np.zeros(n, dtype=np.float64)
    waker_seq = np.full(n, -1, dtype=np.int64)
    failures: list[tuple[np.ndarray, str]] = []

    def assign(q_pos: np.ndarray, m_pos: np.ndarray) -> None:
        waker_tid[q_pos] = tid[m_pos]
        waker_time[q_pos] = time[m_pos]
        waker_seq[q_pos] = seq[m_pos]

    # -- contended OBTAIN <- latest prior RELEASE on the same lock --------
    # Lock rows by (obj, position): the latest RELEASE at or before each
    # row in that order is a running maximum of RELEASE indices, and it
    # is on the query's lock iff it is in the query's run of rows.
    by_obj = ix.obj_rows
    et = etype[by_obj]
    at = np.arange(len(et), dtype=by_obj.dtype)
    latest = np.maximum.accumulate(np.where(et == _RELEASE, at, -1))
    qi = np.flatnonzero(et == _OBTAIN)
    qi = qi[(arg != 0)[by_obj[qi]]]
    if len(qi):
        q, mi = by_obj[qi], latest[qi]
        m = by_obj[np.maximum(mi, 0)]
        ok = (mi >= 0) & (obj[m] == obj[q])
        assign(q[ok], m[ok])
        failures.append((q[~ok], "obtain"))

    # -- BARRIER_DEPART <- cohort's global last arrival -------------------
    q = np.flatnonzero(etype == _DEPART)
    m = np.flatnonzero(etype == _ARRIVE)
    if len(q):
        key = dense_keys(
            np.concatenate([obj[m], obj[q]]), np.concatenate([arg[m], arg[q]])
        )
        mkey, qkey = key[: len(m)], key[len(m):]
        if len(m):
            order = sort_order(mkey, m)
            starts, skeys = group_bounds(mkey[order])
            # Last element of each (barrier, generation) group is its max pos.
            ends = np.append(starts[1:], len(m)) - 1
            group_last = m[order][ends]
            gi = np.searchsorted(skeys, qkey)
            gi_c = np.minimum(gi, len(skeys) - 1)
            hit = (gi < len(skeys)) & (skeys[gi_c] == qkey)
            assign(q[hit], group_last[gi_c[hit]])
        else:
            hit = np.zeros(len(q), dtype=bool)
        failures.append((q[~hit], "depart"))

    # -- COND_WAKE <- latest prior signal, else signaller's latest event --
    q = np.flatnonzero(etype == _COND_WAKE)
    if len(q):
        m = np.flatnonzero((etype == _SIGNAL) | (etype == _BROADCAST))
        sidx = latest_prior(m, obj[m], q, obj[q])
        sig_ok = (sidx >= 0) & (tid[np.maximum(sidx, 0)] == arg[q])
        assign(q[sig_ok], sidx[sig_ok])
        fb = q[~sig_ok]
        if len(fb):
            lidx = latest_prior(np.arange(n), tid, fb, arg[fb])
            fb_ok = lidx >= 0
            assign(fb[fb_ok], lidx[fb_ok])
            failures.append((fb[~fb_ok], "cond"))

    # -- JOIN_END <- target thread's latest prior THREAD_EXIT -------------
    q = np.flatnonzero(etype == _JOIN_END)
    if len(q):
        m = np.flatnonzero(etype == _EXIT)
        eidx = latest_prior(m, tid[m], q, arg[q])
        ok = eidx >= 0
        assign(q[ok], eidx[ok])
        failures.append((q[~ok], "join"))

    _raise_first(trace, failures)

    # -- creations: last THREAD_CREATE per child tid ----------------------
    creations: dict[int, WakeInfo] = {}
    c = np.flatnonzero(etype == _CREATE)
    if len(c):
        order = sort_order(arg[c], c)
        starts, _ = group_bounds(arg[c][order])
        ends = np.append(starts[1:], len(c)) - 1
        for p in c[order][ends]:
            creations[int(arg[p])] = WakeInfo(int(tid[p]), float(time[p]), int(seq[p]))

    return ColumnarWakers(
        waker_tid=waker_tid,
        waker_time=waker_time,
        waker_seq=waker_seq,
        creations=creations,
    )
