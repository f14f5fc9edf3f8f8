"""Waker resolution.

For every event that ends a blocked interval, determine which thread (and
which of its events) enabled it — the paper's §IV.B rules:

* lock OBTAIN (contended): "the thread holding the same lock adjacently
  before the blocked thread" — i.e. the RELEASE event immediately
  preceding the OBTAIN on that object;
* BARRIER_DEPART: "the thread reaching the same barrier lastly" — the
  cohort's final BARRIER_ARRIVE;
* COND_WAKE: "the thread signaling the same condition variable" — the
  matching COND_SIGNAL / COND_BROADCAST;
* JOIN_END: the joined thread's THREAD_EXIT;
* THREAD_START: the parent's THREAD_CREATE (used when the backward walk
  reaches the beginning of a non-root thread).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WakerResolutionError
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["WakeInfo", "WakerTable", "resolve_wakers"]


@dataclass(frozen=True, slots=True)
class WakeInfo:
    """The waking event: who enabled a wake, and when."""

    waker_tid: int
    waker_time: float
    waker_seq: int


@dataclass(frozen=True, slots=True)
class WakerTable:
    """Output of :func:`resolve_wakers`.

    ``wakes`` maps the *seq of a wake event* (OBTAIN with contended flag,
    BARRIER_DEPART, COND_WAKE, JOIN_END) to its waker; ``creations`` maps
    a child tid to the parent's THREAD_CREATE info.
    """

    wakes: dict[int, WakeInfo]
    creations: dict[int, WakeInfo]


def resolve_wakers(trace: Trace) -> WakerTable:
    """Resolve the waker of every wake event in one pass over the trace."""
    wakes: dict[int, WakeInfo] = {}
    creations: dict[int, WakeInfo] = {}
    last_release: dict[int, WakeInfo] = {}  # obj -> most recent RELEASE
    last_signal: dict[int, WakeInfo] = {}  # cond obj -> most recent SIGNAL/BROADCAST
    exits: dict[int, WakeInfo] = {}  # tid -> THREAD_EXIT
    last_event: dict[int, WakeInfo] = {}  # tid -> that thread's latest event

    # Pass 1: the cohort's final arrival per (barrier, generation).  Done
    # up front because hand-built traces may interleave a departure before
    # the cohort's last ARRIVE at equal timestamps.
    last_arrival: dict[tuple[int, int], WakeInfo] = {}
    for ev in trace:
        if ev.etype == EventType.BARRIER_ARRIVE:
            last_arrival[(ev.obj, ev.arg)] = WakeInfo(ev.tid, ev.time, ev.seq)

    for ev in trace:
        et = ev.etype
        here = WakeInfo(ev.tid, ev.time, ev.seq)
        if et == EventType.RELEASE:
            last_release[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.OBTAIN:
            if ev.arg:  # contended acquisition: waker is the previous releaser
                rel = last_release.get(ev.obj)
                if rel is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: contended OBTAIN on "
                        f"{trace.object_name(ev.obj)} with no preceding RELEASE"
                    )
                wakes[ev.seq] = rel
        elif et == EventType.BARRIER_DEPART:
            arr = last_arrival.get((ev.obj, ev.arg))
            if arr is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: BARRIER_DEPART on {trace.object_name(ev.obj)} "
                    f"generation {ev.arg} with no arrivals"
                )
            wakes[ev.seq] = arr
        elif et in (EventType.COND_SIGNAL, EventType.COND_BROADCAST):
            last_signal[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.COND_WAKE:
            sig = last_signal.get(ev.obj)
            if sig is None or sig.waker_tid != ev.arg:
                # Hand-built traces may omit the COND_SIGNAL event; fall
                # back to the recorded signaller thread's latest event,
                # which is still causally before this wake.
                sig = last_event.get(ev.arg)
                if sig is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: COND_WAKE signalled by T{ev.arg} "
                        "which has no prior events"
                    )
            wakes[ev.seq] = sig
        elif et == EventType.THREAD_EXIT:
            exits[ev.tid] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.JOIN_END:
            target = exits.get(ev.arg)
            if target is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: JOIN_END on T{ev.arg} which has not exited"
                )
            wakes[ev.seq] = target
        elif et == EventType.THREAD_CREATE:
            creations[ev.arg] = here
        last_event[ev.tid] = here
    return WakerTable(wakes=wakes, creations=creations)
