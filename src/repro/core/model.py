"""Analysis data model: wait kinds, wakers, the critical path (as
columns) and the TYPE 1 / TYPE 2 metric records.

The per-event object forms of waits, holds, timelines and path pieces
belong to the test reference, :mod:`repro.check.reference`."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.trace.events import ObjectKind

__all__ = [
    "WAIT_KIND_CODES",
    "WaitKind",
    "WakeInfo",
    "CriticalPath",
    "LockMetrics",
    "ThreadStats",
]


class WaitKind(enum.Enum):
    """What kind of synchronization a blocked interval waited on."""

    LOCK = "lock"  # mutex / semaphore / rwlock
    BARRIER = "barrier"
    CONDITION = "condition"
    JOIN = "join"


#: Wait-kind code (uint8 column value) -> WaitKind, in a fixed order.
WAIT_KIND_CODES: list[WaitKind] = [
    WaitKind.LOCK,
    WaitKind.BARRIER,
    WaitKind.CONDITION,
    WaitKind.JOIN,
]


@dataclass(frozen=True, slots=True)
class WakeInfo:
    """The waking event: who enabled a wake, and when."""

    waker_tid: int
    waker_time: float
    waker_seq: int


class CriticalPath:
    """The critical path of one execution, as columns.

    One row per piece, in forward time order: ``piece_tid``,
    ``piece_start``, ``piece_end`` and ``piece_wait`` — the row (into
    the analysis's ``timeline_columns`` waits) of the wait a piece
    begins after, ``-1`` when it begins at its thread's start.  Pieces
    tile the whole execution: consecutive pieces share boundary times,
    so their durations sum to the end-to-end completion time.
    """

    def __init__(
        self,
        piece_tid: np.ndarray,
        piece_start: np.ndarray,
        piece_end: np.ndarray,
        piece_wait: np.ndarray,
        trace_duration: float,
    ):
        self.piece_tid = piece_tid
        self.piece_start = piece_start
        self.piece_end = piece_end
        self.piece_wait = piece_wait
        self.trace_duration = trace_duration

    @property
    def piece_count(self) -> int:
        return len(self.piece_tid)

    @property
    def length(self) -> float:
        """Sum of piece durations — the critical path length.

        Added left to right, like a Python accumulator loop.
        """
        if self.piece_count == 0:
            return 0.0
        return float(np.cumsum(self.piece_end - self.piece_start)[-1])

    @property
    def start(self) -> float:
        return float(self.piece_start[0]) if self.piece_count else 0.0

    @property
    def end(self) -> float:
        return float(self.piece_end[-1]) if self.piece_count else 0.0

    @property
    def coverage_error(self) -> float:
        """|critical path length − trace duration|.

        Exactly 0 for simulator traces; bounded by accumulated
        release-to-obtain clock skew for real-thread traces.
        """
        return abs(self.length - self.trace_duration)


@dataclass(frozen=True)
class LockMetrics:
    """TYPE 1 + TYPE 2 statistics for one lock (paper Table 2, §III.B).

    TYPE 1 — along the critical path (this paper's contribution):

    * ``cp_fraction`` ("CP Time %"): fraction of the critical path
      occupied by hot critical sections protected by the lock;
    * ``invocations_on_cp`` ("Invocation # on CP");
    * ``cont_prob_on_cp`` ("Cont. Prob. on CP %"): of the invocations on
      the critical path, the fraction whose acquisition blocked;
    * ``invocation_increase`` ("Incr. Times of Invo. #"): invocations on
      the critical path vs the per-thread average — the amplification a
      contended lock suffers on the path (paper Fig. 10);
    * ``size_increase`` ("Incr. Times of Critical Section Size"): CP
      Time % vs the average per-thread hold fraction (paper Fig. 11).

    TYPE 2 — classical per-lock statistics used by prior tools:

    * ``avg_wait_fraction`` ("Wait Time %"): average over threads of the
      fraction of the thread's lifetime spent waiting for the lock;
    * ``avg_invocations`` ("Avg. Invo. #") per thread;
    * ``avg_cont_prob`` ("Avg. Cont. Prob %") over all invocations;
    * ``avg_hold_fraction`` ("Avg. Hold Time %").
    """

    obj: int
    name: str
    kind: ObjectKind
    # TYPE 1 — critical path statistics
    cp_hold_time: float
    cp_fraction: float
    invocations_on_cp: int
    contended_on_cp: int
    invocation_increase: float
    size_increase: float
    cp_crossings: int  # times the critical path jumped threads via this lock
    # TYPE 2 — classical statistics
    total_invocations: int
    contended_invocations: int
    avg_invocations: float
    total_wait_time: float
    avg_wait_fraction: float
    total_hold_time: float
    avg_hold_fraction: float

    @property
    def cont_prob_on_cp(self) -> float:
        """Contention probability of this lock along the critical path."""
        if self.invocations_on_cp == 0:
            return 0.0
        return self.contended_on_cp / self.invocations_on_cp

    @property
    def avg_cont_prob(self) -> float:
        """Overall contention probability across all invocations."""
        if self.total_invocations == 0:
            return 0.0
        return self.contended_invocations / self.total_invocations

    @property
    def is_critical(self) -> bool:
        """Whether this is a critical lock (appears on the critical path)."""
        return self.invocations_on_cp > 0


@dataclass(frozen=True)
class ThreadStats:
    """Per-thread execution/blocking breakdown (extra diagnostics)."""

    tid: int
    name: str
    lifetime: float
    exec_time: float
    lock_wait: float
    barrier_wait: float
    cond_wait: float
    join_wait: float
    cp_time: float  # time this thread spent on the critical path

    @property
    def total_wait(self) -> float:
        return self.lock_wait + self.barrier_wait + self.cond_wait + self.join_wait
