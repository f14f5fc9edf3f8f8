"""Analysis data model: waits, hold intervals, timelines, wakers, the
critical path and the TYPE 1 / TYPE 2 metric records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.trace.events import ObjectKind

__all__ = [
    "WAIT_KIND_CODES",
    "WaitKind",
    "Wait",
    "HoldInterval",
    "ThreadTimeline",
    "CPPiece",
    "Junction",
    "WakeInfo",
    "WakerTable",
    "CriticalPath",
    "LockMetrics",
    "ThreadStats",
    "waits_from_columns",
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
class Wait:
    """One blocked interval of one thread.

    ``waker_*`` identify the event that ended the wait: the matching lock
    RELEASE, the last BARRIER_ARRIVE of the cohort, the COND_SIGNAL /
    COND_BROADCAST, or the joinee's THREAD_EXIT.  ``wake_seq`` is the
    sequence number of this thread's own wake event (OBTAIN,
    BARRIER_DEPART, COND_WAKE, JOIN_END); the backward walk cursors on it.
    """

    tid: int
    kind: WaitKind
    obj: int
    start: float  # when the thread started blocking
    end: float  # when the thread was woken
    wake_seq: int  # seq of this thread's wake event
    waker_tid: int
    waker_time: float
    waker_seq: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def waits_from_columns(cols: tuple[np.ndarray, ...]) -> list[Wait]:
    """:class:`Wait` objects from columns in field order, ``kind`` coded."""
    fields = [col.tolist() for col in cols]
    fields[1] = [WAIT_KIND_CODES[k] for k in fields[1]]
    return [Wait(*row) for row in zip(*fields)]


@dataclass(frozen=True, slots=True)
class HoldInterval:
    """One critical section: a lock held from ``start`` to ``end``."""

    tid: int
    obj: int
    start: float  # OBTAIN time
    end: float  # RELEASE time
    contended: bool  # whether the acquisition blocked
    acquire_time: float  # ACQUIRE time (start - acquire_time is the wait)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wait(self) -> float:
        return self.start - self.acquire_time


@dataclass(slots=True)
class ThreadTimeline:
    """One thread's waits and holds as objects: the per-event reference's
    form of what the analysis keeps as ``ColumnarTimelines`` columns.

    ``waits`` and each ``holds[obj]`` list are in increasing time order.
    """

    tid: int
    name: str
    start: float
    end: float
    creator_tid: int | None = None  # None for root threads
    create_time: float = 0.0
    create_seq: int = -1  # seq of the creator's THREAD_CREATE event
    waits: list[Wait] = field(default_factory=list)
    holds: dict[int, list[HoldInterval]] = field(default_factory=dict)

    @property
    def lifetime(self) -> float:
        """Wall time between the thread's first and last event."""
        return self.end - self.start

    def wait_time_by_kind(self) -> dict[WaitKind, float]:
        """Total blocked time per synchronization kind."""
        out: dict[WaitKind, float] = {}
        for w in self.waits:
            out[w.kind] = out.get(w.kind, 0.0) + w.duration
        return out


@dataclass(frozen=True, slots=True)
class CPPiece:
    """One contiguous execution span on the critical path.

    Pieces tile the whole execution: consecutive pieces share boundary
    times, the first starts at the trace start and the last ends at the
    trace end, so their durations sum to the end-to-end completion time.
    """

    tid: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class Junction:
    """A point where the critical path crosses from one thread to another.

    ``kind``/``obj`` describe the synchronization dependency at the
    crossing; ``obj`` is ``-1`` for thread-creation junctions.
    """

    time: float
    from_tid: int  # the waker (earlier on the path)
    to_tid: int  # the woken thread (later on the path)
    kind: WaitKind | None  # None for thread creation
    obj: int


@dataclass(frozen=True, slots=True)
class WakeInfo:
    """The waking event: who enabled a wake, and when."""

    waker_tid: int
    waker_time: float
    waker_seq: int


@dataclass(frozen=True, slots=True)
class WakerTable:
    """Resolved wakers of one trace, keyed by event seq.

    ``wakes`` maps the *seq of a wake event* (OBTAIN with contended flag,
    BARRIER_DEPART, COND_WAKE, JOIN_END) to its waker; ``creations`` maps
    a child tid to the parent's THREAD_CREATE info.
    """

    wakes: dict[int, WakeInfo]
    creations: dict[int, WakeInfo]


class CriticalPath:
    """The critical path of one execution.

    The path is stored as columns with one row per piece, in forward
    time order: ``piece_tid``, ``piece_start``, ``piece_end`` and
    ``piece_wait`` — the row of the wait a piece begins after, ``-1``
    when it begins at its thread's start.  ``wait_fields`` are the
    traversed waits' columns in :class:`Wait` field order (``kind`` as
    its :data:`WAIT_KIND_CODES` code), one row per piece with
    ``piece_wait >= 0``.  The object views are built on first access: ``pieces`` in forward time order;
    ``junctions`` marking the thread crossings between consecutive
    pieces (``len(junctions) == len(pieces) - 1``); ``waits``, the
    blocked intervals the walk traversed (one per synchronization
    junction, none for creations).
    """

    def __init__(
        self,
        piece_tid: np.ndarray,
        piece_start: np.ndarray,
        piece_end: np.ndarray,
        piece_wait: np.ndarray,
        wait_fields: tuple[np.ndarray, ...] | None,
        trace_duration: float,
    ):
        self.piece_tid = piece_tid
        self.piece_start = piece_start
        self.piece_end = piece_end
        self.piece_wait = piece_wait
        self.wait_fields = wait_fields
        self.trace_duration = trace_duration
        self._pieces: list[CPPiece] | None = None
        self._junctions: list[Junction] | None = None
        self._waits: list[Wait] | None = None

    @classmethod
    def from_objects(
        cls,
        pieces: list[CPPiece],
        junctions: list[Junction],
        waits: list[Wait],
        trace_duration: float,
    ) -> CriticalPath:
        """A path whose object views are already built."""
        piece_wait = np.full(len(pieces), -1, dtype=np.int64)
        sync = [k + 1 for k, j in enumerate(junctions) if j.kind is not None]
        piece_wait[sync] = np.arange(len(sync), dtype=np.int64)
        cp = cls(
            piece_tid=np.array([p.tid for p in pieces], dtype=np.int64),
            piece_start=np.array([p.start for p in pieces], dtype=np.float64),
            piece_end=np.array([p.end for p in pieces], dtype=np.float64),
            piece_wait=piece_wait,
            wait_fields=None,
            trace_duration=trace_duration,
        )
        cp._pieces, cp._junctions, cp._waits = pieces, junctions, waits
        return cp

    @property
    def piece_count(self) -> int:
        return len(self.piece_tid)

    @property
    def pieces(self) -> list[CPPiece]:
        if self._pieces is None:
            self._pieces = [
                CPPiece(tid=t, start=s, end=e)
                for t, s, e in zip(
                    self.piece_tid.tolist(),
                    self.piece_start.tolist(),
                    self.piece_end.tolist(),
                )
            ]
        return self._pieces

    @property
    def waits(self) -> list[Wait]:
        if self._waits is None:
            self._waits = waits_from_columns(self.wait_fields)
        return self._waits

    @property
    def junctions(self) -> list[Junction]:
        if self._junctions is None:
            tids = self.piece_tid.tolist()
            starts = self.piece_start.tolist()
            waits = iter(self.waits)
            out: list[Junction] = []
            # The first piece begins at its thread's start, never after a wait.
            for k, row in enumerate(self.piece_wait.tolist()[1:], start=1):
                if row >= 0:
                    w = next(waits)
                    out.append(Junction(w.end, w.waker_tid, tids[k], w.kind, w.obj))
                else:
                    out.append(Junction(starts[k], tids[k - 1], tids[k], None, -1))
            self._junctions = out
        return self._junctions

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

    def junction_count(self, obj: int, kind: WaitKind | None = None) -> int:
        """Number of crossings attributed to a synchronization object."""
        return sum(
            1
            for j in self.junctions
            if j.obj == obj and (kind is None or j.kind == kind)
        )


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
