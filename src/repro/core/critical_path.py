"""The backward critical-path walk (paper Fig. 2).

Starting from the last segment of the last finished thread, walk
backwards; whenever the current position follows a blocked interval, jump
to the thread whose event released the blocked thread; otherwise keep
walking the same thread.  The walk yields contiguous execution *pieces*
that tile the whole execution, so their durations sum exactly to the
end-to-end completion time (asserted up to clock skew for real traces).

Termination is guaranteed because the cursor's event sequence number
strictly decreases at every jump (a waker's event always precedes the
wake it causes), which also makes the walk robust to chains of
simultaneous events in virtual-time traces.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.model import CPPiece, Junction, ThreadTimeline, Wait, WaitKind
from repro.errors import AnalysisError
from repro.core.segments import build_timelines
from repro.core.wakers import WakerTable
from repro.trace.trace import Trace

__all__ = ["CriticalPath", "compute_critical_path"]


class CriticalPath:
    """The critical path of one execution.

    The path is stored as columns with one row per piece, in forward
    time order: ``piece_tid``, ``piece_start``, ``piece_end`` and
    ``piece_wait`` — the row of the wait a piece begins after, ``-1``
    when it begins at its thread's start; ``wait_at(row)`` returns that
    :class:`Wait`.  The object views are built on first access:
    ``pieces`` in forward time order; ``junctions`` marking the thread
    crossings between consecutive pieces (``len(junctions) ==
    len(pieces) - 1``); ``waits``, the blocked intervals the walk
    traversed (one per synchronization junction, none for creations).
    """

    def __init__(
        self,
        piece_tid: np.ndarray,
        piece_start: np.ndarray,
        piece_end: np.ndarray,
        piece_wait: np.ndarray,
        wait_at: Callable[[int], Wait],
        trace_duration: float,
    ):
        self.piece_tid = piece_tid
        self.piece_start = piece_start
        self.piece_end = piece_end
        self.piece_wait = piece_wait
        self.wait_at = wait_at
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
            wait_at=waits.__getitem__,
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
            self._waits = [self.wait_at(row) for row in self.piece_wait.tolist() if row >= 0]
        return self._waits

    @property
    def junctions(self) -> list[Junction]:
        if self._junctions is None:
            tids = self.piece_tid.tolist()
            starts = self.piece_start.tolist()
            waits = iter(self.waits)
            out: list[Junction] = []
            for k, row in enumerate(self.piece_wait.tolist()):
                w = next(waits) if row >= 0 else None
                if k == 0:
                    continue
                if w is not None:
                    out.append(
                        Junction(
                            time=w.end,
                            from_tid=w.waker_tid,
                            to_tid=tids[k],
                            kind=w.kind,
                            obj=w.obj,
                        )
                    )
                else:
                    out.append(
                        Junction(
                            time=starts[k],
                            from_tid=tids[k - 1],
                            to_tid=tids[k],
                            kind=None,
                            obj=-1,
                        )
                    )
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

    def pieces_by_thread(self) -> dict[int, list[CPPiece]]:
        """Group pieces per thread (each group sorted by time)."""
        out: dict[int, list[CPPiece]] = {}
        for p in self.pieces:
            out.setdefault(p.tid, []).append(p)
        return out

    def junction_count(self, obj: int, kind: WaitKind | None = None) -> int:
        """Number of crossings attributed to a synchronization object."""
        return sum(
            1
            for j in self.junctions
            if j.obj == obj and (kind is None or j.kind == kind)
        )


@dataclass
class _Cursor:
    tid: int
    time: float
    seq: int


def compute_critical_path(
    trace: Trace,
    timelines: dict[int, ThreadTimeline] | None = None,
    wakers: WakerTable | None = None,
) -> CriticalPath:
    """Run the backward walk and return the critical path.

    ``timelines`` may be passed to reuse a previous
    :func:`repro.core.segments.build_timelines` result.
    """
    if len(trace) == 0:
        return CriticalPath.from_objects([], [], [], trace_duration=0.0)
    if timelines is None:
        timelines = build_timelines(trace, wakers)

    # Pre-extract each thread's wake-seq array for bisection.
    wake_seqs: dict[int, list[int]] = {
        tid: [w.wake_seq for w in tl.waits] for tid, tl in timelines.items()
    }

    last = trace[len(trace) - 1]
    cur = _Cursor(tid=last.tid, time=last.time, seq=last.seq)
    pieces: list[CPPiece] = []
    junctions: list[Junction] = []
    waits: list[Wait] = []

    # For traces produced by the simulator or the instrumentation layer a
    # waker's event always precedes the wake, so the cursor seq strictly
    # decreases and the walk visits at most one piece per wake event.  The
    # guard protects against hand-built traces that violate that ordering.
    max_steps = len(trace) + len(timelines) + 1

    while True:
        if len(pieces) > max_steps:
            raise AnalysisError(
                "backward walk did not terminate: trace has wake events "
                "recorded before their wakers"
            )
        tl = timelines[cur.tid]
        seqs = wake_seqs[cur.tid]
        idx = bisect_right(seqs, cur.seq) - 1
        if idx >= 0:
            w = tl.waits[idx]
            pieces.append(CPPiece(tid=cur.tid, start=w.end, end=cur.time))
            junctions.append(
                Junction(
                    time=w.end,
                    from_tid=w.waker_tid,
                    to_tid=cur.tid,
                    kind=w.kind,
                    obj=w.obj,
                )
            )
            waits.append(w)
            cur = _Cursor(tid=w.waker_tid, time=w.waker_time, seq=w.waker_seq)
        else:
            pieces.append(CPPiece(tid=cur.tid, start=tl.start, end=cur.time))
            if tl.creator_tid is not None:
                junctions.append(
                    Junction(
                        time=tl.start,
                        from_tid=tl.creator_tid,
                        to_tid=cur.tid,
                        kind=None,
                        obj=-1,
                    )
                )
                cur = _Cursor(tl.creator_tid, tl.create_time, tl.create_seq)
            else:
                break

    pieces.reverse()
    junctions.reverse()
    waits.reverse()
    return CriticalPath.from_objects(pieces, junctions, waits, trace.duration)
