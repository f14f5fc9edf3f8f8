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
from dataclasses import dataclass

from repro.core.model import CPPiece, Junction, ThreadTimeline, Wait, WaitKind
from repro.errors import AnalysisError
from repro.core.segments import build_timelines
from repro.core.wakers import WakerTable
from repro.trace.trace import Trace

__all__ = ["CriticalPath", "compute_critical_path"]


@dataclass(frozen=True)
class CriticalPath:
    """The critical path of one execution.

    ``pieces`` are in forward time order; ``junctions`` mark the thread
    crossings between consecutive pieces (``len(junctions) ==
    len(pieces) - 1``); ``waits`` are the blocked intervals the walk
    traversed (one per synchronization junction, none for creations).
    """

    pieces: list[CPPiece]
    junctions: list[Junction]
    waits: list[Wait]
    trace_duration: float

    @property
    def length(self) -> float:
        """Sum of piece durations — the critical path length."""
        return sum(p.duration for p in self.pieces)

    @property
    def start(self) -> float:
        return self.pieces[0].start if self.pieces else 0.0

    @property
    def end(self) -> float:
        return self.pieces[-1].end if self.pieces else 0.0

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
        return CriticalPath(pieces=[], junctions=[], waits=[], trace_duration=0.0)
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
    return CriticalPath(
        pieces=pieces,
        junctions=junctions,
        waits=waits,
        trace_duration=trace.duration,
    )
