"""Backward critical-path walk over columnar timelines.

Identical control flow to the per-event
:func:`repro.check.reference.compute_critical_path`
— start at the last event of the last finished thread, cursor backwards,
jump to the waker whenever the position follows a blocked interval — but
every lookup the walk can make is answered up front: one vectorized
``np.searchsorted`` over the waits packed by (thread rank, wake seq)
gives, for each wait, the wait the walk lands on after jumping to its
waker, and for each thread the wait it lands on after jumping to its
creator.  The walk itself then follows plain Python ints and records
one integer per piece; the :class:`~repro.core.model.CriticalPath`
columns are assembled from those with a few gathers.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar.timelines import ColumnarTimelines
from repro.core.model import CriticalPath
from repro.errors import AnalysisError
from repro.trace.ops import dense_keys
from repro.trace.trace import Trace

__all__ = ["compute_critical_path_columnar"]


def compute_critical_path_columnar(trace: Trace, ct: ColumnarTimelines) -> CriticalPath:
    """Columnar twin of :func:`repro.check.reference.compute_critical_path`."""
    if len(trace) == 0:
        none_i, none_f = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        return CriticalPath(none_i, none_f, none_f, none_i, trace_duration=0.0)
    # Every cursor the walk can stand on: at each wait's waker, at each
    # thread's creator, and at the last event.  Its landing wait is the
    # last wait of that thread woken at or before it; waits are sorted
    # by (tid, wake_seq), so one searchsorted over the packed (thread
    # rank, seq) keys answers every cursor at once.
    nw = len(ct.w_tid)
    has_creator = ct.creator_tid >= 0
    last = trace.records[len(trace) - 1]
    creator = np.where(has_creator, ct.creator_tid, ct.tids)
    rank = np.searchsorted(
        ct.tids, np.concatenate([ct.w_tid, ct.w_waker_tid, creator, [last["tid"]]])
    )
    key = dense_keys(
        rank,
        np.concatenate([ct.w_wake_seq, ct.w_waker_seq, ct.create_seq, [int(last["seq"])]]),
    )
    cursor_rank = rank[nw:]
    landing = np.searchsorted(key[:nw], key[nw:], side="right") - 1
    landing[landing < ct.wait_lo[cursor_rank]] = -1
    waker_rank, after_wait = cursor_rank[:nw], landing[:nw]
    creator_rank = np.where(has_creator, cursor_rank[nw:-1], -1)
    after_create = landing[nw:-1]
    i, j = int(cursor_rank[-1]), int(landing[-1])

    # One int per piece, walking backwards: the wait row the piece
    # begins after, or -1 - rank for a piece from its thread's start.
    w_rank, w_next = waker_rank.tolist(), after_wait.tolist()
    c_rank, c_next = creator_rank.tolist(), after_create.tolist()
    steps: list[int] = []
    max_steps = ct.n_events + len(ct.tids) + 1
    while True:
        if len(steps) > max_steps:
            raise AnalysisError(
                "backward walk did not terminate: trace has wake events "
                "recorded before their wakers"
            )
        if j >= 0:
            steps.append(j)
            i, j = w_rank[j], w_next[j]
        else:
            steps.append(-1 - i)
            if c_rank[i] < 0:
                break
            i, j = c_rank[i], c_next[i]

    step = np.array(steps[::-1], dtype=np.int64)
    on_wait = step >= 0
    rows, ranks = step[on_wait], -1 - step[~on_wait]

    def gather(wait_col: np.ndarray, thread_col: np.ndarray) -> np.ndarray:
        out = np.empty(len(step), dtype=wait_col.dtype)
        out[on_wait] = wait_col[rows]
        out[~on_wait] = thread_col[ranks]
        return out

    # Each piece ends where the walk left the next one (forward order):
    # at that wait's waker, or at that thread's creation.
    piece_end = np.empty(len(step), dtype=np.float64)
    piece_end[:-1] = gather(ct.w_waker_time, ct.create_time)[1:]
    piece_end[-1] = float(last["time"])
    return CriticalPath(
        piece_tid=gather(ct.w_tid, ct.tids),
        piece_start=gather(ct.w_end, ct.t_start),
        piece_end=piece_end,
        piece_wait=np.where(on_wait, step, -1),
        trace_duration=trace.duration,
    )
