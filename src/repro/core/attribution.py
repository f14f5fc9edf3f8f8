"""Per-thread drill-down of a critical lock.

The paper's tables aggregate per lock; once a critical lock is known,
the natural next question is *whose* invocations sit on the critical
path — a skewed distribution points at one thread's usage pattern (a
producer enqueuing everything, a master doing the stealing) rather than
the lock itself.  This module splits a lock's TYPE 1 statistics per
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import (
    NO_PIECES,
    exact_sum,
    hold_cp_overlaps,
    thread_pieces,
)
from repro.core.whatif import resolve_lock
from repro.tables import format_table
from repro.units import format_percent

__all__ = ["ThreadLockShare", "LockAttribution", "attribute_lock"]


@dataclass(frozen=True)
class ThreadLockShare:
    """One thread's contribution to a lock's critical-path presence."""

    tid: int
    thread_name: str
    invocations: int
    invocations_on_cp: int
    contended_on_cp: int
    hold_time: float
    cp_hold_time: float

    @property
    def cont_prob_on_cp(self) -> float:
        if self.invocations_on_cp == 0:
            return 0.0
        return self.contended_on_cp / self.invocations_on_cp


@dataclass(frozen=True)
class LockAttribution:
    """Per-thread breakdown of one lock's TYPE 1 statistics."""

    lock_name: str
    cp_length: float
    shares: list[ThreadLockShare]  # sorted by CP hold time, largest first

    @property
    def total_cp_hold(self) -> float:
        return sum(s.cp_hold_time for s in self.shares)

    def dominant_thread(self) -> ThreadLockShare | None:
        return self.shares[0] if self.shares and self.shares[0].cp_hold_time > 0 else None

    def concentration(self) -> float:
        """Fraction of the lock's on-path time owned by its top thread."""
        total = self.total_cp_hold
        if total <= 0:
            return 0.0
        return self.shares[0].cp_hold_time / total

    def render(self, n: int = 10) -> str:
        rows = [
            [
                s.thread_name,
                s.invocations,
                s.invocations_on_cp,
                format_percent(s.cont_prob_on_cp),
                format_percent(s.cp_hold_time / self.cp_length if self.cp_length else 0),
            ]
            for s in self.shares[:n]
        ]
        return format_table(
            ["Thread", "Invocations", "On CP", "Cont. on CP", "CP Time %"],
            rows,
            title=f"Per-thread attribution of {self.lock_name}",
        )


def attribute_lock(analysis: AnalysisResult, lock: int | str) -> LockAttribution:
    """Split a lock's critical-path statistics per thread."""
    obj = resolve_lock(analysis.trace, lock)
    ct = analysis.timeline_columns
    pieces_by_tid = thread_pieces(analysis.critical_path)
    shares = []
    for tid, name in zip(ct.tids.tolist(), ct.names):
        lo, hi = ct.hold_groups.get((tid, obj), (0, 0))
        if hi == lo:
            continue
        h_s, h_e = ct.h_start[lo:hi], ct.h_end[lo:hi]
        overlap, on_cp = hold_cp_overlaps(h_s, h_e, *pieces_by_tid.get(tid, NO_PIECES))
        shares.append(
            ThreadLockShare(
                tid=tid,
                thread_name=name,
                invocations=hi - lo,
                invocations_on_cp=int(np.count_nonzero(on_cp)),
                contended_on_cp=int(np.count_nonzero(on_cp & ct.h_contended[lo:hi])),
                hold_time=exact_sum(h_e - h_s),
                cp_hold_time=exact_sum(overlap),
            )
        )
    shares.sort(key=lambda s: s.cp_hold_time, reverse=True)
    return LockAttribution(
        lock_name=analysis.trace.object_name(obj),
        cp_length=analysis.critical_path.length,
        shares=shares,
    )
