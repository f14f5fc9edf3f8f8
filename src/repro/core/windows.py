"""Windowed critical lock analysis: lock criticality over time.

The paper's future work (§VII) proposes feeding critical-lock rankings
to runtime mechanisms (accelerated critical sections, speculative lock
reordering, transactional memory), which need to know **which lock is
critical right now** — a single whole-run ranking hides phase behaviour.

This module splits the critical path into equal time windows and
attributes each window's path time to the locks whose hot critical
sections occupy it, yielding a (window x lock) criticality matrix and a
per-window dominant lock.  Because the critical path tiles the
execution, the per-window shares are directly comparable across windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import cp_hold_by_interval
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.units import format_percent

__all__ = ["WindowedCriticality", "windowed_criticality"]


@dataclass(frozen=True)
class WindowedCriticality:
    """Per-time-window lock shares of the critical path.

    ``shares[w, i]`` is the fraction of window ``w``'s critical-path time
    spent inside critical sections of ``lock_names[i]``.
    """

    window_edges: np.ndarray  # (nwindows + 1,) time boundaries
    lock_names: list[str]
    shares: np.ndarray  # (nwindows, nlocks)

    @property
    def nwindows(self) -> int:
        return len(self.shares)

    def dominant_lock(self, window: int) -> str | None:
        """Name of the lock owning the most path time in a window."""
        row = self.shares[window]
        if not len(row) or row.max() <= 0:
            return None
        return self.lock_names[int(np.argmax(row))]

    def phase_changes(self) -> list[int]:
        """Windows where the dominant lock differs from the previous window."""
        doms = [self.dominant_lock(w) for w in range(self.nwindows)]
        return [w for w in range(1, self.nwindows) if doms[w] != doms[w - 1]]

    def render(self, max_locks: int = 6) -> str:
        """Table: one row per window, one column per (top) lock."""
        totals = self.shares.sum(axis=0)
        order = np.argsort(totals)[::-1][:max_locks]
        headers = ["Window"] + [self.lock_names[i] for i in order] + ["Dominant"]
        rows = []
        for w in range(self.nwindows):
            t0, t1 = self.window_edges[w], self.window_edges[w + 1]
            rows.append(
                [f"[{t0:.4g}, {t1:.4g})"]
                + [format_percent(self.shares[w, i]) for i in order]
                + [self.dominant_lock(w) or "-"]
            )
        return format_table(
            headers, rows, title="Lock criticality over time (share of window CP)"
        )


def windowed_criticality(
    analysis: AnalysisResult, nwindows: int = 10
) -> WindowedCriticality:
    """Split the critical path into time windows and attribute lock shares."""
    if nwindows < 1:
        raise AnalysisError(f"nwindows must be >= 1, got {nwindows}")
    trace = analysis.trace
    start, end = trace.start_time, trace.end_time
    if end <= start:
        raise AnalysisError("trace has zero duration")
    edges = np.linspace(start, end, nwindows + 1)
    locks = trace.locks
    # Window CP time: pieces tile [start, end], so each window's CP time
    # equals its width — but take it from the pieces so the shares hold
    # even on real traces with coverage error.
    window_cp, shares = cp_hold_by_interval(
        analysis.timeline_columns, analysis.critical_path, edges, [i.obj for i in locks]
    )
    nonzero = window_cp > 0
    shares[nonzero] /= window_cp[nonzero, None]
    return WindowedCriticality(
        window_edges=edges,
        lock_names=[info.display_name for info in locks],
        shares=shares,
    )
