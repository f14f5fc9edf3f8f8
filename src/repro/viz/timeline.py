"""ASCII execution timelines (paper Figs. 1 and 7).

One row per thread, one character per time bucket:

* a letter — thread holds the lock assigned that letter (legend below
  the chart); uppercase marks buckets lying on the critical path;
* ``=`` — executing outside critical sections (``#`` when on the
  critical path);
* ``.`` — blocked;
* space — before the thread started / after it exited.

The critical-path overlay makes the paper's core visual argument
directly readable: a heavily idle lock (lots of ``.``) may be entirely
off the path, while the path runs straight through uncontended critical
sections.
"""

from __future__ import annotations

import string

import numpy as np

from repro.core.analyzer import AnalysisResult, analyze
from repro.core.columnar.metrics import split_intervals
from repro.trace.trace import Trace

__all__ = ["render_timeline"]


def render_timeline(
    trace: Trace,
    analysis: AnalysisResult | None = None,
    width: int = 100,
    show_cp: bool = True,
) -> str:
    """Render the execution as an ASCII Gantt chart with CP overlay."""
    if analysis is None:
        analysis = analyze(trace, validate=False)
    duration = trace.duration
    if duration <= 0 or width < 2:
        return "(empty trace)"
    t0 = trace.start_time
    dt = duration / width

    # Assign letters to locks in CP-importance order.
    letters = string.ascii_lowercase
    locks_ranked = [m for m in analysis.report.top_locks() if m.total_invocations > 0]
    letter_of = {m.obj: letters[i % len(letters)] for i, m in enumerate(locks_ranked)}

    ct = analysis.timeline_columns
    tids = ct.tids.tolist()
    # Bucket k is [b0[k], b1[k]); cell t * width + k is thread t's bucket k.
    b0 = t0 + np.arange(width) * dt
    b1 = b0 + dt
    ncells = len(tids) * width

    def cells(tid: np.ndarray, start: np.ndarray, end: np.ndarray):
        """(interval, cell, overlap) for every bucket of its thread an
        interval overlaps for positive time, interval-major."""
        item, bucket, overlap = split_intervals(start, end, b0, b1)
        return item, np.searchsorted(ct.tids, tid)[item] * width + bucket, overlap

    # Each cell's hold: the largest overlap, ties to the first hold in
    # ``hold_obj_order`` and then start order (a scan keeping a strict >).
    order = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.arange(*ct.hold_groups[(tid, obj)])
        for tid in tids
        for obj in ct.hold_obj_order.get(tid, ())
    ])
    hold, cell, overlap = cells(ct.h_tid[order], ct.h_start[order], ct.h_end[order])
    hold_best = np.zeros(ncells)
    np.maximum.at(hold_best, cell, overlap)
    won = overlap == hold_best[cell]
    won_cells, first = np.unique(cell[won], return_index=True)
    hold_letter = np.full(ncells, "", dtype="<U1")
    hold_letter[won_cells] = [
        letter_of.get(obj, "?") for obj in ct.h_obj[order][hold[won][first]].tolist()
    ]

    _, cell, overlap = cells(ct.w_tid, ct.w_start, ct.w_end)
    wait_time = np.bincount(cell, overlap, minlength=ncells)

    cp = analysis.critical_path
    _, cell, _ = cells(cp.piece_tid, cp.piece_start, cp.piece_end)
    on_cp = np.zeros(ncells, dtype=bool)
    on_cp[cell] = show_cp

    start, end = ct.t_start[:, None], ct.t_end[:, None]
    span = (np.minimum(end, b1) - np.maximum(start, b0)).ravel()
    blank = (span <= 0) & ~((start == end) & (end == b0)).ravel()
    chars = np.where(
        (hold_best > 0) & (hold_best >= wait_time),
        hold_letter,
        np.where(wait_time > span / 2, ".", "="),
    )
    chars = np.where(on_cp, np.char.upper(np.char.replace(chars, "=", "#")), chars)
    chars[blank] = " "
    name_w = max((len(name) for name in ct.names), default=2)
    lines = [
        f"{name.rjust(name_w)} |{''.join(row)}|"
        for name, row in zip(ct.names, chars.reshape(len(tids), width).tolist())
    ]

    legend = "  ".join(
        f"{letter_of[m.obj]}={m.name}" for m in locks_ranked if m.obj in letter_of
    )
    header = (
        f"time 0 .. {duration:.4g} ({dt:.4g}/char); "
        "UPPERCASE/# = on critical path, . = blocked"
    )
    out = [header] + lines
    if legend:
        out.append("locks: " + legend)
    return "\n".join(out)
