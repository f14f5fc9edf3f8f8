"""What-if analysis: predicted speedup from optimizing a lock.

The paper validates its rankings by actually optimizing each lock and
re-running (§V).  This module predicts the outcome without re-running:
shrink the execution time spent inside a lock's critical sections on the
event DAG and recompute the longest path.  Because the whole DAG is
re-evaluated, the prediction captures the path shift the paper observes
(the 39% CP-share lock yields only a 7% end-to-end gain once other
segments move onto the critical path) — while keeping the observed lock
acquisition order fixed, which makes it an estimate rather than ground
truth (re-running the workload in the simulator gives ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dag import EventGraph, build_event_graph
from repro.errors import AnalysisError
from repro.trace.trace import Trace

__all__ = ["WhatIfResult", "predict_shrink", "predict_no_contention", "resolve_lock"]


@dataclass(frozen=True)
class WhatIfResult:
    """Predicted outcome of shrinking one lock's critical sections."""

    lock_name: str
    factor: float  # critical sections scaled to this fraction of their size
    baseline_time: float
    predicted_time: float
    mode: str = "shrink"  # "shrink" or "no-contention"

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_time <= 0:
            return float("inf")
        return self.baseline_time / self.predicted_time

    @property
    def predicted_gain(self) -> float:
        """Fractional completion-time reduction (0.07 == 7% faster)."""
        if self.baseline_time <= 0:
            return 0.0
        return 1.0 - self.predicted_time / self.baseline_time

    def __str__(self) -> str:
        if self.mode == "no-contention":
            action = f"eliminating contention on {self.lock_name}"
        else:
            action = (
                f"shrinking critical sections of {self.lock_name} to "
                f"{self.factor:.0%}"
            )
        return (
            f"{action}: predicted speedup {self.predicted_speedup:.3f} "
            f"({self.predicted_gain:.1%} faster)"
        )


def predict_shrink(
    trace: Trace,
    lock: int | str,
    factor: float = 0.0,
    graph: EventGraph | None = None,
) -> WhatIfResult:
    """Predict the speedup from scaling a lock's critical sections.

    Parameters
    ----------
    lock:
        Object id, or display name of a lock in the trace.
    factor:
        New relative critical-section size (0 = eliminate, 0.5 = halve).
    graph:
        Pass a prebuilt :class:`EventGraph` to amortize construction over
        many predictions.
    """
    if graph is None:
        graph = build_event_graph(trace)
    obj = resolve_lock(trace, lock)
    baseline = graph.completion_time()
    predicted = graph.completion_time(graph.shrunk_weights(obj, factor))
    return WhatIfResult(
        lock_name=trace.object_name(obj),
        factor=factor,
        baseline_time=baseline,
        predicted_time=predicted,
    )


def predict_no_contention(
    trace: Trace,
    lock: int | str,
    graph: EventGraph | None = None,
) -> WhatIfResult:
    """Predict the speedup if a lock's acquisitions never blocked.

    Models the hardware/runtime mechanisms of the paper's §VII —
    accelerated critical sections, speculative lock reordering,
    transactional memory — where critical sections still execute but
    waiters no longer serialize behind holders: all contended-handoff
    dependency edges of the lock are removed from the event DAG and the
    longest path is re-solved.  The critical sections' own execution
    time is kept (compare with :func:`predict_shrink`, which keeps the
    serialization but shrinks the work).
    """
    if graph is None:
        graph = build_event_graph(trace)
    obj = resolve_lock(trace, lock)
    baseline = graph.completion_time()
    # A -inf weight is never relaxed: the lock's handoff edges drop out.
    predicted = graph.completion_time(np.where(graph.wake_obj == obj, -np.inf, graph.edge_w))
    return WhatIfResult(
        lock_name=trace.object_name(obj),
        factor=1.0,  # critical-section sizes unchanged
        baseline_time=baseline,
        predicted_time=predicted,
        mode="no-contention",
    )


def resolve_lock(trace: Trace, lock: int | str) -> int:
    """Resolve a lock given by object id or display name to its id.

    Names match exactly first; otherwise a *unique* prefix is accepted
    (``"entry"`` finds ``entry_lock[3]`` if it is the only match).  Both
    misses and ambiguous prefixes raise :class:`AnalysisError` listing
    the candidate lock names.
    """
    if isinstance(lock, int):
        if lock not in trace.objects:
            known = ", ".join(sorted(i.display_name for i in trace.locks))
            raise AnalysisError(
                f"no synchronization object with id {lock}; "
                f"locks in trace: {known}"
            )
        return lock
    for info in trace.locks:
        if info.display_name == lock or info.name == lock:
            return info.obj
    prefixed = [
        info
        for info in trace.locks
        if info.display_name.startswith(lock)
        or (info.name and info.name.startswith(lock))
    ]
    if len(prefixed) == 1:
        return prefixed[0].obj
    known = ", ".join(sorted(i.display_name for i in trace.locks))
    if prefixed:
        candidates = ", ".join(sorted(i.display_name for i in prefixed))
        raise AnalysisError(
            f"no lock named {lock!r}: ambiguous prefix, candidates: {candidates}"
        )
    raise AnalysisError(f"no lock named {lock!r}; locks in trace: {known}")
