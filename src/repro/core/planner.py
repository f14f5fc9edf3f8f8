"""Greedy optimization planning on the what-if engine.

Given a budget of optimization steps ("halve one lock's critical
sections" each), repeatedly pick the lock whose shrink yields the
largest predicted end-to-end gain, apply it to the DAG weights, and
continue — producing an ordered optimization plan with cumulative
predicted speedups.  This operationalizes the paper's workflow (rank,
optimize, re-rank: §V.D) without any re-running, and naturally handles
the path-shift effect: after step 1 shrinks the dominant lock, step 2
is chosen against the *shifted* critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.units import format_percent

__all__ = ["PlanStep", "OptimizationPlan", "plan_optimizations"]


@dataclass(frozen=True)
class PlanStep:
    """One greedy step: shrink one lock, with predicted outcomes."""

    lock_name: str
    factor: float
    predicted_time: float
    step_gain: float  # vs the previous step's time
    cumulative_speedup: float  # vs the original baseline


@dataclass(frozen=True)
class OptimizationPlan:
    """Ordered lock-optimization plan with cumulative predictions."""

    baseline_time: float
    steps: list[PlanStep]

    @property
    def final_speedup(self) -> float:
        return self.steps[-1].cumulative_speedup if self.steps else 1.0

    def render(self) -> str:
        rows = [
            [
                i + 1,
                s.lock_name,
                f"x{s.factor:.2f}",
                f"{s.predicted_time:.4g}",
                format_percent(s.step_gain),
                f"{s.cumulative_speedup:.3f}",
            ]
            for i, s in enumerate(self.steps)
        ]
        return format_table(
            ["Step", "Shrink lock", "To", "Predicted time", "Step gain",
             "Cumulative speedup"],
            rows,
            title=f"Optimization plan (baseline {self.baseline_time:.4g})",
        )


def plan_optimizations(
    analysis: AnalysisResult,
    steps: int = 3,
    factor: float = 0.5,
    min_gain: float = 0.01,
) -> OptimizationPlan:
    """Greedily pick the best lock to shrink, ``steps`` times.

    Each step multiplies the chosen lock's critical-section execution
    time by ``factor`` on the event DAG (composing with earlier steps)
    and stops early once the best remaining step gains less than
    ``min_gain`` (fractional).
    """
    if steps < 1:
        raise AnalysisError(f"steps must be >= 1, got {steps}")
    if not 0 <= factor < 1:
        raise AnalysisError(f"factor must be in [0, 1), got {factor}")
    graph = analysis.graph
    baseline = graph.completion_time()
    weights = graph.edge_w.copy()
    current = baseline
    candidates = [m.obj for m in analysis.report.locks.values() if m.total_invocations]
    plan: list[PlanStep] = []
    for _ in range(steps):
        best: tuple[float, int, np.ndarray] | None = None
        for obj in candidates:
            trial = _shrunk(graph, weights, obj, factor)
            t = graph.completion_time(trial)
            if best is None or t < best[0]:
                best = (t, obj, trial)
        if best is None:
            break
        t, obj, trial = best
        gain = 1.0 - t / current if current > 0 else 0.0
        if gain < min_gain:
            break
        plan.append(
            PlanStep(
                lock_name=analysis.trace.object_name(obj),
                factor=factor,
                predicted_time=t,
                step_gain=gain,
                cumulative_speedup=baseline / t if t > 0 else float("inf"),
            )
        )
        weights = trial
        current = t
    return OptimizationPlan(baseline_time=baseline, steps=plan)


def _shrunk(graph, weights: np.ndarray, obj: int, factor: float) -> np.ndarray:
    """Scale ``weights``' execution spans inside ``obj``'s holds by ``factor``.

    Unlike :meth:`EventGraph.shrunk_weights` this composes with already-
    modified weights: the overlap fraction is applied to the *current*
    weight of each execution edge.
    """
    overlap = graph.span_hold_overlap(obj)
    span_len = graph.span_t1 - graph.span_t0
    hit = (overlap > 0) & (span_len > 0)
    frac = overlap[hit] / span_len[hit]
    edges = graph.span_edge[hit]
    out = weights.copy()
    out[edges] = weights[edges] * (1 - frac + frac * factor)
    return out
