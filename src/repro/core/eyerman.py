"""Eyerman & Eeckhout's analytical critical-section model (paper ref [10]).

The paper's §III.B builds its two metrics on Eyerman & Eeckhout,
"Modeling Critical Sections in Amdahl's Law and its Implications for
Multicore Design" (ISCA 2010): the achievable speedup of a multithreaded
program is limited not just by its sequential fraction but by the
*contention probability* and *size* of its critical sections.  Their key
result: with a fraction ``f_crit`` of work inside critical sections and a
contention probability ``p_ctn``, the contended part
``f_crit * p_ctn`` serializes while everything else scales, giving

    T(N) = (1 - f_crit) / N  +  f_crit * (1 - p_ctn) / N  +  f_crit * p_ctn
    speedup(N) = T(1) / T(N) = 1 / ((1 - f_crit * p_ctn) / N + f_crit * p_ctn)

i.e. an Amdahl law whose "sequential fraction" is the contended critical-
section fraction.  The paper's criticism (and the reason this module
exists) is that [10] treats **all** critical sections as equally critical;
critical lock analysis replaces the aggregate ``f_crit * p_ctn`` with
per-lock, on-critical-path measurements.

This module implements the model, fits its parameters from a trace, and
— as an ablation — lets benchmarks compare the model's speedup ceiling
against the simulator's measured scaling and against critical-lock-
analysis-based predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import exact_sum
from repro.errors import AnalysisError

__all__ = ["CriticalSectionModel", "eyerman_speedup", "fit_model"]


def eyerman_speedup(f_crit: float, p_ctn: float, n: int, f_seq: float = 0.0) -> float:
    """Predicted speedup at ``n`` threads under the [10] model.

    Parameters
    ----------
    f_crit:
        Fraction of single-thread execution time spent inside critical
        sections.
    p_ctn:
        Probability that a critical-section entry contends.
    n:
        Thread count.
    f_seq:
        Classic Amdahl sequential fraction outside critical sections.
    """
    if not 0 <= f_crit <= 1:
        raise AnalysisError(f"f_crit must be in [0, 1], got {f_crit}")
    if not 0 <= p_ctn <= 1:
        raise AnalysisError(f"p_ctn must be in [0, 1], got {p_ctn}")
    if not 0 <= f_seq <= 1 - f_crit:
        raise AnalysisError(f"f_seq must be in [0, {1 - f_crit}], got {f_seq}")
    if n < 1:
        raise AnalysisError(f"n must be >= 1, got {n}")
    serialized = f_seq + f_crit * p_ctn
    parallel = 1.0 - serialized
    return 1.0 / (parallel / n + serialized)


@dataclass(frozen=True)
class CriticalSectionModel:
    """Fitted parameters of the [10] model for one traced execution."""

    f_crit: float  # critical-section fraction of total thread time
    p_ctn: float  # aggregate contention probability
    nthreads: int  # thread count of the profiled run

    def speedup(self, n: int) -> float:
        """Model-predicted speedup over 1 thread at ``n`` threads."""
        return eyerman_speedup(self.f_crit, self.p_ctn, n)

    def speedup_ceiling(self) -> float:
        """Asymptotic speedup as ``n`` grows without bound."""
        serialized = self.f_crit * self.p_ctn
        if serialized <= 0:
            return float("inf")
        return 1.0 / serialized

    def __str__(self) -> str:
        ceiling = self.speedup_ceiling()
        ceiling_s = "unbounded" if ceiling == float("inf") else f"{ceiling:.1f}x"
        return (
            f"Eyerman-Eeckhout model: f_crit={self.f_crit:.3f}, "
            f"p_ctn={self.p_ctn:.3f} -> speedup ceiling {ceiling_s}"
        )


def fit_model(analysis: AnalysisResult) -> CriticalSectionModel:
    """Fit the [10] parameters from a critical-lock-analysis result.

    ``f_crit`` is the aggregate hold-time fraction of *execution* time
    (thread lifetimes minus blocked time — the model's parameters
    describe work, and blocking would dilute the fraction under
    contention); ``p_ctn`` is the aggregate contended fraction of lock
    acquisitions, which grows with the thread count of the profiled run.
    """
    total_lifetime = exact_sum(analysis.timeline_columns.exec_times())
    if total_lifetime <= 0:
        raise AnalysisError("cannot fit model: zero total thread execution time")
    total_hold = 0.0
    total_inv = 0
    contended = 0
    for m in analysis.report.locks.values():
        total_hold += m.total_hold_time
        total_inv += m.total_invocations
        contended += m.contended_invocations
    return CriticalSectionModel(
        f_crit=min(1.0, total_hold / total_lifetime),
        p_ctn=(contended / total_inv) if total_inv else 0.0,
        nthreads=len(analysis.timeline_columns.tids),
    )
