"""Human-readable analysis reports.

:class:`AnalysisReport` bundles the critical path, the per-lock TYPE 1
and TYPE 2 statistics and per-thread breakdowns, with ``render*`` methods
producing the tables of the paper's tool output and ``to_dict`` for
machine consumption (CLI ``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.critical_path import CriticalPath
from repro.core.metrics import LockMetrics, ThreadStats
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.units import format_duration, format_percent

__all__ = ["AnalysisReport"]


@dataclass
class AnalysisReport:
    """Report over one trace's critical lock analysis."""

    name: str
    nthreads: int
    duration: float
    cp: CriticalPath
    locks: dict[int, LockMetrics]
    thread_stats: list[ThreadStats] = field(default_factory=list)

    # -- queries -------------------------------------------------------------

    def lock(self, name: str) -> LockMetrics:
        """Look up one lock's metrics by display name."""
        for m in self.locks.values():
            if m.name == name:
                return m
        known = ", ".join(sorted(m.name for m in self.locks.values()))
        raise AnalysisError(f"no lock named {name!r}; locks in trace: {known}")

    def top_locks(self, n: int | None = None, by: str = "cp_fraction") -> list[LockMetrics]:
        """Locks ranked by a metric attribute (default: CP Time, TYPE 1).

        ``by="avg_wait_fraction"`` ranks the way prior idleness-based
        tools would (TYPE 2), which is exactly the comparison the paper's
        Figs. 6, 8 and 9 draw.
        """
        ranked = sorted(self.locks.values(), key=lambda m: getattr(m, by), reverse=True)
        return ranked if n is None else ranked[:n]

    @property
    def critical_locks(self) -> list[LockMetrics]:
        """Locks appearing on the critical path, ranked by CP Time."""
        return [m for m in self.top_locks() if m.is_critical]

    @property
    def total_cp_lock_fraction(self) -> float:
        """Fraction of the critical path inside any hot critical section.

        Computed as the sum of per-lock CP fractions; nested critical
        sections (one lock taken under another) count once per lock.
        """
        return sum(m.cp_fraction for m in self.locks.values())

    # -- rendering -------------------------------------------------------------

    def render_summary(self) -> str:
        lines = [
            f"critical lock analysis: {self.name or '(unnamed)'}",
            f"  threads: {self.nthreads}   completion time: {format_duration(self.duration)}",
            f"  critical path length: {format_duration(self.cp.length)} "
            f"({self.cp.piece_count} pieces, coverage error "
            f"{format_duration(self.cp.coverage_error)})",
            f"  critical locks: {len(self.critical_locks)} of {len(self.locks)} locks; "
            f"hot critical sections cover "
            f"{format_percent(self.total_cp_lock_fraction)} of the critical path",
        ]
        return "\n".join(lines)

    def render_type1(self, n: int | None = None) -> str:
        """TYPE 1 table: critical-path statistics (paper Table 2, top)."""
        rows = [
            [
                m.name,
                format_percent(m.cp_fraction),
                m.invocations_on_cp,
                format_percent(m.cont_prob_on_cp),
                f"{m.invocation_increase:.2f}",
                f"{m.size_increase:.2f}",
            ]
            for m in self.top_locks(n)
        ]
        return format_table(
            ["Lock", "CP Time %", "Invo. # on CP", "Cont. Prob. on CP %",
             "Incr. Invo.", "Incr. Size"],
            rows,
            title="TYPE 1 — critical lock statistics (on the critical path)",
        )

    def render_type2(self, n: int | None = None) -> str:
        """TYPE 2 table: classical statistics (paper Table 2, bottom)."""
        rows = [
            [
                m.name,
                format_percent(m.avg_wait_fraction),
                f"{m.avg_invocations:.1f}",
                format_percent(m.avg_cont_prob),
                format_percent(m.avg_hold_fraction),
            ]
            for m in self.top_locks(n, by="avg_wait_fraction")
        ]
        return format_table(
            ["Lock", "Wait Time %", "Avg. Invo. #", "Avg. Cont. Prob %",
             "Avg. Hold Time %"],
            rows,
            title="TYPE 2 — per-lock statistics (idleness-based, prior approaches)",
        )

    def render_threads(self) -> str:
        rows = [
            [
                s.name,
                format_duration(s.lifetime),
                format_duration(s.exec_time),
                format_duration(s.lock_wait),
                format_duration(s.barrier_wait),
                format_duration(s.cond_wait + s.join_wait),
                format_duration(s.cp_time),
            ]
            for s in self.thread_stats
        ]
        return format_table(
            ["Thread", "Lifetime", "Exec", "Lock wait", "Barrier wait",
             "Other wait", "On CP"],
            rows,
            title="Per-thread breakdown",
        )

    def render(self, n: int | None = 10) -> str:
        """Full report: summary + TYPE 1 + TYPE 2 + threads."""
        return "\n\n".join(
            [
                self.render_summary(),
                self.render_type1(n),
                self.render_type2(n),
                self.render_threads(),
            ]
        )

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump of every metric."""
        return {
            "name": self.name,
            "nthreads": self.nthreads,
            "duration": self.duration,
            "critical_path": {
                "length": self.cp.length,
                "pieces": self.cp.piece_count,
                "coverage_error": self.cp.coverage_error,
            },
            "locks": {
                m.name: {
                    "cp_time_frac": m.cp_fraction,
                    "invocations_on_cp": m.invocations_on_cp,
                    "cont_prob_on_cp": m.cont_prob_on_cp,
                    "invocation_increase": m.invocation_increase,
                    "size_increase": m.size_increase,
                    "cp_crossings": m.cp_crossings,
                    "wait_time_frac": m.avg_wait_fraction,
                    "avg_invocations": m.avg_invocations,
                    "avg_cont_prob": m.avg_cont_prob,
                    "avg_hold_frac": m.avg_hold_fraction,
                    "total_invocations": m.total_invocations,
                }
                for m in self.locks.values()
            },
            "threads": [
                {
                    "tid": s.tid,
                    "name": s.name,
                    "lifetime": s.lifetime,
                    "exec": s.exec_time,
                    "lock_wait": s.lock_wait,
                    "barrier_wait": s.barrier_wait,
                    "cond_wait": s.cond_wait,
                    "join_wait": s.join_wait,
                    "cp_time": s.cp_time,
                }
                for s in self.thread_stats
            ],
        }
