"""Scalability forecasting: which lock becomes critical at more threads.

The paper's opening motivation: "it is important to identify what
critical section bottlenecks **will show up if more threads are
employed**".  This module answers that from a single profile, with a
roofline-style bound model:

* total execution work ``W`` (thread lifetimes minus blocking) divides
  across ``n`` threads: the *work bound* ``W / n``;
* each lock's critical sections serialize: lock ``l`` with ``I_l``
  invocations of mean hold ``s_l`` imposes the *serialization bound*
  ``I_l * s_l`` (independent of ``n``);
* the forecast completion time is the maximum of the bounds, and the
  **saturation point** of a lock is the thread count where its bound
  overtakes the work bound: ``n*_l = W / (I_l * s_l)``.

The model assumes strong scaling of a fixed workload (total work and
lock demand independent of ``n``) and perfect balance — so it is a
*lower* bound on completion time and an *early* estimate of saturation;
its value is the ranking: the lock with the lowest ``n*`` is the one
the paper's method will flag as critical first, before you ever run at
that scale.  Validated against simulator thread sweeps in
``benchmarks/bench_forecast.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import exact_sum
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.units import format_percent

__all__ = ["LockForecast", "ScalabilityForecast", "forecast"]


@dataclass(frozen=True)
class LockForecast:
    """Serialization bound of one lock."""

    obj: int
    name: str
    invocations: int
    mean_hold: float
    serial_demand: float  # invocations * mean_hold

    def saturation_threads(self, total_work: float) -> float:
        """Thread count beyond which this lock bounds completion."""
        if self.serial_demand <= 0:
            return float("inf")
        return total_work / self.serial_demand


@dataclass(frozen=True)
class ScalabilityForecast:
    """Roofline forecast fitted from one profile."""

    total_work: float
    profiled_threads: int
    locks: list[LockForecast]  # sorted by serial demand, largest first

    def completion_time(self, n: int) -> float:
        """max(work bound, largest lock serialization bound)."""
        if n < 1:
            raise AnalysisError(f"n must be >= 1, got {n}")
        lock_bound = self.locks[0].serial_demand if self.locks else 0.0
        return max(self.total_work / n, lock_bound)

    def speedup(self, n: int) -> float:
        """Forecast speedup over 1 thread."""
        return self.completion_time(1) / self.completion_time(n)

    def bottleneck_lock(self, n: int) -> LockForecast | None:
        """The lock bounding completion at ``n`` threads, if any."""
        if not self.locks:
            return None
        top = self.locks[0]
        return top if top.serial_demand >= self.total_work / n else None

    def first_saturating_lock(self) -> LockForecast | None:
        """The lock that saturates at the lowest thread count."""
        return self.locks[0] if self.locks and self.locks[0].serial_demand > 0 else None

    def cp_share_forecast(self, lock_name: str, n: int) -> float:
        """Forecast fraction of completion time inside the lock's CSs."""
        lf = self._lock(lock_name)
        return min(1.0, lf.serial_demand / self.completion_time(n))

    def _lock(self, name: str) -> LockForecast:
        for lf in self.locks:
            if lf.name == name:
                return lf
        known = ", ".join(lf.name for lf in self.locks)
        raise AnalysisError(f"no lock named {name!r} in forecast; known: {known}")

    def to_dict(self, thread_counts: tuple = (8, 16, 32, 64)) -> dict:
        """JSON-serializable dump (used by the analysis service)."""
        return {
            "total_work": self.total_work,
            "profiled_threads": self.profiled_threads,
            "completion_time": {
                str(n): self.completion_time(n) for n in thread_counts
            },
            "locks": [
                {
                    "name": lf.name,
                    "invocations": lf.invocations,
                    "mean_hold": lf.mean_hold,
                    "serial_demand": lf.serial_demand,
                    "saturation_threads": (
                        None
                        if lf.saturation_threads(self.total_work) == float("inf")
                        else lf.saturation_threads(self.total_work)
                    ),
                }
                for lf in self.locks
            ],
        }

    def render(self, thread_counts: tuple = (8, 16, 32, 64), top: int = 5) -> str:
        rows = []
        for lf in self.locks[:top]:
            n_star = lf.saturation_threads(self.total_work)
            rows.append(
                [
                    lf.name,
                    lf.invocations,
                    f"{lf.serial_demand:.4g}",
                    "never" if n_star == float("inf") else f"{n_star:.1f}",
                ]
                + [
                    format_percent(self.cp_share_forecast(lf.name, n))
                    for n in thread_counts
                ]
            )
        return format_table(
            ["Lock", "Invocations", "Serial demand", "Saturates at N"]
            + [f"CP%@{n}" for n in thread_counts],
            rows,
            title=f"Scalability forecast (profiled at {self.profiled_threads} "
            f"threads, total work {self.total_work:.4g})",
        )


def forecast(analysis: AnalysisResult) -> ScalabilityForecast:
    """Fit the roofline forecast from one analysis result."""
    total_work = exact_sum(analysis.timeline_columns.exec_times())
    if total_work <= 0:
        raise AnalysisError("cannot forecast: zero total execution work")
    locks = []
    for m in analysis.report.locks.values():
        if m.total_invocations == 0:
            continue
        locks.append(
            LockForecast(
                obj=m.obj,
                name=m.name,
                invocations=m.total_invocations,
                mean_hold=m.total_hold_time / m.total_invocations,
                serial_demand=m.total_hold_time,
            )
        )
    locks.sort(key=lambda lf: lf.serial_demand, reverse=True)
    return ScalabilityForecast(
        total_work=total_work,
        profiled_threads=len(analysis.timeline_columns.tids),
        locks=locks,
    )
