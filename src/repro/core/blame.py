"""Idleness-blame analysis — the prior-art baseline (paper refs [6,7,23,26]).

The methods the paper argues against rank locks by the idle time they
cause; Tallent et al. [26] additionally *attribute* each waiter's idle
time to the thread holding the lock at that moment ("blame shifting").
This module implements that baseline faithfully so the paper's
comparison can be reproduced: for every blocked interval on a lock, the
waiting time is charged to the lock and to its current holder.

Rankings from this module are exactly the TYPE 2 "Wait Time" view —
useful, but (the paper's point) unreliable: see ``bench_baseline.py``
for the cases where it picks the wrong lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer import AnalysisResult
from repro.core.columnar.metrics import exact_sum
from repro.core.model import WAIT_KIND_CODES, WaitKind
from repro.tables import format_table
from repro.units import format_duration, format_percent

__all__ = ["BlameReport", "LockBlame", "compute_blame"]

_LOCK_CODE = WAIT_KIND_CODES.index(WaitKind.LOCK)


@dataclass(frozen=True)
class LockBlame:
    """Idleness caused by one lock, attributed to its holders."""

    obj: int
    name: str
    total_idle: float  # summed waiting time of all blocked acquirers
    idle_fraction: float  # of total thread lifetime
    holder_blame: dict[int, float]  # tid -> idle time charged while holding

    def top_blamed_holder(self) -> int | None:
        if not self.holder_blame:
            return None
        return max(self.holder_blame, key=self.holder_blame.get)


@dataclass
class BlameReport:
    """The baseline tool's output: locks ranked by caused idleness."""

    locks: list[LockBlame] = field(default_factory=list)  # sorted, most idle first
    total_lifetime: float = 0.0

    def lock(self, name: str) -> LockBlame:
        for lb in self.locks:
            if lb.name == name:
                return lb
        raise KeyError(name)

    def ranking(self) -> list[str]:
        """Lock names, most-blamed first — what the baseline would optimize."""
        return [lb.name for lb in self.locks]

    def render(self, n: int = 10, thread_names: dict[int, str] | None = None) -> str:
        rows = []
        for lb in self.locks[:n]:
            top = lb.top_blamed_holder()
            top_name = (
                "-"
                if top is None
                else (thread_names or {}).get(top, f"T{top}")
            )
            rows.append(
                [
                    lb.name,
                    format_duration(lb.total_idle),
                    format_percent(lb.idle_fraction),
                    top_name,
                ]
            )
        return format_table(
            ["Lock", "Caused idleness", "Idle %", "Most-blamed holder"],
            rows,
            title="Idleness-blame ranking (prior-art baseline, refs [6,7,23,26])",
        )


def compute_blame(analysis: AnalysisResult) -> BlameReport:
    """Attribute every lock wait to the lock and the thread that held it."""
    ct = analysis.timeline_columns
    total_lifetime = exact_sum(ct.t_end - ct.t_start)
    lock = ct.w_kind == _LOCK_CODE
    idle: dict[int, float] = {}
    holder_blame: dict[int, dict[int, float]] = {}
    durations = (ct.w_end - ct.w_start)[lock].tolist()
    for obj, waker_tid, duration in zip(
        ct.w_obj[lock].tolist(), ct.w_waker_tid[lock].tolist(), durations
    ):
        idle[obj] = idle.get(obj, 0.0) + duration
        # The waker (the releasing thread) is the holder that kept us
        # waiting; charge the idle time to it, per [26].
        blame = holder_blame.setdefault(obj, {})
        blame[waker_tid] = blame.get(waker_tid, 0.0) + duration
    locks = [
        LockBlame(
            obj=obj,
            name=analysis.trace.object_name(obj),
            total_idle=t,
            idle_fraction=t / total_lifetime if total_lifetime > 0 else 0.0,
            holder_blame=holder_blame.get(obj, {}),
        )
        for obj, t in idle.items()
    ]
    # Locks that never caused idleness still exist; include them at zero.
    seen = set(idle)
    for info in analysis.trace.locks:
        if info.obj not in seen:
            locks.append(
                LockBlame(
                    obj=info.obj,
                    name=info.display_name,
                    total_idle=0.0,
                    idle_fraction=0.0,
                    holder_blame={},
                )
            )
    locks.sort(key=lambda lb: lb.total_idle, reverse=True)
    return BlameReport(locks=locks, total_lifetime=total_lifetime)
