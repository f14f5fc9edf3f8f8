"""Protocol what-if: replay a trace under an alternative lock policy.

The shrink/remove what-ifs (:mod:`repro.core.whatif`) answer "what if
this critical section were cheaper"; this module answers "what if the
*policy* were different" — priority-ordered instead of FIFO handoff,
a writer-preference rwlock, adaptive spinning.
Serialization bottlenecks are frequently policy artifacts rather than
inherent work, so these forecasts rank the *fixable* share of
contention.

The mechanism is ground-truth replay, not DAG estimation: the trace is
reconstructed into a schedulable program (:mod:`repro.replay`) and
re-executed on the simulator under the requested
:mod:`repro.sim.protocols` policy.
Contention fully re-resolves — grant orders, wait times and even the
critical path's shape can change — and the resulting
:class:`ProtocolForecast` diffs the re-ranked critical-lock table
against the baseline analysis.

Trustworthiness rests on :func:`replay_identity`: replaying under the
``recorded`` identity protocol must reproduce the baseline completion
time and critical-lock ranking bit-identically (the ``replay-identity``
invariant of ``repro.check`` enforces this for every generated trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.analyzer import analyze
from repro.core.report import AnalysisReport
from repro.errors import AnalysisError
from repro.replay import reconstruct
from repro.sim.engine import SimResult
from repro.sim.protocols import get_protocol
from repro.tables import format_table
from repro.trace.trace import Trace
from repro.units import format_duration, format_percent

__all__ = [
    "LockDelta",
    "ProtocolForecast",
    "replay_whatif",
    "replay_identity",
]


@dataclass(frozen=True)
class LockDelta:
    """One lock's metrics before and after the policy change."""

    name: str
    base_rank: int
    new_rank: int
    base_cp_fraction: float
    new_cp_fraction: float
    base_wait_fraction: float
    new_wait_fraction: float
    base_cont_prob: float
    new_cont_prob: float

    @property
    def cp_delta(self) -> float:
        return self.new_cp_fraction - self.base_cp_fraction

    @property
    def wait_delta(self) -> float:
        return self.new_wait_fraction - self.base_wait_fraction


@dataclass(frozen=True)
class ProtocolForecast:
    """Ground-truth outcome of replaying a trace under another policy."""

    name: str
    protocol: str
    params: dict[str, Any]
    baseline_time: float
    predicted_time: float
    deltas: list[LockDelta]
    baseline_report: AnalysisReport = field(repr=False)
    predicted_report: AnalysisReport = field(repr=False)

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_time <= 0:
            return float("inf")
        return self.baseline_time / self.predicted_time

    @property
    def predicted_gain(self) -> float:
        """Fractional completion-time reduction (negative = slower)."""
        if self.baseline_time <= 0:
            return 0.0
        return 1.0 - self.predicted_time / self.baseline_time

    @property
    def baseline_critical_lock(self) -> str | None:
        top = self.baseline_report.top_locks(1)
        return top[0].name if top else None

    @property
    def predicted_critical_lock(self) -> str | None:
        top = self.predicted_report.top_locks(1)
        return top[0].name if top else None

    @property
    def reranked(self) -> bool:
        """Did the policy change which lock tops the critical ranking?"""
        return self.baseline_critical_lock != self.predicted_critical_lock

    def render(self, n: int | None = 10) -> str:
        head = self.protocol
        if self.params:
            head += " (" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")"
        if self.reranked:
            crit = (
                f"critical lock: {self.baseline_critical_lock} -> "
                f"{self.predicted_critical_lock} (re-ranked)"
            )
        else:
            crit = f"critical lock: {self.baseline_critical_lock} (unchanged)"
        lines = [
            f"protocol what-if: {self.name or '(unnamed)'} under {head}",
            f"  baseline completion: {format_duration(self.baseline_time)}   "
            f"predicted: {format_duration(self.predicted_time)}   "
            f"speedup {self.predicted_speedup:.3f} "
            f"({self.predicted_gain:+.1%})",
            f"  {crit}",
        ]
        shown = self.deltas if n is None else self.deltas[:n]
        rows = [
            [
                d.name,
                f"{d.base_rank}->{d.new_rank}"
                if d.base_rank != d.new_rank
                else str(d.new_rank),
                format_percent(d.base_cp_fraction),
                format_percent(d.new_cp_fraction),
                f"{d.cp_delta:+.2%}",
                format_percent(d.base_wait_fraction),
                format_percent(d.new_wait_fraction),
                format_percent(d.base_cont_prob),
                format_percent(d.new_cont_prob),
            ]
            for d in shown
        ]
        table = format_table(
            ["Lock", "Rank", "CP %", "CP' %", "ΔCP", "Wait %", "Wait' %",
             "Cont %", "Cont' %"],
            rows,
            title="Critical-lock re-ranking (baseline -> predicted)",
        )
        return "\n".join(lines) + "\n\n" + table

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "params": dict(self.params),
            "baseline_time": self.baseline_time,
            "predicted_time": self.predicted_time,
            "predicted_speedup": self.predicted_speedup,
            "predicted_gain": self.predicted_gain,
            "reranked": self.reranked,
            "critical_lock": {
                "baseline": self.baseline_critical_lock,
                "predicted": self.predicted_critical_lock,
            },
            "locks": [
                {
                    "name": d.name,
                    "base_rank": d.base_rank,
                    "new_rank": d.new_rank,
                    "base_cp_fraction": d.base_cp_fraction,
                    "new_cp_fraction": d.new_cp_fraction,
                    "base_wait_fraction": d.base_wait_fraction,
                    "new_wait_fraction": d.new_wait_fraction,
                    "base_cont_prob": d.base_cont_prob,
                    "new_cont_prob": d.new_cont_prob,
                }
                for d in self.deltas
            ],
        }


def replay_whatif(
    trace: Trace,
    protocol: str = "fifo",
    *,
    priorities: dict[int | str, int] | None = None,
    protocol_params: dict[str, Any] | None = None,
    cores: int | None = None,
    baseline: AnalysisReport | None = None,
) -> ProtocolForecast:
    """Replay ``trace`` under an alternative lock protocol and diff the ranking.

    Parameters
    ----------
    protocol:
        Registry name (:func:`repro.sim.available_protocols`).
    priorities:
        Thread priorities for the ``priority`` protocol, keyed by the
        original trace tid or thread name; unlisted threads get 0.
    protocol_params:
        Keyword arguments for the protocol constructor (e.g.
        ``{"spin_limit": 0.1}`` for ``spin``).
    cores:
        Replay on this many cores; ``None`` (default) replays with no
        core limit.  Refused on a trace recorded under a core limit,
        whose compute gaps already include its core waits
        (:meth:`repro.replay.ReplayProgram.build`).
    baseline:
        Pass a precomputed baseline report to amortize analysis across
        several forecasts of one trace.
    """
    params = dict(protocol_params or {})
    if protocol == "recorded":
        proto: Any = "recorded"  # built by the replay layer from the trace
        if params:
            raise AnalysisError("the recorded protocol takes no parameters")
    else:
        proto = get_protocol(protocol, **params)

    if baseline is None:
        baseline = analyze(trace, validate=False).report
    prog = reconstruct(trace).build(
        cores=cores,
        seed=trace.meta.get("seed", 0),
        protocol=proto,
        priorities=priorities,
    )
    result = prog.run()
    predicted = analyze(result.trace, validate=False).report

    base_rank = {
        m.name: i + 1 for i, m in enumerate(baseline.top_locks(None))
    }
    base_locks = {m.name: m for m in baseline.locks.values()}
    deltas = []
    for i, m in enumerate(predicted.top_locks(None)):
        b = base_locks.get(m.name)
        deltas.append(
            LockDelta(
                name=m.name,
                base_rank=base_rank.get(m.name, 0),
                new_rank=i + 1,
                base_cp_fraction=b.cp_fraction if b else 0.0,
                new_cp_fraction=m.cp_fraction,
                base_wait_fraction=b.avg_wait_fraction if b else 0.0,
                new_wait_fraction=m.avg_wait_fraction,
                base_cont_prob=b.avg_cont_prob if b else 0.0,
                new_cont_prob=m.avg_cont_prob,
            )
        )
    shown_params = dict(params)
    if priorities:
        shown_params["priorities"] = dict(priorities)
    return ProtocolForecast(
        name=trace.meta.get("name", ""),
        protocol=protocol,
        params=shown_params,
        baseline_time=trace.duration,
        predicted_time=result.completion_time,
        deltas=deltas,
        baseline_report=baseline,
        predicted_report=predicted,
    )


def replay_identity(trace: Trace) -> SimResult:
    """Replay under the recorded identity protocol (fidelity check).

    Uses the trace's own seed and no core limit (a core-limited trace's
    gaps already include its core waits) and preserves its name, so a
    faithful replay reproduces the recorded completion time and
    critical-lock ranking.
    """
    prog = reconstruct(trace).build(
        seed=trace.meta.get("seed", 0),
        protocol="recorded",
        preserve_name=True,
    )
    return prog.run()

