"""Statistical critical-lock analysis of sampled traces.

A trace captured at sampling rate ``r`` (:mod:`repro.sampling`) contains
each lock invocation independently with probability ``r``; everything
else — thread lifecycle, barriers, condition variables — is complete.
This module reconstructs the critical-lock ranking from such a trace:

1. **Repair**: a kept contended OBTAIN whose waking RELEASE was sampled
   out has no resolvable waker; it is demoted to uncontended
   (:func:`repro.trace.transform.demote_orphan_contention`), exactly the
   degradation rule trace slicing already uses.
2. **Exact analysis of the sample**: the repaired trace is a valid trace,
   so the exact engine runs unchanged — backward walk, pieces, per-hold
   critical-path overlaps.
3. **Inverse-probability weighting** (Horvitz–Thompson): a unit of lock
   ``L`` survives with probability ``r`` by hash, plus — because the
   sampler retains the waker unit behind every kept contended wait —
   ``(1-r)·r·c`` by retention, where ``c`` is the lock's contention
   probability.  The estimator inverts the *effective* rate
   ``r_eff = r + (1-r)·r·ĉ`` (``ĉ`` estimated from the sample's OBTAIN
   flags before repair), scaling the sampled CP-overlap sum and the
   invocation/wait/hold totals by ``1/r_eff``.
4. **Bootstrap confidence intervals**: invocations are resampled with
   replacement ``B`` times; the percentile interval is widened by a
   bias guard proportional to ``1 - r`` because the critical path of the
   *sample* systematically differs from the critical path of the full
   execution (dropped waits reroute the walk).  Fewer than four surviving
   invocations yield the full-ignorance interval ``[0, 1]`` — too little
   data for an interval claim (the point estimate still ranks).

At ``rate=1.0`` the sample *is* the full trace: the point estimates
reproduce the exact engine's ``cp_fraction`` bit for bit (the per-hold
overlaps come from the metrics' own kernel,
:func:`repro.core.columnar.metrics.hold_cp_overlaps`, summed in the same
order) and the interval collapses to a point.

Honesty of the (estimator, sampler) pair is cross-validated against the
exact engine by :mod:`repro.sampling.crossval`, the ``sample-coverage``
oracle invariant and the golden sampled-report tests; the math and its
failure modes are documented in ``docs/sampling.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.analyzer import analyze
from repro.core.columnar.metrics import (
    NO_PIECES,
    exact_sum,
    hold_cp_overlaps,
    thread_pieces,
)
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.trace.events import EventType, ObjectKind
from repro.trace.trace import Trace
from repro.trace.transform import demote_orphan_contention
from repro.units import format_duration, format_percent

__all__ = ["LockEstimate", "EstimatedReport", "estimate_report"]

#: Minimum half-width (at rate -> 0) of the bias guard, in cp_fraction.
_GUARD_FLOOR = 0.02
#: Bias-guard proportionality to the point estimate (see docs/sampling.md).
_GUARD_SCALE = 0.35
#: Below this many surviving invocations the bootstrap sees essentially no
#: variance and the interval degenerates to the point: report the
#: full-ignorance interval instead (the point estimate still ranks).
_MIN_UNITS = 4


@dataclass(frozen=True)
class LockEstimate:
    """Estimated TYPE 1 + TYPE 2 statistics for one lock."""

    obj: int
    name: str
    kind: ObjectKind
    #: invocations of this lock surviving in the sample
    units: int
    contended_units: int
    #: Horvitz–Thompson point estimates
    cp_fraction: float
    cp_hold_time: float
    est_invocations: float
    est_wait_time: float
    est_hold_time: float
    #: percentile-bootstrap interval on ``cp_fraction`` (guard-widened)
    ci_low: float
    ci_high: float

    @property
    def est_cont_prob(self) -> float:
        """Estimated contention probability (sample proportion)."""
        if self.units == 0:
            return 0.0
        return self.contended_units / self.units


@dataclass
class EstimatedReport:
    """Statistical counterpart of :class:`repro.core.report.AnalysisReport`.

    Renders alongside the exact report (same table idiom, explicitly
    labelled as estimates with their confidence intervals).
    """

    name: str
    nthreads: int
    duration: float
    rate: float
    seed: int
    strategy: str
    confidence: float
    bootstrap: int
    events: int
    demoted: int
    locks: dict[int, LockEstimate] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------

    def lock(self, name: str) -> LockEstimate:
        """Look up one lock's estimates by display name."""
        for e in self.locks.values():
            if e.name == name:
                return e
        known = ", ".join(sorted(e.name for e in self.locks.values()))
        raise AnalysisError(f"no lock named {name!r}; locks in trace: {known}")

    def top_locks(self, n: int | None = None) -> list[LockEstimate]:
        """Locks ranked by estimated CP Time %."""
        ranked = sorted(self.locks.values(), key=lambda e: e.cp_fraction, reverse=True)
        return ranked if n is None else ranked[:n]

    @property
    def critical_locks(self) -> list[LockEstimate]:
        """Locks with a positive estimated critical-path share."""
        return [e for e in self.top_locks() if e.cp_fraction > 0]

    @property
    def sampled_units(self) -> int:
        return sum(e.units for e in self.locks.values())

    # -- rendering -----------------------------------------------------------

    def render_summary(self) -> str:
        lines = [
            f"statistical critical lock estimate: {self.name or '(unnamed)'}",
            f"  threads: {self.nthreads}   completion time: {format_duration(self.duration)}",
            f"  sampling: {self.strategy} rate={format_percent(self.rate)} "
            f"seed={self.seed}   events kept: {self.events}   "
            f"lock invocations kept: {self.sampled_units}"
            + (f"   demoted waits: {self.demoted}" if self.demoted else ""),
            f"  estimator: inverse-probability weighting, percentile bootstrap "
            f"(B={self.bootstrap}), {format_percent(self.confidence, 0)} CI",
        ]
        return "\n".join(lines)

    def render_table(self, n: int | None = None) -> str:
        """Estimated TYPE 1 table with confidence intervals."""
        ci_label = f"{format_percent(self.confidence, 0)} CI"
        rows = [
            [
                e.name,
                format_percent(e.cp_fraction),
                f"[{format_percent(e.ci_low)}, {format_percent(e.ci_high)}]",
                e.units,
                f"{e.est_invocations:.1f}",
                format_percent(e.est_cont_prob),
            ]
            for e in self.top_locks(n)
        ]
        return format_table(
            ["Lock", "CP Time % (est)", ci_label, "Units", "Invo. # (est)",
             "Cont. Prob % (est)"],
            rows,
            title="ESTIMATED TYPE 1 — critical lock statistics (sampled)",
        )

    def render(self, n: int | None = 10) -> str:
        """Full estimated report: summary + TYPE 1 estimates."""
        return "\n\n".join([self.render_summary(), self.render_table(n)])

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump of every estimate."""
        return {
            "name": self.name,
            "nthreads": self.nthreads,
            "duration": self.duration,
            "sampling": {
                "strategy": self.strategy,
                "rate": self.rate,
                "seed": self.seed,
            },
            "estimator": {
                "confidence": self.confidence,
                "bootstrap": self.bootstrap,
                "events": self.events,
                "units": self.sampled_units,
                "demoted_waits": self.demoted,
            },
            "locks": {
                e.name: {
                    "cp_time_frac": e.cp_fraction,
                    "ci_low": e.ci_low,
                    "ci_high": e.ci_high,
                    "units": e.units,
                    "contended_units": e.contended_units,
                    "est_invocations": e.est_invocations,
                    "est_cont_prob": e.est_cont_prob,
                    "est_wait_time": e.est_wait_time,
                    "est_hold_time": e.est_hold_time,
                }
                for e in self.locks.values()
            },
        }


def estimate_report(
    trace: Trace,
    rate: float | None = None,
    seed: int | None = None,
    *,
    confidence: float = 0.9,
    bootstrap: int = 200,
) -> EstimatedReport:
    """Estimate the critical-lock ranking of the *full* execution.

    ``trace`` is a sampled capture; ``rate``/``seed`` default to its
    ``meta["sampling"]`` header.  See the module docstring for the
    estimator; ``confidence`` sets the bootstrap interval's nominal
    coverage and ``bootstrap`` the number of resamples.
    """
    info = trace.meta.get("sampling")
    if rate is None:
        if not isinstance(info, dict) or "rate" not in info:
            raise AnalysisError(
                "trace carries no sampling metadata; pass rate= explicitly or "
                "sample it first (repro.sampling.downsample_trace)"
            )
        rate = float(info["rate"])
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise AnalysisError(f"sampling rate must be in (0, 1], got {rate}")
    if seed is None:
        seed = int(info["seed"]) if isinstance(info, dict) and "seed" in info else 0
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    strategy = (
        str(info.get("strategy", "unit-hash")) if isinstance(info, dict) else "unit-hash"
    )

    repaired, demoted = demote_orphan_contention(trace)
    result = analyze(repaired, validate=False)
    cp = result.critical_path
    ct = result.timeline_columns
    cp_length = cp.length
    pieces_by_thread = thread_pieces(cp)

    # Per-lock contention observed in the sample *before* repair (repair
    # demotes exactly the contended flags whose waker is missing, which
    # would bias the effective-rate correction toward zero).
    obtains = trace.records[trace.records["etype"] == int(EventType.OBTAIN)]
    n_obt: dict[int, int] = {}
    n_cont: dict[int, int] = {}
    for o, a in zip(obtains["obj"], obtains["arg"]):
        o = int(o)
        n_obt[o] = n_obt.get(o, 0) + 1
        if a:
            n_cont[o] = n_cont.get(o, 0) + 1

    exact = rate >= 1.0
    alpha = 1.0 - confidence
    locks: dict[int, LockEstimate] = {}
    for lock_info in repaired.locks:
        obj = lock_info.obj
        cp_hold = 0.0
        per_unit: list[np.ndarray] = []  # CP overlap of each unit
        per_unit_wait: list[np.ndarray] = []  # ACQUIRE->OBTAIN gap of each unit
        units = 0
        contended = 0
        hold_time = 0.0
        wait_time = 0.0
        for tid in ct.tids.tolist():
            glo, ghi = ct.hold_groups.get((tid, obj), (0, 0))
            if ghi == glo:
                continue
            h_s, h_e = ct.h_start[glo:ghi], ct.h_end[glo:ghi]
            h_wait = h_s - ct.h_acquire[glo:ghi]
            units += ghi - glo
            contended += int(np.count_nonzero(ct.h_contended[glo:ghi]))
            hold_time += exact_sum(h_e - h_s)
            wait_time += exact_sum(h_wait)
            per_unit_wait.append(h_wait)
            pieces = pieces_by_thread.get(tid, NO_PIECES)
            overlap, _ = hold_cp_overlaps(h_s, h_e, *pieces)
            cp_hold += exact_sum(overlap)
            per_unit.append(overlap)
        vals = np.concatenate(per_unit) if per_unit else np.zeros(0)
        waits = np.concatenate(per_unit_wait) if per_unit_wait else np.zeros(0)

        # Effective inclusion rate of this lock's units: hash + retention.
        c_hat = n_cont.get(obj, 0) / n_obt[obj] if n_obt.get(obj) else 0.0
        r_eff = min(1.0, rate + (1.0 - rate) * rate * c_hat)
        scale = 1.0 / r_eff
        walk_point = cp_hold * scale / cp_length if cp_length > 0 else 0.0
        # Wait-chain estimate: the ACQUIRE->OBTAIN gap of each surviving
        # unit is time the execution was serialized behind this lock —
        # while a thread waits, the critical path of that span runs inside
        # the holder's critical section.  Unlike the walk estimate it does
        # not depend on the sampled trace's (rerouted) backward walk, so
        # at low rates it recovers hot locks the walk misses; with deep
        # waiter queues it overcounts, which only pushes the interval's
        # upper end out.  The point is the larger of the two estimates.
        wait_point = (
            min(exact_sum(waits) * scale / cp_length, 1.0) if cp_length > 0 else 0.0
        )
        walk_point = min(walk_point, 1.0)
        point = max(walk_point, wait_point)
        if exact:
            # The sample is the full trace: exact value, degenerate CI.
            point = cp_hold / cp_length if cp_length > 0 else 0.0
            lo = hi = point
        elif units < _MIN_UNITS:
            # Too few (or no) invocations survived: the sample supports no
            # interval claim at all (the point estimate still ranks).
            lo, hi = 0.0, 1.0 if cp_length > 0 else 0.0
        else:
            # Deterministic per (sampling seed, lock): resamples are
            # reproducible for pinned golden renders and repro replays.
            rng = np.random.default_rng([abs(int(seed)), obj, len(vals), bootstrap])
            resamples = rng.integers(0, len(vals), size=(bootstrap, len(vals)))
            if cp_length > 0:
                walk_reps = vals[resamples].sum(axis=1) * scale / cp_length
                wait_reps = waits[resamples].sum(axis=1) * scale / cp_length
            else:
                walk_reps = wait_reps = np.zeros(bootstrap)
            # The walk estimate is biased *down* (dropped waits reroute the
            # backward walk off this lock's holds), the wait estimate *up*
            # (queued waiters overcount): the interval takes its low end
            # from the former and its high end from their maximum.
            lo = float(np.quantile(walk_reps, alpha / 2.0))
            hi = float(np.quantile(np.maximum(walk_reps, wait_reps), 1.0 - alpha / 2.0))
            # Bias guard: the sample's critical path is not the full
            # execution's; widen proportionally to the unsampled mass.
            guard = (1.0 - rate) * max(_GUARD_SCALE * point, _GUARD_FLOOR)
            lo = min(lo, walk_point) - guard
            hi = max(hi, point) + guard
        lo = min(max(lo, 0.0), 1.0)
        hi = min(max(hi, 0.0), 1.0)
        point = min(max(point, 0.0), 1.0)
        locks[obj] = LockEstimate(
            obj=obj,
            name=lock_info.display_name,
            kind=lock_info.kind,
            units=units,
            contended_units=contended,
            cp_fraction=point,
            cp_hold_time=cp_hold if exact else cp_hold * scale,
            est_invocations=float(units) if exact else units * scale,
            est_wait_time=wait_time if exact else wait_time * scale,
            est_hold_time=hold_time if exact else hold_time * scale,
            ci_low=lo,
            ci_high=hi,
        )

    return EstimatedReport(
        name=trace.meta.get("name", ""),
        nthreads=len(ct.tids),
        duration=trace.duration,
        rate=rate,
        seed=int(seed),
        strategy=strategy,
        confidence=confidence,
        bootstrap=int(bootstrap),
        events=len(trace),
        demoted=demoted,
        locks=locks,
    )
