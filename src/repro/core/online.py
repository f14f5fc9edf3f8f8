"""Online (streaming) lock statistics and the incremental estimator.

The paper's future work (§VII) wants critical-lock information *at run
time* to steer mechanisms like accelerated critical sections.  A full
critical-path walk needs the whole trace; this module maintains what CAN
be known online, in O(locks × threads) memory:

* exact TYPE 2 statistics (waits, holds, invocations, contention);
* a **criticality heuristic** per lock — the length of the current
  longest chain of *dependent* critical sections (each contended handoff
  extends the previous holder's chain), which approximates the lock's
  accumulated presence on the eventual critical path without storing
  events.

On the micro-benchmark the heuristic ranks L2 over L1 — matching the
offline analysis where the idle-time metric gets it wrong — and the
exactness of the TYPE 2 counters is tested against the offline metrics.

For streaming ingestion (:mod:`repro.stream`, the service's
chunked-append path) the analyzer also acts as an **incremental
estimator**: :meth:`~OnlineAnalyzer.observe_batch` consumes numpy record
batches as they arrive, :meth:`~OnlineAnalyzer.snapshot` emits a rolling
JSON view (ranking, contention probabilities, a CP-time estimate), and
:meth:`~OnlineAnalyzer.reconcile` scores the final estimate against the
exact batch analyzer's report once the stream is finalized.

``observe_batch`` is the only way in: the batch kernel
(:mod:`repro.core.columnar.online`) groups each batch by lock and by
``(lock, thread)`` and never loops over rows.  The one-event-at-a-time
replay it must match at any chunk split is the test oracle
:func:`repro.check.reference.reference_online`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.tables import format_table
from repro.trace.trace import Trace
from repro.units import format_duration, format_percent

__all__ = ["OnlineLockStats", "OnlineAnalyzer"]


@dataclass
class OnlineLockStats:
    """Streaming counters for one lock."""

    obj: int
    name: str
    invocations: int = 0
    contended: int = 0
    wait_time: float = 0.0
    hold_time: float = 0.0
    # Criticality heuristic: longest observed dependent-hold chain.
    chain_time: float = 0.0  # accumulated serialized hold time, running
    max_chain_time: float = 0.0
    # internal
    _pending_acquire: dict[int, float] = field(default_factory=dict)
    _obtain_time: dict[int, float] = field(default_factory=dict)
    _last_release: float = -1.0

    @property
    def cont_prob(self) -> float:
        return self.contended / self.invocations if self.invocations else 0.0


class OnlineAnalyzer:
    """Feed events as they happen; read lock rankings at any moment."""

    def __init__(self, trace_like: Trace | None = None):
        self._locks: dict[int, OnlineLockStats] = {}
        self._names: dict[int, str] = {}
        self.events_seen = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        if trace_like is not None:
            for info in trace_like.locks:
                self._names[info.obj] = info.display_name

    def observe_all(self, trace: Trace) -> "OnlineAnalyzer":
        """Convenience: stream an entire trace through the analyzer."""
        for info in trace.locks:
            self._names[info.obj] = info.display_name
        return self.observe_batch(trace.records)

    def observe_batch(self, records: np.ndarray) -> "OnlineAnalyzer":
        """Consume one numpy record batch (the streaming ingest path).

        Records must arrive in time order per thread.  The time bounds
        and the event count are array reductions; the lock-verb rows go
        through the batch kernel
        (:func:`repro.core.columnar.online.consume_batch`).  Counters,
        slot dicts and time bounds do not depend on where a stream is
        split into batches; wait, hold and chain sums are added per
        batch, so different splits agree to rounding.
        """
        from repro.core.columnar.online import consume_batch

        if len(records) == 0:
            return self
        self.events_seen += len(records)
        times = records["time"]
        lo = float(times.min())
        hi = float(times.max())
        if self.first_time is None or lo < self.first_time:
            self.first_time = lo
        if self.last_time is None or hi > self.last_time:
            self.last_time = hi
        consume_batch(records, self._stats_for)
        return self

    def _stats_for(self, obj: int) -> OnlineLockStats:
        ls = self._locks.get(obj)
        if ls is None:
            ls = OnlineLockStats(obj=obj, name=self._names.get(obj, f"obj#{obj}"))
            self._locks[obj] = ls
        return ls

    def register_names(self, objects: dict[Any, Any]) -> None:
        """Adopt display names from a trace header's object table.

        ``objects`` is the JSON-header shape (``{id: {kind, name}}``,
        string or int keys); already-seen anonymous locks are renamed in
        place so late headers still fix up early chunks.
        """
        for obj, entry in objects.items():
            obj = int(obj)
            name = str(entry.get("name", "") or "") if isinstance(entry, dict) else str(entry)
            if not name:
                continue
            self._names[obj] = name
            ls = self._locks.get(obj)
            if ls is not None:
                ls.name = name

    # -- queries -------------------------------------------------------------

    def stats(self, obj: int) -> OnlineLockStats:
        return self._locks[obj]

    def ranking(self) -> list[OnlineLockStats]:
        """Locks by the criticality heuristic (longest dependent chain)."""
        return sorted(
            self._locks.values(), key=lambda ls: ls.max_chain_time, reverse=True
        )

    def ranking_by_wait(self) -> list[OnlineLockStats]:
        """The classical online ranking (what a TYPE 2 tool maintains)."""
        return sorted(
            self._locks.values(), key=lambda ls: ls.wait_time, reverse=True
        )

    def render(self, n: int = 8) -> str:
        rows = [
            [
                ls.name,
                format_duration(ls.max_chain_time),
                format_duration(ls.wait_time),
                ls.invocations,
                format_percent(ls.cont_prob),
                format_duration(ls.hold_time),
            ]
            for ls in self.ranking()[:n]
        ]
        return format_table(
            ["Lock", "Max dependent chain", "Total wait", "Invocations",
             "Cont. prob", "Total hold"],
            rows,
            title="Online lock statistics (streaming)",
        )

    # -- incremental estimator ------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Time span covered by the events observed so far."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def snapshot(self, top: int | None = None) -> dict[str, Any]:
        """Rolling JSON view of the stream: ranking, cont-prob, CP estimate.

        The per-lock ``est_cp_frac`` is the criticality heuristic scaled
        by elapsed time — the longest dependent-hold chain is a lower
        bound on the serialized time the lock will contribute to the
        eventual critical path, so ``max_chain_time / elapsed``
        approximates the exact analyzer's ``cp_time_frac`` without a
        backward walk.  ``cp_time_estimate`` is the span itself: the
        critical path of a complete trace is exactly its duration; mid-
        stream it is the best running lower bound.
        """
        elapsed = self.elapsed
        locks = [
            {
                "obj": ls.obj,
                "name": ls.name,
                "invocations": ls.invocations,
                "contended": ls.contended,
                "cont_prob": ls.cont_prob,
                "wait_time": ls.wait_time,
                "hold_time": ls.hold_time,
                "max_chain_time": ls.max_chain_time,
                "est_cp_frac": (
                    min(1.0, ls.max_chain_time / elapsed) if elapsed > 0 else 0.0
                ),
            }
            for ls in self.ranking()[:top]
        ]
        return {
            "events": self.events_seen,
            "elapsed": elapsed,
            "cp_time_estimate": elapsed,
            "nlocks": len(self._locks),
            "locks": locks,
        }

    def reconcile(self, report: dict[str, Any]) -> dict[str, Any]:
        """Score the final estimate against the exact batch analyzer.

        ``report`` is an :meth:`AnalysisReport.to_dict` payload (as the
        service's ``analyze`` job returns).  Exact-by-construction
        counters (invocations, contention probability) must match;
        the heuristic ``est_cp_frac`` is reported with its absolute
        error per lock, plus whether the two rankings agree on the top
        lock — the question the paper's tool exists to answer.
        """
        exact_locks: dict[str, dict[str, Any]] = report.get("locks", {})
        duration = float(report.get("duration", 0.0))
        per_lock: dict[str, dict[str, Any]] = {}
        counters_exact = True
        for ls in self._locks.values():
            exact = exact_locks.get(ls.name)
            if exact is None:
                counters_exact = False
                per_lock[ls.name] = {"missing_from_exact": True}
                continue
            est = min(1.0, ls.max_chain_time / duration) if duration > 0 else 0.0
            inv_ok = ls.invocations == int(exact.get("total_invocations", -1))
            cp_ok = abs(ls.cont_prob - float(exact.get("avg_cont_prob", -1.0))) < 1e-9
            counters_exact = counters_exact and inv_ok and cp_ok
            per_lock[ls.name] = {
                "est_cp_frac": est,
                "exact_cp_frac": float(exact.get("cp_time_frac", 0.0)),
                "cp_frac_error": abs(est - float(exact.get("cp_time_frac", 0.0))),
                "cont_prob": ls.cont_prob,
                "invocations_match": inv_ok,
                "cont_prob_match": cp_ok,
            }
        ranking_online = [ls.name for ls in self.ranking()]
        ranking_exact = [
            name
            for name, m in sorted(
                exact_locks.items(),
                key=lambda kv: kv[1].get("cp_time_frac", 0.0),
                reverse=True,
            )
        ]
        return {
            "cp_time_estimate": self.elapsed,
            "exact_cp_time": duration,
            "cp_time_error": abs(self.elapsed - duration),
            "counters_exact": counters_exact,
            "locks": per_lock,
            "ranking_online": ranking_online,
            "ranking_exact": ranking_exact,
            "top_lock_agrees": (
                bool(ranking_online)
                and bool(ranking_exact)
                and ranking_online[0] == ranking_exact[0]
            ),
        }
