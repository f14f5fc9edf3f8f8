"""Cross-trace aggregation: clusters, time-series and regressions.

:class:`FleetAggregator` is the fleet's memory.  Every analyzed trace
becomes one compact :class:`Observation` — the fingerprinted lock
ranking plus per-lock ``cp_fraction`` — appended to its workload's
time-series and persisted as JSON under the service data directory, so
a restart (or a worker process handling a ``fleet_*`` job) reloads the
exact state.  Aggregation is incremental and idempotent by trace
digest: re-observing a stored trace is a no-op, which is what lets the
service update fleet state on every store write without rescans.

Regression detection compares a workload's latest observation against
the rest of its series.  The noise band is calibrated from the repeated
runs themselves: a lock's ``cp_fraction`` shift only counts when it
exceeds ``max(noise_floor, sigma * std(baseline))``, so byte-identical
re-uploads never alarm while a genuine ranking shift does.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro._durable import write_atomic
from repro.fleet.fingerprint import fingerprint_lock
from repro.tables import format_table
from repro.units import format_percent

__all__ = ["Observation", "FleetAggregator", "render_summary", "render_regressions"]

#: Per-observation lock cap: the ranking tail carries no fleet signal.
_MAX_LOCKS = 32
#: Per-workload series cap (oldest observations are dropped beyond it).
_MAX_OBSERVATIONS = 512
#: Per-cluster series length exported in summaries (sparkline width).
_SERIES_LEN = 32

_STATE_VERSION = 1


@dataclass(frozen=True)
class Observation:
    """One analyzed trace, reduced to its fleet-relevant ranking."""

    digest: str
    workload: str
    seq: int
    ts: float
    name: str
    duration: float
    nthreads: int
    #: fingerprint -> {"site", "name", "cp", "cont", "wait"}
    locks: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "workload": self.workload,
            "seq": self.seq,
            "ts": self.ts,
            "name": self.name,
            "duration": self.duration,
            "nthreads": self.nthreads,
            "locks": self.locks,
        }

    @classmethod
    def from_report(
        cls,
        report: dict[str, Any],
        *,
        digest: str,
        workload: str,
        seq: int,
        ts: float,
    ) -> "Observation":
        """Reduce an ``analyze`` report dict to an observation."""
        locks: dict[str, dict[str, Any]] = {}
        ranked = sorted(
            (report.get("locks") or {}).items(),
            key=lambda kv: kv[1].get("cp_time_frac", 0.0),
            reverse=True,
        )
        for name, m in ranked[:_MAX_LOCKS]:
            fp = fingerprint_lock(workload, name)
            entry = locks.setdefault(
                fp.fingerprint,
                {"site": fp.site, "name": name, "cp": 0.0, "cont": 0.0, "wait": 0.0},
            )
            # Instances of one site (pool[0..N].lock) fold into their
            # cluster: cp mass adds, contention takes the worst member.
            entry["cp"] += float(m.get("cp_time_frac", 0.0))
            entry["cont"] = max(entry["cont"], float(m.get("cont_prob_on_cp", 0.0)))
            entry["wait"] += float(m.get("wait_time_frac", 0.0))
        return cls(
            digest=digest,
            workload=workload,
            seq=seq,
            ts=ts,
            name=str(report.get("name", "")),
            duration=float(report.get("duration", 0.0)),
            nthreads=int(report.get("nthreads", 0)),
            locks=locks,
        )


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class FleetAggregator:
    """Persistent, thread-safe fleet state over analyzed traces."""

    def __init__(
        self,
        state_dir: str | Path,
        *,
        noise_floor: float = 0.05,
        sigma: float = 3.0,
        topk: int = 5,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.state_path = self.state_dir / "fleet.json"
        self.noise_floor = noise_floor
        self.sigma = sigma
        self.topk = topk
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._seq = 0
        self._version = 0
        self._digests: dict[str, str] = {}  # digest -> workload
        self._series: dict[str, list[Observation]] = {}
        self._load()

    # -- ingest ---------------------------------------------------------------

    def has(self, digest: str) -> bool:
        with self._lock:
            return digest in self._digests

    def observe(
        self,
        report: dict[str, Any],
        *,
        digest: str,
        workload: str,
        ts: float | None = None,
        save: bool = True,
    ) -> Observation | None:
        """Fold one analysis report into fleet state.

        Returns the new :class:`Observation`, or ``None`` when the
        digest was already observed (idempotent re-upload).
        """
        with self._lock:
            if digest in self._digests:
                return None
            self._seq += 1
            obs = Observation.from_report(
                report,
                digest=digest,
                workload=workload,
                seq=self._seq,
                ts=time.time() if ts is None else ts,
            )
            self._digests[digest] = workload
            series = self._series.setdefault(workload, [])
            series.append(obs)
            if len(series) > _MAX_OBSERVATIONS:
                del series[: len(series) - _MAX_OBSERVATIONS]
            self._version += 1
            self._cond.notify_all()
            if save:
                self._save_locked()
            return obs

    # -- change notification (SSE) --------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def wait_version(self, last: int, timeout: float | None = None) -> int:
        """Block until the state version exceeds ``last`` (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._version <= last:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return self._version

    # -- queries --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workloads": len(self._series),
                "observations": sum(len(s) for s in self._series.values()),
                "digests": len(self._digests),
                "version": self._version,
            }

    def summary(self, top: int = 20) -> dict[str, Any]:
        """Fleet-wide cluster summary: recurring bottlenecks first."""
        with self._lock:
            clusters: dict[tuple[str, str], dict[str, Any]] = {}
            for workload, series in self._series.items():
                for obs in series:
                    for fp, m in obs.locks.items():
                        c = clusters.setdefault(
                            (workload, fp),
                            {
                                "workload": workload,
                                "fingerprint": fp,
                                "site": m["site"],
                                "names": set(),
                                "series": [],
                                "cont": 0.0,
                            },
                        )
                        c["names"].add(m["name"])
                        c["series"].append(float(m["cp"]))
                        c["cont"] = max(c["cont"], float(m["cont"]))
            out = []
            for c in clusters.values():
                series = c["series"]
                out.append(
                    {
                        "workload": c["workload"],
                        "fingerprint": c["fingerprint"],
                        "site": c["site"],
                        "names": sorted(c["names"])[:8],
                        "runs": len(series),
                        "cp_mean": sum(series) / len(series),
                        "cp_latest": series[-1],
                        "cp_max": max(series),
                        "cont_max": c["cont"],
                        "series": [round(v, 6) for v in series[-_SERIES_LEN:]],
                    }
                )
            out.sort(key=lambda c: (-c["cp_mean"], c["workload"], c["site"]))
            return {
                "traces": len(self._digests),
                "workloads": len(self._series),
                "clusters": len(out),
                "version": self._version,
                "top": out[:top],
            }

    def regressions(
        self,
        *,
        topk: int | None = None,
        noise_floor: float | None = None,
        sigma: float | None = None,
        min_runs: int = 2,
    ) -> dict[str, Any]:
        """Latest-vs-baseline shift detection per workload.

        Flags three kinds: ``cp_shift`` (a lock's ``cp_fraction`` moved
        beyond the calibrated noise band), ``top1_change`` (the single
        most critical lock is a different site) and ``rank_churn``
        (more than a quarter of the top-k set was replaced).
        """
        topk = self.topk if topk is None else topk
        noise_floor = self.noise_floor if noise_floor is None else noise_floor
        sigma = self.sigma if sigma is None else sigma
        flags: list[dict[str, Any]] = []
        workloads: dict[str, Any] = {}
        with self._lock:
            for workload, series in sorted(self._series.items()):
                if len(series) < min_runs:
                    workloads[workload] = {"runs": len(series), "checked": False}
                    continue
                latest, baseline = series[-1], series[:-1]
                base_values: dict[str, list[float]] = {}
                meta: dict[str, dict[str, str]] = {}
                for obs in baseline:
                    for fp, m in obs.locks.items():
                        base_values.setdefault(fp, []).append(float(m["cp"]))
                        meta.setdefault(fp, {"site": m["site"], "name": m["name"]})
                for fp, m in latest.locks.items():
                    meta.setdefault(fp, {"site": m["site"], "name": m["name"]})

                wflags: list[dict[str, Any]] = []
                for fp in sorted(set(base_values) | set(latest.locks)):
                    # A lock absent from a run held 0% of its critical path.
                    values = base_values.get(fp, [])
                    values = values + [0.0] * (len(baseline) - len(values))
                    mean = sum(values) / len(values)
                    band = max(noise_floor, sigma * _std(values))
                    latest_cp = float(latest.locks.get(fp, {}).get("cp", 0.0))
                    delta = latest_cp - mean
                    if abs(delta) > band:
                        wflags.append(
                            {
                                "kind": "cp_shift",
                                "workload": workload,
                                "fingerprint": fp,
                                "site": meta[fp]["site"],
                                "name": meta[fp]["name"],
                                "baseline": mean,
                                "latest": latest_cp,
                                "delta": delta,
                                "band": band,
                            }
                        )

                def _top(locks: dict[str, dict[str, Any]], k: int) -> list[str]:
                    ranked = sorted(
                        locks.items(), key=lambda kv: -float(kv[1]["cp"])
                    )
                    return [fp for fp, _ in ranked[:k]]

                base_rank: dict[str, dict[str, Any]] = {
                    fp: {"cp": sum(vs) / len(baseline)}
                    for fp, vs in base_values.items()
                }
                base_top = _top(base_rank, topk)
                latest_top = _top(latest.locks, topk)
                k_eff = max(len(base_top), len(latest_top), 1)
                churn = 1.0 - len(set(base_top) & set(latest_top)) / k_eff
                top1_changed = bool(
                    base_top and latest_top and base_top[0] != latest_top[0]
                )
                if top1_changed:
                    wflags.append(
                        {
                            "kind": "top1_change",
                            "workload": workload,
                            "fingerprint": latest_top[0],
                            "site": meta[latest_top[0]]["site"],
                            "name": meta[latest_top[0]]["name"],
                            "previous_site": meta[base_top[0]]["site"],
                            "churn": churn,
                        }
                    )
                if churn > 0.25:
                    wflags.append(
                        {
                            "kind": "rank_churn",
                            "workload": workload,
                            "churn": churn,
                            "entered": [
                                meta[fp]["site"]
                                for fp in latest_top
                                if fp not in base_top
                            ],
                            "left": [
                                meta[fp]["site"]
                                for fp in base_top
                                if fp not in latest_top
                            ],
                        }
                    )
                workloads[workload] = {
                    "runs": len(series),
                    "checked": True,
                    "topk_churn": churn,
                    "top1_changed": top1_changed,
                    "flags": len(wflags),
                }
                flags.extend(wflags)
        return {
            "workloads": workloads,
            "flags": flags,
            "params": {
                "topk": topk,
                "noise_floor": noise_floor,
                "sigma": sigma,
                "min_runs": min_runs,
            },
        }

    def cluster_metrics(self) -> list[dict[str, Any]]:
        """Per-cluster metric rows for alert-rule evaluation."""
        summary = self.summary(top=10**9)
        regressions = self.regressions()
        deltas = {
            (f["workload"], f["fingerprint"]): f["delta"]
            for f in regressions["flags"]
            if f["kind"] == "cp_shift"
        }
        rows = []
        for c in summary["top"]:
            rows.append(
                {
                    "workload": c["workload"],
                    "fingerprint": c["fingerprint"],
                    "site": c["site"],
                    "cp_fraction": c["cp_latest"],
                    "cp_fraction_mean": c["cp_mean"],
                    "cp_fraction_delta": deltas.get(
                        (c["workload"], c["fingerprint"]), 0.0
                    ),
                    "cont_prob": c["cont_max"],
                    "runs": c["runs"],
                }
            )
        return rows

    def workload_metrics(self) -> list[dict[str, Any]]:
        """Per-workload metric rows for alert-rule evaluation."""
        regressions = self.regressions()
        rows = []
        for workload, w in sorted(regressions["workloads"].items()):
            rows.append(
                {
                    "workload": workload,
                    "runs": w["runs"],
                    "topk_churn": w.get("topk_churn", 0.0),
                    "regressions": w.get("flags", 0),
                }
            )
        return rows

    # -- persistence ----------------------------------------------------------

    def save(self) -> None:
        with self._lock:
            self._save_locked()

    def _save_locked(self) -> None:
        blob = {
            "state_version": _STATE_VERSION,
            "seq": self._seq,
            "version": self._version,
            "digests": self._digests,
            "workloads": {
                w: [o.to_dict() for o in series]
                for w, series in self._series.items()
            },
        }
        write_atomic(self.state_path, json.dumps(blob).encode("utf-8"))

    def _load(self) -> None:
        if not self.state_path.exists():
            return
        try:
            blob = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return  # corrupt state: start fresh, traces re-ingest on demand
        if blob.get("state_version") != _STATE_VERSION:
            return
        self._seq = int(blob.get("seq", 0))
        self._version = int(blob.get("version", 0))
        self._digests = dict(blob.get("digests", {}))
        for workload, series in blob.get("workloads", {}).items():
            self._series[workload] = [
                Observation(
                    digest=o["digest"],
                    workload=o["workload"],
                    seq=o["seq"],
                    ts=o["ts"],
                    name=o.get("name", ""),
                    duration=o.get("duration", 0.0),
                    nthreads=o.get("nthreads", 0),
                    locks=o.get("locks", {}),
                )
                for o in series
            ]


# -- rendering ---------------------------------------------------------------


def render_summary(summary: dict[str, Any], n: int = 15) -> str:
    """Text table of the fleet's recurring bottleneck clusters."""
    head = (
        f"fleet summary: {summary['traces']} trace(s), "
        f"{summary['workloads']} workload(s), {summary['clusters']} lock cluster(s)"
    )
    rows = [
        [
            c["workload"],
            c["site"],
            c["fingerprint"][:8],
            c["runs"],
            format_percent(c["cp_mean"]),
            format_percent(c["cp_latest"]),
            format_percent(c["cont_max"]),
        ]
        for c in summary["top"][:n]
    ]
    if not rows:
        return head + "\n  (no observations yet)"
    table = format_table(
        ["Workload", "Lock site", "Fingerprint", "Runs", "CP % mean",
         "CP % latest", "Cont. max"],
        rows,
        title="Recurring critical-lock clusters (by mean CP time share)",
    )
    return f"{head}\n\n{table}"


def render_regressions(regressions: dict[str, Any]) -> str:
    """Text rendering of detected ranking regressions."""
    flags = regressions["flags"]
    params = regressions["params"]
    checked = [w for w, v in regressions["workloads"].items() if v.get("checked")]
    head = (
        f"regression check: {len(checked)} workload(s) with >= "
        f"{params['min_runs']} runs, noise band max({params['noise_floor']:g}, "
        f"{params['sigma']:g} sigma), top-{params['topk']} churn"
    )
    if not flags:
        return head + "\n  no regressions flagged"
    lines = [head]
    for f in flags:
        if f["kind"] == "cp_shift":
            lines.append(
                f"  [cp_shift]    {f['workload']}: {f['site']} "
                f"{format_percent(f['baseline'])} -> {format_percent(f['latest'])} "
                f"(delta {f['delta']:+.3f}, band {f['band']:.3f})"
            )
        elif f["kind"] == "top1_change":
            lines.append(
                f"  [top1_change] {f['workload']}: most critical lock is now "
                f"{f['site']} (was {f['previous_site']})"
            )
        else:
            lines.append(
                f"  [rank_churn]  {f['workload']}: top-k churn "
                f"{format_percent(f['churn'])}"
                + (f", entered {', '.join(f['entered'])}" if f["entered"] else "")
                + (f", left {', '.join(f['left'])}" if f["left"] else "")
            )
    return "\n".join(lines)
