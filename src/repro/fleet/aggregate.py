"""Cross-trace aggregation: clusters, time-series and regressions.

:class:`FleetAggregator` is the fleet's memory.  Every analyzed trace
becomes one compact :class:`Observation` — the fingerprinted lock
ranking plus per-lock ``cp_fraction`` — folded into its workload's
time-series by :func:`apply`, the one reducer.

State persists under the service data directory as a checkpoint and an
append-only observation log:

* ``fleet.json`` — the state as of observation ``seq``, written with
  :func:`~repro._durable.write_atomic`;
* ``fleet.<seq>.log`` — one JSON line per observation committed after
  that checkpoint, appended with :func:`~repro._durable.append_durable`.

Opening folds the log into the checkpoint through :func:`apply`, so a
restart (or a worker process answering a ``fleet_*`` job) rebuilds the
exact state, and committing an observation costs one appended line
instead of a rewrite of the whole state.  Once the log holds more lines
than the checkpoint holds observations it is compacted: the state
becomes the new checkpoint and a new log, named by the checkpoint's
``seq``, begins.  A reader that raced a compaction sees the checkpoint
change under it and reads again.

Aggregation is idempotent by trace digest: every digest ever observed
is remembered (one string per trace, while each workload's series keeps
only its last ``_MAX_OBSERVATIONS`` observations), so re-observing a
stored trace is a no-op.  That is what lets the service update fleet
state on every store write, and a catch-up over a whole store, without
rescans.

Regression detection compares a workload's latest observation against
the rest of its series.  The noise band is calibrated from the repeated
runs themselves: a lock's ``cp_fraction`` shift only counts when it
exceeds ``max(noise_floor, sigma * std(baseline))``, so byte-identical
re-uploads never alarm while a genuine ranking shift does.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro._durable import append_durable, fsync_path, reap_staging, write_atomic
from repro.errors import ReproError
from repro.fleet.fingerprint import fingerprint_lock
from repro.tables import format_table
from repro.units import format_percent

__all__ = [
    "Observation",
    "FleetState",
    "FleetAggregator",
    "apply",
    "render_summary",
    "render_regressions",
]

log = logging.getLogger("repro.fleet")

#: Per-observation lock cap: the ranking tail carries no fleet signal.
_MAX_LOCKS = 32
#: Per-workload series cap (oldest observations are dropped beyond it).
_MAX_OBSERVATIONS = 512
#: Per-cluster series length exported in summaries (sparkline width).
_SERIES_LEN = 32
#: The log is compacted once it holds more lines than this, than the
#: state holds observations and than an eighth of its digests (a digest
#: is a fraction of an observation's bytes), so a compaction's O(state)
#: write is spread over at least as many O(1) appends.
_COMPACT_MIN_LINES = 256
#: Reads of a checkpoint and its log before giving up on a directory
#: whose checkpoint keeps changing under the reader.
_FOLD_ATTEMPTS = 100

#: 1 was a whole-state ``fleet.json`` and reads as a checkpoint with no log.
_STATE_VERSION = 2
_READABLE_VERSIONS = (1, 2)


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
    def from_dict(cls, d: dict[str, Any]) -> "Observation":
        return cls(
            digest=d["digest"],
            workload=d["workload"],
            seq=d["seq"],
            ts=d["ts"],
            name=d.get("name", ""),
            duration=d.get("duration", 0.0),
            nthreads=d.get("nthreads", 0),
            locks=d.get("locks", {}),
        )

    @classmethod
    def from_report(
        cls,
        report: dict[str, Any],
        *,
        digest: str,
        workload: str,
        seq: int = 0,
        ts: float | None = None,
    ) -> "Observation":
        """Reduce an ``analyze`` report dict to an observation.

        ``seq`` is assigned when the observation is committed;
        ``ts`` defaults to now.
        """
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
            ts=time.time() if ts is None else ts,
            name=str(report.get("name", "")),
            duration=float(report.get("duration", 0.0)),
            nthreads=int(report.get("nthreads", 0)),
            locks=locks,
        )


@dataclass
class FleetState:
    """Everything the fleet knows, as the observations it folded in."""

    #: ``seq`` of the last observation folded in.
    seq: int = 0
    #: Change counter for subscribers: one step per observation.
    version: int = 0
    series: dict[str, list[Observation]] = field(default_factory=dict)
    #: digest -> workload, for every observation ever folded in.
    digests: dict[str, str] = field(default_factory=dict)

    def to_checkpoint(self) -> dict[str, Any]:
        return {
            "state_version": _STATE_VERSION,
            "seq": self.seq,
            "version": self.version,
            "workloads": {
                w: [o.to_dict() for o in series] for w, series in self.series.items()
            },
            "digests": self.digests,
        }

    @classmethod
    def from_checkpoint(cls, blob: dict[str, Any]) -> "FleetState":
        if blob.get("state_version") not in _READABLE_VERSIONS:
            raise ValueError(f"unknown state_version {blob.get('state_version')!r}")
        state = cls(
            seq=int(blob.get("seq", 0)),
            version=int(blob.get("version", 0)),
            digests=dict(blob.get("digests", {})),
        )
        for workload, rows in blob.get("workloads", {}).items():
            state.series[workload] = [Observation.from_dict(o) for o in rows]
        return state


def apply(state: FleetState, obs: Observation) -> FleetState:
    """Fold one committed observation into ``state``: the one reducer.

    Record the digest, append to the workload's series and trim it to
    ``_MAX_OBSERVATIONS`` (the digest stays recorded).  Both a live
    commit and the fold at open go through here.  It reads nothing but
    its arguments (no clock, no disk), so folding the same observations
    always gives the same state.  It updates ``state`` in place: a copy
    per observation would cost O(history), the cost the log removes.
    """
    series = state.series.setdefault(obs.workload, [])
    series.append(obs)
    state.digests[obs.digest] = obs.workload
    if len(series) > _MAX_OBSERVATIONS:
        del series[: len(series) - _MAX_OBSERVATIONS]
    state.seq = obs.seq
    state.version += 1
    return state


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _stat_key(path: Path) -> tuple[int, int] | None:
    """Which file ``path`` names now (a rename gives a new inode)."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


def _fold_log(state: FleetState, data: bytes) -> tuple[int, int]:
    """Apply every whole line of a log; return (bytes, lines) folded.

    Folding stops at the first line that is torn (no newline: a power
    cut mid-append) or unreadable; what follows it is dropped.
    """
    good = lines = 0
    *whole, _tail = data.split(b"\n")
    for line in whole:
        try:
            obs = Observation.from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError):
            break
        apply(state, obs)
        good += len(line) + 1
        lines += 1
    return good, lines


class FleetAggregator:
    """Persistent, thread-safe fleet state over analyzed traces.

    ``read_only=True`` folds the checkpoint and log and never creates,
    repairs or writes anything (a missing directory is an empty fleet):
    the view for a worker process or the ``fleet --store`` CLI, next to
    a service that owns the directory.  Its commits fold into memory
    only; a writer's are durable before they are visible.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        noise_floor: float = 0.05,
        sigma: float = 3.0,
        topk: int = 5,
        read_only: bool = False,
    ):
        self.state_dir = Path(state_dir)
        self.state_path = self.state_dir / "fleet.json"
        self.read_only = read_only
        self.noise_floor = noise_floor
        self.sigma = sigma
        self.topk = topk
        self._lock = threading.RLock()  # the state: queries and apply
        self._cond = threading.Condition(self._lock)
        # One committer at a time, so log order is seq order; held across
        # the fsync, which queries never wait for.
        self._commit_lock = threading.Lock()
        # Sets the state, the checkpoint seq the log follows (_log_seq)
        # and the log's line count (_log_lines).
        self._open()

    # -- ingest ---------------------------------------------------------------

    def has(self, digest: str) -> bool:
        with self._lock:
            return digest in self._state.digests

    def observe(
        self,
        report: dict[str, Any],
        *,
        digest: str,
        workload: str,
        ts: float | None = None,
    ) -> Observation | None:
        """Fold one analysis report into fleet state.

        Returns the new :class:`Observation`, or ``None`` when the
        digest was already observed (idempotent re-upload).
        """
        obs = Observation.from_report(report, digest=digest, workload=workload, ts=ts)
        return self.commit([obs])[0]

    def commit(self, observations: Sequence[Observation]) -> list[Observation | None]:
        """Fold a group of observations in, with one fsync for the group.

        Each observation gets the next ``seq``; one whose digest was
        already observed (or repeats earlier in the group) gives
        ``None``.  The group's lines are durable before any of it is
        visible to queries or subscribers; a read-only view folds it
        into memory only.
        """
        with self._commit_lock:
            out: list[Observation | None] = []
            fresh: list[Observation] = []
            held = self._state.digests  # only committers change it
            seen: set[str] = set()
            seq = self._state.seq
            for obs in observations:
                if obs.digest in held or obs.digest in seen:
                    out.append(None)
                    continue
                seen.add(obs.digest)
                seq += 1
                obs = replace(obs, seq=seq)
                fresh.append(obs)
                out.append(obs)
            if not fresh:
                return out
            if not self.read_only:
                self._append_locked(fresh)
            with self._cond:
                for obs in fresh:
                    apply(self._state, obs)
                self._cond.notify_all()
            if not self.read_only:
                self._maybe_compact_locked()
            return out

    # -- change notification (SSE) --------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._state.version

    def wait_version(self, last: int, timeout: float | None = None) -> int:
        """Block until the state version exceeds ``last`` (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._state.version <= last:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return self._state.version

    # -- queries --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            state = self._state
            return {
                "workloads": len(state.series),
                "observations": sum(len(s) for s in state.series.values()),
                "digests": len(state.digests),
                "version": state.version,
            }

    def summary(self, top: int = 20) -> dict[str, Any]:
        """Fleet-wide cluster summary: recurring bottlenecks first."""
        with self._lock:
            clusters: dict[tuple[str, str], dict[str, Any]] = {}
            for workload, series in self._state.series.items():
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
                "traces": len(self._state.digests),
                "workloads": len(self._state.series),
                "clusters": len(out),
                "version": self._state.version,
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
            for workload, series in sorted(self._state.series.items()):
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

    def compact(self) -> None:
        """Write the state as a new checkpoint and start a new log.

        Commits do this on their own once the log outgrows the state.
        """
        if self.read_only:
            raise ReproError(f"{self.state_dir}: fleet state is open read-only")
        with self._commit_lock:
            self._compact_locked()

    def _log_path(self, seq: int) -> Path:
        return self.state_dir / f"fleet.{seq}.log"

    def _append_locked(self, observations: list[Observation]) -> None:
        lines = [
            json.dumps(o.to_dict(), separators=(",", ":")).encode("utf-8")
            for o in observations
        ]
        append_durable(self._log_path(self._log_seq), b"\n".join(lines) + b"\n")
        self._log_lines += len(lines)

    def _maybe_compact_locked(self) -> None:
        live = sum(len(s) for s in self._state.series.values())
        if self._log_lines <= max(_COMPACT_MIN_LINES, live, len(self._state.digests) // 8):
            return
        try:
            self._compact_locked()
        except OSError as exc:  # every line is already durable: retry later
            log.warning("fleet compaction failed: %s", exc)

    def _compact_locked(self) -> None:
        # Committers hold the commit lock to change the state, so it
        # stays still while serialized here without blocking queries.
        blob = json.dumps(self._state.to_checkpoint()).encode("utf-8")
        old = self._log_path(self._log_seq)
        before = _stat_key(self.state_path)
        try:
            write_atomic(self.state_path, blob)
        except BaseException:
            if _stat_key(self.state_path) != before:
                # Replaced, but the directory fsync failed: readers now
                # find a checkpoint naming the new log, so commits go
                # there.  The old log stays for a power cut that undoes
                # the rename; the next open removes it.
                self._log_seq, self._log_lines = self._state.seq, 0
            raise
        # The old log is now redundant.  An unlink a power cut undoes
        # leaves a stale log the next open removes.
        self._log_seq, self._log_lines = self._state.seq, 0
        if old != self._log_path(self._log_seq):
            old.unlink(missing_ok=True)

    def _read_checkpoint(self) -> FleetState | None:
        """The checkpoint's state (empty if none), or None if unreadable."""
        try:
            data = self.state_path.read_bytes()
        except FileNotFoundError:
            return FleetState()
        try:
            return FleetState.from_checkpoint(json.loads(data))
        except (ValueError, KeyError, TypeError, AttributeError):
            return None

    def _read_log(self, path: Path) -> bytes:
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return b""

    def _open(self) -> None:
        """Fold the checkpoint and its log; a writer also repairs the dir.

        The checkpoint's identity is checked after the log is read: a
        compaction between the two reads replaced it (and may have
        removed the log read), so the fold starts over.
        """
        for _ in range(_FOLD_ATTEMPTS):
            before = _stat_key(self.state_path)
            state = self._read_checkpoint()
            data = b"" if state is None else self._read_log(self._log_path(state.seq))
            if _stat_key(self.state_path) == before:
                break
        else:
            raise ReproError(f"{self.state_dir}: fleet checkpoint kept changing")
        readable = state is not None
        if not readable:
            # Unreadable or from an unknown version: start fresh.  The
            # traces re-ingest on demand (POST /fleet/ingest).
            log.warning("fleet state %s unreadable: starting fresh", self.state_path)
            state = FleetState()
        self._log_seq = state.seq
        good, self._log_lines = _fold_log(state, data)
        self._state = state
        if self.read_only:
            return
        self.state_dir.mkdir(parents=True, exist_ok=True)
        reap_staging(self.state_dir)
        keep = self._log_path(self._log_seq) if readable else None
        for stale in self.state_dir.glob("fleet.*.log"):
            if stale != keep:
                stale.unlink()
        if not readable:
            self._compact_locked()  # an empty checkpoint replaces it
        elif len(data) > good:  # cut a torn tail before appending after it
            os.truncate(keep, good)
            fsync_path(keep)


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
