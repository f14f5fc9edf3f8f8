"""Importers for foreign lock-event dumps.

Real captures do not arrive in this tool's native ``.clt``/``.cls``
formats: kernel and userspace profilers (``perf lock contention``,
eBPF-based tracers) emit flat per-event text dumps.  This module maps
the common denominator of those dumps — one JSON object per line with a
timestamp, a thread id, a lock name and an event verb — onto the native
event model so the exact analyzer and the statistical estimator
(:func:`repro.core.estimate.estimate_report`) run on them unchanged.

perf-style JSONL format
-----------------------
One event per line::

    {"ts": 0.0012, "tid": 17, "event": "acquire",  "lock": "rq->lock"}
    {"ts": 0.0019, "tid": 17, "event": "acquired", "lock": "rq->lock"}
    {"ts": 0.0044, "tid": 17, "event": "release",  "lock": "rq->lock"}

``ts`` is seconds (float), ``tid`` the OS thread id, ``event`` one of
``acquire`` (the thread starts acquiring), ``acquired`` (it got the
lock) and ``released``/``release``.  Optional fields: ``comm`` (thread
name, first occurrence wins), ``contended`` (bool, overrides the
inferred contention flag).  An ``acquired`` with no open ``acquire`` is
taken as an uncontended acquisition at its own timestamp; contention is
otherwise inferred from ``ts(acquired) > ts(acquire)``.

The importer is strict about what it cannot repair and tolerant about
what it can:

* malformed JSON, non-object lines, unknown fields, unknown event
  verbs, missing required fields, non-finite timestamps, thread ids
  that do not fit a record and per-thread timestamp regressions raise
  :class:`~repro.errors.TraceFormatError` with the offending
  ``path:line``;
* unmatched releases are dropped and still-open holds are closed at the
  thread's last timestamp (counts land in ``meta["import"]``);
* contended acquisitions whose waking release precedes the capture
  window are demoted via
  :func:`repro.trace.transform.demote_orphan_contention`, the same
  repair sampled captures use.

Thread lifecycle events are synthesized (first/last per-thread
timestamp), so the result is a fully valid :class:`Trace` whose
``meta["source"]`` is ``"import:perf-jsonl"``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.errors import TraceFormatError
from repro.trace.events import EventType, ObjectKind
from repro.trace.schema import FIELD_BOUNDS
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.transform import demote_orphan_contention
from repro.trace.validate import validate_trace

__all__ = ["import_trace", "import_perf_jsonl", "IMPORT_FORMATS"]

_REQUIRED = ("ts", "tid", "event", "lock")
_OPTIONAL = ("comm", "contended")
_VERBS = ("acquire", "acquired", "release", "released")


def _fail(path: Path, lineno: int, msg: str) -> TraceFormatError:
    return TraceFormatError(f"{path}:{lineno}: {msg}")


def import_perf_jsonl(path: str | Path, validate: bool = True) -> Trace:
    """Import a perf-style JSONL lock-event dump (see module docstring)."""
    path = Path(path)
    objects: dict[str, int] = {}  # lock name -> obj id
    threads: dict[int, str] = {}  # tid -> name
    spans: dict[int, tuple[float, float]] = {}  # tid -> (first ts, last ts)
    # (tid, obj) -> acquire time of the open acquisition attempt
    acquiring: dict[tuple[int, int], float] = {}
    # (tid, obj) -> open hold count (reentrant holds close LIFO)
    holding: dict[tuple[int, int], int] = {}
    rows: list[tuple] = []
    dropped_releases = 0

    def emit(time: float, tid: int, etype: EventType, obj: int = -1, arg: int = 0) -> None:
        rows.append((len(rows), time, tid, etype, obj, arg))

    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _fail(path, lineno, f"malformed JSON: {exc.msg}") from exc
            if not isinstance(doc, dict):
                raise _fail(path, lineno, f"expected an object, got {type(doc).__name__}")
            unknown = set(doc) - set(_REQUIRED) - set(_OPTIONAL)
            if unknown:
                raise _fail(path, lineno, f"unknown field(s): {', '.join(sorted(unknown))}")
            missing = [f for f in _REQUIRED if f not in doc]
            if missing:
                raise _fail(path, lineno, f"missing field(s): {', '.join(missing)}")
            verb = doc["event"]
            if verb not in _VERBS:
                raise _fail(
                    path,
                    lineno,
                    f"unknown event {verb!r} (expected one of {', '.join(_VERBS)})",
                )
            try:
                ts = float(doc["ts"])
                tid = int(doc["tid"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise _fail(path, lineno, f"bad ts/tid: {exc}") from exc
            if not math.isfinite(ts):
                raise _fail(path, lineno, f"ts {ts} is not finite")
            low, high = FIELD_BOUNDS["tid"]
            if not low <= tid <= high:
                raise _fail(path, lineno, f"tid {tid} out of range [{low}, {high}]")
            lock = str(doc["lock"])

            if tid not in threads:
                threads[tid] = str(doc.get("comm", "")) or f"T{tid}"
                spans[tid] = (ts, ts)
            else:
                first, last = spans[tid]
                if ts < last:
                    raise _fail(
                        path,
                        lineno,
                        f"timestamp goes backwards for tid {tid}: "
                        f"{ts!r} after {last!r}",
                    )
                spans[tid] = (first, ts)
            obj = objects.setdefault(lock, len(objects))
            key = (tid, obj)

            if verb == "acquire":
                acquiring[key] = ts
            elif verb == "acquired":
                acquire_ts = acquiring.pop(key, ts)
                contended = bool(doc.get("contended", ts > acquire_ts))
                emit(acquire_ts, tid, EventType.ACQUIRE, obj)
                emit(ts, tid, EventType.OBTAIN, obj, arg=int(contended))
                holding[key] = holding.get(key, 0) + 1
            else:  # release / released
                if holding.get(key, 0) <= 0:
                    dropped_releases += 1  # hold opened before the capture
                    continue
                holding[key] -= 1
                emit(ts, tid, EventType.RELEASE, obj)

    if not rows:
        raise TraceFormatError(f"{path}: no lock events found")

    # Close holds still open at the end of the capture window and bracket
    # every thread's events with a synthesized lifecycle.
    forced_closes = 0
    for (tid, obj), count in sorted(holding.items()):
        for _ in range(count):
            emit(spans[tid][1], tid, EventType.RELEASE, obj)
            forced_closes += 1
    # Leading THREAD_STARTs get negative seqs so they sort before real
    # events at the same timestamp; trailing THREAD_EXITs keep ascending
    # seqs past every real event (from_events renumbers afterwards).
    lead = -1_000_000_000
    for tid, (first, last) in sorted(spans.items()):
        rows.append((lead, first, tid, EventType.THREAD_START, -1, 0))
        lead += 1
        emit(last, tid, EventType.THREAD_EXIT)

    obj_table = {
        oid: ObjectInfo(obj=oid, kind=ObjectKind.MUTEX, name=name)
        for name, oid in objects.items()
    }
    meta: dict[str, Any] = {
        "name": path.stem,
        "source": "import:perf-jsonl",
        "import": {
            "file": path.name,
            "dropped_releases": dropped_releases,
            "forced_closes": forced_closes,
            "dangling_acquires": len(acquiring),
        },
    }
    trace = Trace.from_events(rows, objects=obj_table, threads=threads, meta=meta)
    trace, demoted = demote_orphan_contention(trace)
    if demoted:
        trace.meta["import"]["demoted_waits"] = demoted
    if validate:
        validate_trace(trace)
    return trace


#: Supported foreign formats and their importers.
IMPORT_FORMATS = {"perf-jsonl": import_perf_jsonl}


def import_trace(path: str | Path, format: str = "perf-jsonl", validate: bool = True) -> Trace:
    """Import a foreign lock-event dump as a native :class:`Trace`.

    ``format`` selects the importer (:data:`IMPORT_FORMATS`); only
    ``"perf-jsonl"`` exists today, but the CLI ``import`` subcommand and
    the service layer go through this dispatcher so new formats plug in
    here.
    """
    importer = IMPORT_FORMATS.get(format)
    if importer is None:
        known = ", ".join(sorted(IMPORT_FORMATS))
        raise TraceFormatError(f"unknown import format {format!r} (known: {known})")
    return importer(path, validate=validate)
