"""Merging traces from separate profiling sessions.

Real systems are profiled in pieces — one :class:`ProfilingSession` per
process, or separate simulator runs of cooperating components.  To
analyze them as one execution, :func:`merge_traces` remaps thread and
object ids into disjoint ranges, applies per-trace time offsets (for
clocks that started at different moments), prefixes names to keep them
distinguishable, and re-validates the result.

Synchronization objects are *not* unified across traces (two processes'
locks are genuinely distinct); the merged trace answers "what does the
combined timeline look like", with each component's critical path intact
and the analyzer's whole-trace statistics spanning both.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import TraceError
from repro.trace.events import EventType
from repro.trace.trace import ObjectInfo, Trace

__all__ = ["merge_traces"]

#: Event types whose ``arg`` is a thread id, remapped with its thread.
_TID_ARGS = frozenset(
    {EventType.THREAD_CREATE, EventType.JOIN_BEGIN, EventType.JOIN_END, EventType.COND_WAKE}
)


def merge_traces(
    traces: Sequence[Trace],
    offsets: Sequence[float] | None = None,
    prefixes: Sequence[str] | None = None,
) -> Trace:
    """Combine traces into one (see module docstring).

    Parameters
    ----------
    offsets:
        Per-trace time shifts (seconds); defaults to all zero, i.e. the
        traces' clocks are assumed already aligned.
    prefixes:
        Per-trace name prefixes for threads and objects; defaults to
        ``p0:``, ``p1:``, … when merging more than one trace.
    """
    if not traces:
        raise TraceError("merge_traces needs at least one trace")
    if offsets is None:
        offsets = [0.0] * len(traces)
    if len(offsets) != len(traces):
        raise TraceError(f"{len(traces)} traces but {len(offsets)} offsets")
    if prefixes is None:
        prefixes = (
            [""] if len(traces) == 1 else [f"p{i}:" for i in range(len(traces))]
        )
    if len(prefixes) != len(traces):
        raise TraceError(f"{len(traces)} traces but {len(prefixes)} prefixes")

    rows: list[tuple] = []
    objects: dict[int, ObjectInfo] = {}
    threads: dict[int, str] = {}
    tid_base = 0
    obj_base = 0
    sources = []
    for trace, offset, prefix in zip(traces, offsets, prefixes):
        tid_map = {
            tid: tid_base + i for i, tid in enumerate(trace.thread_ids)
        }
        obj_map = {obj: obj_base + i for i, obj in enumerate(sorted(trace.objects))}
        for tid, new_tid in tid_map.items():
            threads[new_tid] = prefix + trace.thread_name(tid)
        for obj, new_obj in obj_map.items():
            info = trace.objects[obj]
            objects[new_obj] = ObjectInfo(
                obj=new_obj, kind=info.kind, name=prefix + info.display_name
            )
        for seq, time, tid, etype, obj, arg in trace.records.tolist():
            if etype in _TID_ARGS:
                arg = tid_map.get(arg, arg)
            new_obj = obj_map.get(obj, -1) if obj >= 0 else -1
            rows.append((seq, time + offset, tid_map[tid], etype, new_obj, arg))
        tid_base += len(tid_map)
        obj_base += len(obj_map)
        sources.append(
            {"name": trace.meta.get("name", ""), "offset": offset, "prefix": prefix}
        )

    # Cross-trace seq collisions are fine: from_events re-sorts by
    # (time, seq) and renumbers; within a trace relative order is kept
    # because offsets shift whole traces rigidly.
    return Trace.from_events(
        rows,
        objects=objects,
        threads=threads,
        meta={"name": "+".join(s["name"] or s["prefix"] for s in sources),
              "merged_from": sources},
    )
