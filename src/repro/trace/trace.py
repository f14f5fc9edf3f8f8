"""The :class:`Trace` container: events plus object/thread metadata."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.framing import sort_stream_records
from repro.trace.index import TraceIndex
from repro.trace.schema import EVENT_DTYPE, ROW_DTYPE, event_from_row

__all__ = ["ObjectInfo", "Trace"]


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Metadata for one synchronization object appearing in a trace."""

    obj: int
    kind: ObjectKind
    name: str

    @property
    def display_name(self) -> str:
        return self.name or f"{self.kind.name.lower()}#{self.obj}"


@dataclass
class Trace:
    """An immutable, time-ordered synchronization event trace.

    Parameters
    ----------
    records:
        Structured array with dtype :data:`repro.trace.schema.EVENT_DTYPE`.
        Must be sorted by ``seq``; ``seq`` order must be consistent with
        ``time`` order (equal times may interleave, which is exactly why
        ``seq`` exists).
    objects:
        Metadata for every synchronization object referenced by events.
    threads:
        Optional display names per thread id.
    meta:
        Free-form provenance (workload name, parameters, clock domain…).
    """

    records: np.ndarray
    objects: dict[int, ObjectInfo] = field(default_factory=dict)
    threads: dict[int, str] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.records.dtype != EVENT_DTYPE:
            raise TraceError(f"records have dtype {self.records.dtype}, expected EVENT_DTYPE")
        seq = self.records["seq"]
        if len(seq) > 1 and not np.all(seq[1:] > seq[:-1]):
            raise TraceError("records must be strictly ordered by seq")
        times = self.records["time"]
        if len(times) > 1 and not np.all(times[1:] >= times[:-1]):
            raise TraceError("seq order must be consistent with time order")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        rows: Iterable[tuple],
        objects: Mapping[int, ObjectInfo] | None = None,
        threads: Mapping[int, str] | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> "Trace":
        """Build a trace from ``(seq, time, tid, etype, obj, arg)`` rows.

        Rows may be :class:`Event` objects or plain tuples; ``seq`` only
        breaks ties in time (it may be negative) and is renumbered
        densely after the stable (time, seq) sort.  Every producer —
        capture, builder, readers, importers, merge and transforms —
        assembles its trace here.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        return cls(
            records=sort_stream_records(np.array(rows, dtype=ROW_DTYPE)),
            objects=dict(objects or {}),
            threads=dict(threads or {}),
            meta=dict(meta or {}),
        )

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Event]:
        for row in self.records:
            yield event_from_row(row)

    def __getitem__(self, i: int) -> Event:
        return event_from_row(self.records[i])

    @property
    def start_time(self) -> float:
        """Timestamp of the first event (0.0 for an empty trace)."""
        return float(self.records["time"][0]) if len(self.records) else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last event (0.0 for an empty trace)."""
        return float(self.records["time"][-1]) if len(self.records) else 0.0

    @property
    def duration(self) -> float:
        """End-to-end execution time covered by the trace."""
        return self.end_time - self.start_time

    @property
    def thread_ids(self) -> list[int]:
        """Sorted ids of all threads that emitted at least one event."""
        return sorted(int(t) for t in np.unique(self.records["tid"]))

    def thread_name(self, tid: int) -> str:
        return self.threads.get(tid, f"T{tid}")

    def object_info(self, obj: int) -> ObjectInfo:
        try:
            return self.objects[obj]
        except KeyError:
            raise TraceError(f"unknown synchronization object id {obj}") from None

    def object_name(self, obj: int) -> str:
        info = self.objects.get(obj)
        return info.display_name if info is not None else f"obj#{obj}"

    def objects_of_kind(self, *kinds: ObjectKind) -> list[ObjectInfo]:
        """All objects of the given kinds, sorted by id."""
        wanted = set(kinds)
        return [info for obj, info in sorted(self.objects.items()) if info.kind in wanted]

    @property
    def locks(self) -> list[ObjectInfo]:
        """All lock-like objects (mutexes, semaphores, rwlocks)."""
        return [info for _, info in sorted(self.objects.items()) if info.kind.is_lock_like]

    @cached_property
    def index(self) -> TraceIndex:
        """Thread order and grouped lock rows (:mod:`repro.trace.index`),
        built by the first stage that asks and kept: records never change."""
        return TraceIndex(self.records)

    # -- filtered views ----------------------------------------------------

    def for_thread(self, tid: int) -> np.ndarray:
        """Record view of one thread's events, in trace order."""
        return self.records[self.records["tid"] == tid]

    def for_object(self, obj: int) -> np.ndarray:
        """Record view of one synchronization object's events."""
        return self.records[self.records["obj"] == obj]

    def count(self, etype: EventType) -> int:
        """Number of events of one type."""
        return int(np.count_nonzero(self.records["etype"] == int(etype)))

    # -- lifetime ----------------------------------------------------------

    def thread_span(self, tid: int) -> tuple[float, float]:
        """(first event time, last event time) for a thread."""
        rows = self.for_thread(tid)
        if len(rows) == 0:
            raise TraceError(f"thread {tid} has no events")
        return float(rows["time"][0]), float(rows["time"][-1])

    def last_finished_thread(self) -> int:
        """Tid of the thread whose final event is latest (analysis entry point).

        This is where the paper's backward algorithm starts: "the last
        segment of the last finished thread".
        """
        if len(self.records) == 0:
            raise TraceError("empty trace")
        return int(self.records["tid"][-1])
