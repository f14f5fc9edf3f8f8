"""Numpy storage schema for event records.

Traces can contain millions of events (Radiosity at 24 threads produces
hundreds of thousands of lock operations), so bulk storage is a numpy
structured array rather than a list of Python objects.  This module owns
the dtype and the conversions in both directions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.trace.events import Event, EventType

__all__ = [
    "EVENT_DTYPE",
    "records_from_events",
    "events_from_records",
    "empty_records",
    "known_etypes",
]

#: Structured dtype of one event record; field order mirrors :class:`Event`.
EVENT_DTYPE = np.dtype(
    [
        ("seq", np.uint64),
        ("time", np.float64),
        ("tid", np.int32),
        ("etype", np.uint8),
        ("obj", np.int32),
        ("arg", np.int64),
    ]
)


_ETYPE_MIN = min(int(e) for e in EventType)
_ETYPE_MAX = max(int(e) for e in EventType)


def known_etypes(records: np.ndarray) -> np.ndarray:
    """Mask of the records whose ``etype`` byte names an :class:`EventType`."""
    etype = records["etype"]
    return (etype >= _ETYPE_MIN) & (etype <= _ETYPE_MAX)


def empty_records(n: int = 0) -> np.ndarray:
    """Allocate an uninitialised record array of ``n`` events."""
    return np.empty(n, dtype=EVENT_DTYPE)


def records_from_events(events: Iterable[Event]) -> np.ndarray:
    """Pack an iterable of :class:`Event` into a structured array."""
    items = list(events)
    out = empty_records(len(items))
    for i, ev in enumerate(items):
        out[i] = (ev.seq, ev.time, ev.tid, int(ev.etype), ev.obj, ev.arg)
    return out


def events_from_records(records: np.ndarray) -> Iterator[Event]:
    """Yield :class:`Event` views over a structured array."""
    for row in records:
        yield event_from_row(row)


def event_from_row(row: np.void) -> Event:
    """Convert one structured-array row into an :class:`Event`."""
    return Event(
        seq=int(row["seq"]),
        time=float(row["time"]),
        tid=int(row["tid"]),
        etype=EventType(int(row["etype"])),
        obj=int(row["obj"]),
        arg=int(row["arg"]),
    )
