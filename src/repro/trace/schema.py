"""Numpy storage schema for event records.

Traces can contain millions of events (Radiosity at 24 threads produces
hundreds of thousands of lock operations), so bulk storage is a numpy
structured array rather than a list of Python objects.  This module owns
the dtype, the signed-``seq`` dtype producers pack their rows into, and
the per-row :class:`Event` view.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import Event, EventType

__all__ = [
    "EVENT_DTYPE",
    "FIELD_BOUNDS",
    "ROW_DTYPE",
    "event_from_row",
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

#: :data:`EVENT_DTYPE` with a signed ``seq``: the dtype producers pack
#: their ``(seq, time, tid, etype, obj, arg)`` rows into before
#: :func:`repro.trace.framing.sort_stream_records` renumbers them.
#: Repair and import code gives synthetic leading events negative seqs.
ROW_DTYPE = np.dtype(
    [(name, np.int64 if name == "seq" else EVENT_DTYPE[name]) for name in EVENT_DTYPE.names]
)

#: Inclusive bounds of the integer fields of a record read from a file,
#: checked before packing so a reader can name the offending line.
#: ``seq`` is stored unsigned and packed signed, so it must fit both.
FIELD_BOUNDS: dict[str, tuple[int, int]] = {
    name: (0 if name == "seq" else int(np.iinfo(ROW_DTYPE[name]).min),
           int(np.iinfo(ROW_DTYPE[name]).max))
    for name in ("seq", "tid", "obj", "arg")
}

_ETYPE_MIN = min(int(e) for e in EventType)
_ETYPE_MAX = max(int(e) for e in EventType)


def known_etypes(records: np.ndarray) -> np.ndarray:
    """Mask of the records whose ``etype`` byte names an :class:`EventType`."""
    etype = records["etype"]
    return (etype >= _ETYPE_MIN) & (etype <= _ETYPE_MAX)


def event_from_row(row: np.void) -> Event:
    """Convert one structured-array row into an :class:`Event`."""
    seq, time, tid, etype, obj, arg = row.item()
    return Event(seq, time, tid, EventType(etype), obj, arg)
