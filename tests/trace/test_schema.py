"""Unit tests for the numpy record schema."""

import numpy as np

from repro.trace.events import Event, EventType
from repro.trace.schema import EVENT_DTYPE, ROW_DTYPE, event_from_row


def pack(events):
    """An event is a record row: one ``np.array`` packs a list of them."""
    return np.array(events, dtype=EVENT_DTYPE)


def unpack(records):
    return [event_from_row(row) for row in records]


def sample_events():
    return [
        Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START),
        Event(seq=1, time=0.5, tid=0, etype=EventType.ACQUIRE, obj=2),
        Event(seq=2, time=0.5, tid=0, etype=EventType.OBTAIN, obj=2, arg=0),
        Event(seq=3, time=1.5, tid=0, etype=EventType.RELEASE, obj=2),
        Event(seq=4, time=2.0, tid=0, etype=EventType.THREAD_EXIT),
    ]


def test_roundtrip():
    events = sample_events()
    records = pack(events)
    assert records.dtype == EVENT_DTYPE
    back = unpack(records)
    assert back == events
    assert all(type(ev.etype) is EventType for ev in back)


def test_negative_obj_preserved():
    ev = Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START, obj=-1)
    (back,) = unpack(pack([ev]))
    assert back.obj == -1


def test_large_values():
    ev = Event(
        seq=2**40, time=1e9, tid=2**20, etype=EventType.JOIN_END, obj=2**30, arg=-(2**40)
    )
    (back,) = unpack(pack([ev]))
    assert back == ev


def test_dtype_itemsize_stable():
    # On-disk format compatibility: field layout is part of the contract.
    assert EVENT_DTYPE.itemsize == 33  # u8 + f8 + i4 + u1 + i4 + i8, packed
    assert list(EVENT_DTYPE.names) == ["seq", "time", "tid", "etype", "obj", "arg"]


def test_times_stored_as_float64():
    records = pack(sample_events())
    assert records["time"].dtype == np.float64


def test_event_is_a_plain_row():
    ev = Event(seq=3, time=0.5, tid=1, etype=EventType.OBTAIN, obj=2, arg=1)
    assert ev == (3, 0.5, 1, EventType.OBTAIN, 2, 1)
    assert Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START) == (
        0, 0.0, 0, EventType.THREAD_START, -1, 0,
    )


def test_row_dtype_is_event_dtype_with_signed_seq():
    assert ROW_DTYPE.names == EVENT_DTYPE.names
    assert ROW_DTYPE["seq"] == np.int64
    assert all(ROW_DTYPE[n] == EVENT_DTYPE[n] for n in EVENT_DTYPE.names[1:])
