"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.schema import EVENT_DTYPE
from repro.trace.trace import ObjectInfo, Trace


def two_thread_events():
    return [
        Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START),
        Event(seq=1, time=0.0, tid=1, etype=EventType.THREAD_START),
        Event(seq=2, time=1.0, tid=0, etype=EventType.ACQUIRE, obj=0),
        Event(seq=3, time=1.0, tid=0, etype=EventType.OBTAIN, obj=0),
        Event(seq=4, time=2.0, tid=0, etype=EventType.RELEASE, obj=0),
        Event(seq=5, time=3.0, tid=0, etype=EventType.THREAD_EXIT),
        Event(seq=6, time=4.0, tid=1, etype=EventType.THREAD_EXIT),
    ]


def make_trace():
    return Trace.from_events(
        two_thread_events(),
        objects={0: ObjectInfo(obj=0, kind=ObjectKind.MUTEX, name="L")},
        threads={0: "a", 1: "b"},
        meta={"name": "t"},
    )


class TestConstruction:
    def test_wrong_dtype_rejected(self):
        with pytest.raises(TraceError, match="dtype"):
            Trace(records=np.zeros(3, dtype=np.float64))

    def test_unsorted_seq_rejected(self):
        events = two_thread_events()
        records = np.array(events, dtype=EVENT_DTYPE)
        records["seq"] = records["seq"][::-1].copy()
        with pytest.raises(TraceError, match="seq"):
            Trace(records=records)

    def test_time_seq_mismatch_rejected(self):
        events = two_thread_events()
        records = np.array(events, dtype=EVENT_DTYPE)
        records["time"][2] = 10.0  # later than everything after it
        with pytest.raises(TraceError, match="time order"):
            Trace(records=records)

    def test_from_events_sorts_and_renumbers(self):
        events = list(reversed(two_thread_events()))
        trace = Trace.from_events(events)
        times = [ev.time for ev in trace]
        assert times == sorted(times)
        assert [ev.seq for ev in trace] == list(range(len(events)))

    def test_from_events_takes_any_iterable_of_plain_rows(self):
        rows = (tuple(ev) for ev in reversed(two_thread_events()))
        trace = Trace.from_events(rows)
        assert trace.records.dtype == EVENT_DTYPE
        assert np.array_equal(trace.records, make_trace().records)

    def test_from_events_signed_seq_breaks_time_ties(self):
        rows = [
            (7, 1.0, 0, EventType.OBTAIN, 0, 0),
            (-3, 1.0, 0, EventType.ACQUIRE, 0, 0),
            (2, 0.5, 0, EventType.THREAD_START, -1, 0),
        ]
        trace = Trace.from_events(rows)
        assert [ev.etype for ev in trace] == [
            EventType.THREAD_START, EventType.ACQUIRE, EventType.OBTAIN,
        ]
        assert trace.records["seq"].tolist() == [0, 1, 2]


class TestAccessors:
    def test_len_iter_getitem(self):
        trace = make_trace()
        assert len(trace) == 7
        assert trace[0].etype == EventType.THREAD_START
        assert sum(1 for _ in trace) == 7

    def test_duration(self):
        trace = make_trace()
        assert trace.start_time == 0.0
        assert trace.end_time == 4.0
        assert trace.duration == 4.0

    def test_empty_trace_duration(self):
        trace = Trace.from_events([])
        assert trace.duration == 0.0
        with pytest.raises(TraceError, match="empty"):
            trace.last_finished_thread()

    def test_thread_ids_and_names(self):
        trace = make_trace()
        assert trace.thread_ids == [0, 1]
        assert trace.thread_name(0) == "a"
        assert trace.thread_name(99) == "T99"

    def test_object_lookup(self):
        trace = make_trace()
        assert trace.object_name(0) == "L"
        assert trace.object_name(5) == "obj#5"
        with pytest.raises(TraceError, match="unknown"):
            trace.object_info(5)

    def test_locks_property(self):
        trace = make_trace()
        assert [info.name for info in trace.locks] == ["L"]

    def test_objects_of_kind(self):
        trace = make_trace()
        assert len(trace.objects_of_kind(ObjectKind.MUTEX)) == 1
        assert trace.objects_of_kind(ObjectKind.BARRIER) == []

    def test_for_thread_and_object(self):
        trace = make_trace()
        assert len(trace.for_thread(0)) == 5
        assert len(trace.for_thread(1)) == 2
        assert len(trace.for_object(0)) == 3

    def test_count(self):
        trace = make_trace()
        assert trace.count(EventType.THREAD_START) == 2
        assert trace.count(EventType.OBTAIN) == 1

    def test_thread_span(self):
        trace = make_trace()
        assert trace.thread_span(0) == (0.0, 3.0)
        with pytest.raises(TraceError, match="no events"):
            trace.thread_span(7)

    def test_last_finished_thread(self):
        assert make_trace().last_finished_thread() == 1

    def test_display_name_fallback(self):
        info = ObjectInfo(obj=3, kind=ObjectKind.BARRIER, name="")
        assert info.display_name == "barrier#3"
