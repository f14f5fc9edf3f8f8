"""Byte pins of what a ProfilingSession captures.

One thread drives the session under a :class:`VirtualClock`, emitting
for pre-allocated tids with explicit timestamps, so every run produces
the same events in the same order.  The sha256 of the assembled record
block (full and sampled capture) and of the ``.cls`` file the streaming
mirror writes are pinned: any change to how capture buffers, samples,
packs or sorts records must leave these bytes alone.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.instrument import ProfilingSession, VirtualClock
from repro.stream import ChunkFileSink
from repro.trace.events import EventType, ObjectKind
from repro.trace.reader import read_trace

WORKERS = 3
LOCKS = 2
SECTIONS = 120  # critical sections over all workers


def _schedule(seed: int = 5) -> list[tuple[int, int, EventType, int, int]]:
    """``(at_ns, worker, etype, lock, arg)`` in emission order.

    Workers run critical sections one at a time on randomly chosen
    locks; a lock busy at ACQUIRE time hands over FIFO at its RELEASE
    (a contended OBTAIN at the same instant), and some sections nest a
    second acquisition of the same object, as a thread taking a counting
    semaphore twice records, so the sampler's bracket depth is exercised
    too.  Ties in time keep creation order, so a
    RELEASE precedes the OBTAIN it enables.
    """
    rng = random.Random(seed)
    events: list[tuple[int, int, int, EventType, int, int]] = []
    now = [1_000 * (w + 1) for w in range(WORKERS)]
    free_at = [0] * LOCKS

    def add(t, w, etype, lock, arg=0):
        events.append((t, len(events), w, etype, lock, arg))

    for _ in range(SECTIONS):
        w = min(range(WORKERS), key=lambda i: (now[i], i))
        lock = int(rng.random() * LOCKS)
        acquire = now[w]
        obtain = max(acquire, free_at[lock])
        release = obtain + 1_000 * (1 + int(rng.random() * 5))
        add(acquire, w, EventType.ACQUIRE, lock)
        add(obtain, w, EventType.OBTAIN, lock, int(obtain > acquire))
        if rng.random() < 0.2:
            add(obtain + 100, w, EventType.ACQUIRE, lock)
            add(obtain + 100, w, EventType.OBTAIN, lock)
            add(obtain + 200, w, EventType.RELEASE, lock)
        add(release, w, EventType.RELEASE, lock)
        free_at[lock] = release
        now[w] = release + 1_000 * int(rng.random() * 3)
    events.sort(key=lambda e: (e[0], e[1]))
    return [(t, w, etype, lock, arg) for t, _, w, etype, lock, arg in events]


def _capture(sample_rate=None, stream_path=None):
    clock = VirtualClock()
    with ProfilingSession(
        name="pinned", clock=clock, sample_rate=sample_rate, sample_seed=3
    ) as s:
        if stream_path is not None:
            s.stream_to(ChunkFileSink(stream_path), interval=3600.0, chunk_events=64)
        locks = [s.register_object(ObjectKind.MUTEX, f"L{i}") for i in range(LOCKS)]
        tids = [s.allocate_tid(f"W{w}") for w in range(WORKERS)]
        schedule = _schedule()
        for tid in tids:
            s.emit(0, EventType.THREAD_CREATE, arg=tid, at_ns=500)
            s.emit(tid, EventType.THREAD_START, at_ns=500)
        for at_ns, w, etype, lock, arg in schedule:
            s.emit(tids[w], etype, locks[lock], arg, at_ns=at_ns)
        end = schedule[-1][0] + 1_000
        for tid in tids:
            s.emit(tid, EventType.THREAD_EXIT, at_ns=end)
            s.emit(0, EventType.JOIN_BEGIN, arg=tid, at_ns=end)
            s.emit(0, EventType.JOIN_END, arg=tid, at_ns=end)
        clock.advance(end + 1_000)
    return s.trace()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


FULL_SHA = "75545d4471edc7257c83b9920d9a6f4113c381cc4fb483e7631112ba5c50575f"
SAMPLED_SHA = "2d34e5556f0cf2c2e9edcd4298a0637b407d900b4b687999209d5b724afa55b2"
STREAM_FILE_SHA = {
    None: "62ad36b2733d1ec196e00719ef0e978071d1ce0c0ac120ec5e74381ce9b3eabd",
    0.1: "b8a3e9f6e74cdf55bab2e86e8bb0369ea60ecb41a6e87ee32d0fcb16cae84386",
}


def test_full_capture_records_are_pinned():
    trace = _capture()
    assert len(trace) == 2 + 5 * WORKERS + len(_schedule())
    assert _sha(trace.records.tobytes()) == FULL_SHA


def test_sampled_capture_records_are_pinned():
    trace = _capture(sample_rate=0.1)
    assert 0 < len(trace) < len(_capture())
    assert _sha(trace.records.tobytes()) == SAMPLED_SHA


@pytest.mark.parametrize("rate", [None, 0.1])
def test_streamed_mirror_is_pinned(tmp_path, rate):
    path = tmp_path / "mirror.cls"
    trace = _capture(sample_rate=rate, stream_path=path)
    assert _sha(path.read_bytes()) == STREAM_FILE_SHA[rate]
    assert np.array_equal(read_trace(path).records, trace.records)
