"""The per-trace index of :mod:`repro.trace.index` against per-event
dict / stack references, and its sharing across the analysis stages.

The references replay the lock rows in trace order the way the object
engine does: per ``(tid, obj)`` a pending-ACQUIRE counter, a held-level
counter (both floored at zero), a pop-on-get acquire slot and a hold
stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.trace as trace_mod
from repro.check.generator import corrupt_trace, generate_spec
from repro.check.interp import run_spec
from repro.check.reference import reference_trace_problems
from repro.core.analyzer import analyze
from repro.trace import ops
from repro.trace.events import NO_OBJECT, Event, EventType
from repro.trace.index import TraceIndex
from repro.trace.schema import known_etypes
from repro.trace.trace import Trace
from repro.trace.validate import trace_problems, validate_trace
from repro.workloads import SyntheticLocks

ACQ, OBT, REL = int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE)


@pytest.fixture(params=["packed", "fallback"])
def both_paths(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(ops, "_PACK_LIMIT", 1)
    return request.param


# -- reference -----------------------------------------------------------------


def reference(records: np.ndarray) -> dict:
    """Per-event replay of the lock rows; everything keyed by trace position."""
    pending: dict = {}
    held: dict = {}
    slot: dict = {}
    stacks: dict = {}
    out = {"pending": {}, "held": {}, "acquire": {}, "close": {}, "unmatched": []}
    for p, (tid, et, obj) in enumerate(
        zip(records["tid"].tolist(), records["etype"].tolist(), records["obj"].tolist())
    ):
        key = (tid, obj)
        if et == ACQ:
            pending[key] = pending.get(key, 0) + 1
            slot[key] = p
        elif et == OBT:
            pending[key] = max(0, pending.get(key, 0) - 1)
            held[key] = held.get(key, 0) + 1
            out["acquire"][p] = slot.pop(key, -1)
            out["close"][p] = -1
            stacks.setdefault(key, []).append(p)
        elif et == REL:
            held[key] = max(0, held.get(key, 0) - 1)
            if stacks.get(key):
                out["close"][stacks[key].pop()] = p
            else:
                out["unmatched"].append(p)
        else:
            continue
        out["pending"][p] = pending.get(key, 0)
        out["held"][p] = held.get(key, 0)
    return out


def derived(ix: TraceIndex) -> dict:
    """The same quantities read off the index, keyed by trace position."""
    rows = ix.lock_rows
    obtains, acquires = ix.acquire_slots()
    close, unmatched = ix.lifo_closes()
    assert np.array_equal(obtains, np.flatnonzero(ix.lock_etype == OBT))
    return {
        "pending": dict(zip(rows.tolist(), ix.pending.tolist())),
        "held": dict(zip(rows.tolist(), ix.held.tolist())),
        "acquire": {
            int(rows[o]): int(rows[a]) if a >= 0 else -1 for o, a in zip(obtains, acquires)
        },
        "close": {int(rows[o]): int(rows[c]) if c >= 0 else -1 for o, c in zip(obtains, close)},
        "unmatched": sorted(rows[unmatched].tolist()),
    }


def check_index(records: np.ndarray) -> TraceIndex:
    """Build an index over ``records`` and hold it to the references."""
    ix = TraceIndex(records)
    tid, obj, et = records["tid"], records["obj"], records["etype"]
    n = len(records)
    by_thread = sorted(range(n), key=lambda p: (tid[p], p))
    assert ix.thread_order.tolist() == by_thread
    assert ix.tids.tolist() == sorted(set(tid.tolist()))
    assert tid[ix.thread_order[ix.thread_starts]].tolist() == ix.tids.tolist()
    lock = [p for p in range(n) if ACQ <= et[p] <= REL]
    assert ix.lock_rows.tolist() == sorted(lock, key=lambda p: (tid[p], obj[p], p))
    assert ix.obj_rows.tolist() == sorted(lock, key=lambda p: (obj[p], p))
    groups = [(tid[p], obj[p]) for p in ix.lock_rows.tolist()]
    firsts = [i for i in range(len(groups)) if i == 0 or groups[i] != groups[i - 1]]
    assert ix.lock_starts.tolist() == firsts
    assert ix.lock_groups().tolist() == [len([f for f in firsts if f <= i]) - 1
                                         for i in range(len(groups))]
    assert derived(ix) == reference(records)
    return ix


def _records(rows) -> np.ndarray:
    """Records from (tid, etype, obj) triples, one time unit apart."""
    events = [
        Event(seq=i, time=float(i), tid=t, etype=EventType(e), obj=o)
        for i, (t, e, o) in enumerate(rows)
    ]
    return Trace.from_events(events).records


# -- hand-built cases ----------------------------------------------------------


def test_nested_holds_pair_innermost_first(both_paths):
    #       T0 takes L twice (recursive), T1 interleaves on L and M.
    rec = _records([
        (0, ACQ, 0), (0, OBT, 0), (1, ACQ, 1), (0, ACQ, 0), (0, OBT, 0),
        (1, OBT, 1), (0, REL, 0), (1, REL, 1), (0, REL, 0), (0, REL, 0),
        (0, OBT, 0),
    ])
    ix = check_index(rec)
    got = derived(ix)
    assert got["close"] == {1: 8, 4: 6, 5: 7, 10: -1}  # inner hold closes first
    assert got["unmatched"] == [9]  # pop on an empty stack
    assert got["acquire"] == {1: 0, 4: 3, 5: 2, 10: -1}
    assert got["held"][4] == 2 and got["pending"][3] == 1


def test_no_object_rows_form_their_own_groups(both_paths):
    rec = _records([
        (0, ACQ, NO_OBJECT), (0, ACQ, 0), (0, OBT, NO_OBJECT), (0, OBT, 0),
        (0, REL, NO_OBJECT), (0, REL, 0), (0, REL, NO_OBJECT),
    ])
    ix = check_index(rec)
    assert ix.lock_starts.tolist() == [0, 4]  # obj -1 sorts first
    assert derived(ix)["unmatched"] == [6]


def test_non_lock_rows_are_not_indexed():
    rec = _records([
        (0, int(EventType.THREAD_START), NO_OBJECT), (0, int(EventType.BARRIER_ARRIVE), 3),
        (0, ACQ, 0), (0, OBT, 0), (0, REL, 0), (0, int(EventType.THREAD_EXIT), NO_OBJECT),
    ])
    ix = check_index(rec)
    assert ix.lock_rows.tolist() == [2, 3, 4]


def test_empty_and_single_thread_traces():
    ix = check_index(_records([]))
    assert len(ix.lock_rows) == len(ix.thread_order) == 0
    single = SyntheticLocks(ops_per_thread=50, nlocks=3).run(nthreads=1, seed=2).trace
    ix = check_index(single.records)
    assert ix.tids.tolist() == [0]


def test_unknown_etypes_use_a_throwaway_filtered_index():
    trace = run_spec(generate_spec(4)).trace
    records = trace.records.copy()
    records["etype"][[3, 9]] = [15, 0]
    bad = Trace(records=records, objects=trace.objects, threads=trace.threads)
    assert trace_problems(bad) == reference_trace_problems(bad)
    assert "index" not in vars(bad)  # validation did not cache a filtered index
    check_index(records[known_etypes(records)])
    check_index(records)  # unknown rows are simply not lock rows


@pytest.mark.parametrize("seed", range(12))
def test_corrupted_traces_match_reference(seed):
    trace = run_spec(generate_spec(seed)).trace
    check_index(trace.records)
    for k in range(4):
        check_index(corrupt_trace(trace, seed * 4 + k).records)


# -- property ------------------------------------------------------------------


@st.composite
def lock_rows(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    return [
        (
            draw(st.integers(0, 2)),
            draw(st.sampled_from([ACQ, OBT, REL, ACQ, OBT, REL, int(EventType.COND_WAKE)])),
            draw(st.sampled_from([NO_OBJECT, 0, 1])),
        )
        for _ in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(lock_rows(), st.booleans())
def test_index_matches_reference_property(rows, fallback):
    saved = ops._PACK_LIMIT
    ops._PACK_LIMIT = 1 if fallback else saved
    try:
        check_index(_records(rows))
    finally:
        ops._PACK_LIMIT = saved


# -- sharing and size ----------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    built = []

    class Counting(TraceIndex):
        def __init__(self, records):
            built.append(len(records))
            super().__init__(records)

    monkeypatch.setattr(trace_mod, "TraceIndex", Counting)
    return built


def _synthetic(ops_per_thread=300):
    return SyntheticLocks(ops_per_thread=ops_per_thread, nlocks=4, barrier_every=50).run(
        nthreads=4, seed=1
    ).trace


def test_analyze_builds_the_index_once(counted):
    trace = _synthetic()
    analyze(trace).render()
    assert counted == [len(trace)]


def test_validate_then_analyze_reuse_the_index(counted):
    trace = _synthetic()
    validate_trace(trace)
    index = trace.index
    analyze(trace)
    analyze(trace, validate=False)
    assert counted == [len(trace)] and trace.index is index


def test_index_retains_at_most_32_bytes_per_event():
    trace = _synthetic(ops_per_thread=2000)
    analyze(trace)
    retained = sum(a.nbytes for a in vars(trace.index).values() if isinstance(a, np.ndarray))
    assert "obj_rows" in vars(trace.index)  # the lazy view is counted too
    assert retained <= 32 * len(trace), retained / len(trace)
