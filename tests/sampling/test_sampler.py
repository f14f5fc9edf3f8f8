"""Sampler invariants: unit integrity, determinism, rate edge cases.

The contract under test (see ``docs/sampling.md``): hash-Bernoulli
sampling of whole lock-invocation units, identical decisions from the
streaming scalar sampler and the vectorized ``downsample_trace``,
byte-identical records at rate 1.0, and blocking-chain events immune to
sampling at every rate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.sampling import (
    EventSampler,
    downsample_trace,
    sample_mask,
    trace_sample_rate,
    unit_hash,
)
from repro.sampling.sampler import _hash_events, _unit_columns
from repro.trace.events import EventType
from repro.trace.transform import demote_orphan_contention
from repro.trace.validate import validate_trace
from repro.workloads import get_workload

from tests.core.test_properties import program_st, run_random_program

_LOCK_VERBS = (EventType.ACQUIRE, EventType.OBTAIN, EventType.RELEASE)

rate_st = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
seed_st = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def radiosity_trace():
    return (
        get_workload("radiosity")(total_tasks=40, iterations=2)
        .run(nthreads=4, seed=11)
        .trace
    )


def lock_objs(trace):
    return {info.obj for info in trace.objects.values() if info.kind.is_lock_like}


def unit_ids(trace):
    """(row -> unit key) for every lock-verb record, from the scalar walk."""
    depth: dict[tuple[int, int], int] = {}
    counter: dict[tuple[int, int], int] = {}
    objs = lock_objs(trace)
    out = {}
    for i, rec in enumerate(trace.records):
        et, tid, obj = int(rec["etype"]), int(rec["tid"]), int(rec["obj"])
        if et not in (
            int(EventType.ACQUIRE),
            int(EventType.OBTAIN),
            int(EventType.RELEASE),
        ) or obj not in objs:
            continue
        key = (tid, obj)
        if et == int(EventType.ACQUIRE):
            if depth.get(key, 0) == 0:
                counter[key] = counter.get(key, 0) + 1
            depth[key] = depth.get(key, 0) + 1
        k = counter.get(key, 0)
        out[i] = (tid, obj, k)
        if et == int(EventType.RELEASE):
            depth[key] = depth.get(key, 0) - 1
    return out


# -- hash agreement ---------------------------------------------------------


def test_vectorized_hash_matches_scalar_reference(radiosity_trace):
    trace = radiosity_trace
    records = trace.records
    is_unit = np.isin(records["etype"], [int(e) for e in _LOCK_VERBS])
    is_unit &= np.isin(
        records["obj"], np.fromiter(lock_objs(trace), dtype=np.int64)
    )
    idx = np.flatnonzero(is_unit)
    k, _ = _unit_columns(records, is_unit)
    vec = _hash_events(records, idx, k, seed=42)
    ids = unit_ids(trace)
    for j, row in enumerate(idx):
        tid, obj, kk = ids[int(row)]
        assert int(vec[j]) == unit_hash(42, tid, obj, kk)


def test_unit_counter_increments_at_outermost_acquire(radiosity_trace):
    """k must be assigned at ACQUIRE (depth 0) and shared by the whole
    bracket — the regression the multi-group seg_cumsum bug caused."""
    trace = radiosity_trace
    records = trace.records
    is_unit = np.isin(records["etype"], [int(e) for e in _LOCK_VERBS])
    is_unit &= np.isin(
        records["obj"], np.fromiter(lock_objs(trace), dtype=np.int64)
    )
    idx = np.flatnonzero(is_unit)
    k, _ = _unit_columns(records, is_unit)
    ids = unit_ids(trace)
    for j, row in enumerate(idx):
        assert int(k[j]) == ids[int(row)][2]


# -- rate edge cases --------------------------------------------------------


def test_rate_one_is_byte_identical(radiosity_trace):
    sampled = downsample_trace(radiosity_trace, 1.0, seed=5)
    assert sampled.records.tobytes() == radiosity_trace.records.tobytes()
    assert trace_sample_rate(sampled) == 1.0
    assert trace_sample_rate(radiosity_trace) is None


def test_rate_zero_keeps_exactly_the_blocking_chain(radiosity_trace):
    sampled = downsample_trace(radiosity_trace, 0.0, seed=5)
    objs = lock_objs(radiosity_trace)
    kept_lock_verbs = [
        rec
        for rec in sampled.records
        if int(rec["etype"])
        in (int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE))
        and int(rec["obj"]) in objs
    ]
    # rate 0: no unit wins the toss, no contended OBTAIN survives to
    # retain a waker -> no lock verbs at all.
    assert kept_lock_verbs == []
    # Everything else (lifecycle, barriers, condition variables) survives.
    non_lock = [
        rec
        for rec in radiosity_trace.records
        if not (
            int(rec["etype"])
            in (int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE))
            and int(rec["obj"]) in objs
        )
    ]
    assert len(sampled.records) == len(non_lock)


def test_invalid_rate_rejected(radiosity_trace):
    with pytest.raises(TraceError):
        downsample_trace(radiosity_trace, 1.5)
    with pytest.raises(TraceError):
        downsample_trace(radiosity_trace, -0.1)


def test_double_downsampling_rejected(radiosity_trace):
    sampled = downsample_trace(radiosity_trace, 0.5, seed=1)
    with pytest.raises(TraceError, match="already sampled"):
        downsample_trace(sampled, 0.5, seed=1)


# -- property tests over random programs ------------------------------------


@settings(max_examples=25, deadline=None)
@given(program_st, rate_st, st.integers(min_value=0, max_value=10_000))
def test_mask_is_constant_per_unit_and_never_orphans(spec, rate, seed):
    """Within one invocation unit the keep-mask is constant, so a sampled
    trace can never contain a RELEASE without its ACQUIRE/OBTAIN."""
    trace = run_random_program(spec).trace
    mask = sample_mask(trace.records, lock_objs(trace), rate, seed)
    ids = unit_ids(trace)
    per_unit: dict[tuple, set] = {}
    for row, key in ids.items():
        per_unit.setdefault(key, set()).add(bool(mask[row]))
    for key, decisions in per_unit.items():
        assert len(decisions) == 1, f"unit {key} partially sampled"


@settings(max_examples=25, deadline=None)
@given(program_st, rate_st, st.integers(min_value=0, max_value=10_000))
def test_sampled_traces_validate_and_analyze(spec, rate, seed):
    trace = run_random_program(spec).trace
    sampled = downsample_trace(trace, rate, seed)
    repaired, _ = demote_orphan_contention(sampled)
    validate_trace(repaired)


@settings(max_examples=15, deadline=None)
@given(program_st, st.sampled_from([0.0, 0.25, 0.5, 1.0]), seed_st)
def test_sampling_is_deterministic(spec, rate, seed):
    trace = run_random_program(spec).trace
    a = downsample_trace(trace, rate, seed)
    b = downsample_trace(trace, rate, seed)
    assert a.records.tobytes() == b.records.tobytes()


@settings(max_examples=15, deadline=None)
@given(program_st, st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 100))
def test_streaming_sampler_matches_vectorized(spec, rate, seed):
    """EventSampler.process over the event stream selects exactly the
    events ``sample_mask`` selects (waker retention included)."""
    trace = run_random_program(spec).trace
    mask = sample_mask(trace.records, lock_objs(trace), rate, seed)
    objs = lock_objs(trace)
    sampler = EventSampler(rate, seed)
    kept = []
    for ev in trace:
        if (
            ev.etype in (EventType.ACQUIRE, EventType.OBTAIN, EventType.RELEASE)
            and ev.obj in objs
        ):
            kept.extend(sampler.process(ev))
        else:
            kept.append(ev)
    streamed = sorted(ev.seq for ev in kept)
    vectorized = sorted(int(s) for s in trace.records["seq"][mask])
    assert streamed == vectorized


def test_streaming_sampler_meta():
    sampler = EventSampler(0.25, seed=9)
    assert sampler.meta() == {"strategy": "unit-hash", "rate": 0.25, "seed": 9}


def test_streaming_sampler_hashes_each_unit_once(monkeypatch):
    """One ``unit_hash`` call per ``(tid, obj, k)`` unit, however many
    events (nested re-acquisitions included) the unit holds."""
    import repro.sampling.sampler as sampler_mod

    calls = []

    def counting(seed, tid, obj, k):
        calls.append((tid, obj, k))
        return unit_hash(seed, tid, obj, k)

    monkeypatch.setattr(sampler_mod, "unit_hash", counting)
    sampler = EventSampler(0.5, seed=4)
    acquire, obtain, release = (int(e) for e in _LOCK_VERBS)
    seq = 0
    for k in range(12):
        for tid in (0, 1):
            verbs = [acquire, obtain]
            if k % 3 == 0:
                verbs += [acquire, obtain, release]  # nested in the same unit
            for etype in verbs + [release]:
                sampler.process((seq, float(seq), tid, etype, 7, 0))
                seq += 1
    # A bare RELEASE opens no unit: it reuses k = 0's decision, hashed once.
    sampler.process((seq, float(seq), 2, release, 7, 0))
    sampler.process((seq + 1, float(seq + 1), 2, release, 7, 0))
    assert sorted(calls) == sorted(
        [(tid, 7, k) for tid in (0, 1) for k in range(1, 13)] + [(2, 7, 0)]
    )
