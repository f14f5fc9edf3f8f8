"""Sampler invariants: unit integrity, determinism, rate edge cases.

The contract under test (see ``docs/sampling.md``): hash-Bernoulli
sampling of whole lock-invocation units by one ``EventSampler``, which
both live capture and ``downsample_trace`` run, byte-identical records
at rate 1.0, and blocking-chain events immune to sampling at every
rate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.sampling import (
    EventSampler,
    downsample_trace,
    trace_sample_rate,
    unit_hash,
)
from repro.trace.events import EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.transform import demote_orphan_contention
from repro.trace.validate import trace_problems, validate_trace
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


# -- unit identity ----------------------------------------------------------


def test_unit_counter_increments_at_outermost_acquire(radiosity_trace, monkeypatch):
    """k must be assigned at ACQUIRE (depth 0) and shared by the whole
    bracket: downsampling hashes exactly the reference's units, once each."""
    import repro.sampling.sampler as sampler_mod

    calls = []

    def counting(seed, tid, obj, k):
        calls.append((tid, obj, k))
        return unit_hash(seed, tid, obj, k)

    monkeypatch.setattr(sampler_mod, "unit_hash", counting)
    downsample_trace(radiosity_trace, 0.5, seed=42)
    units = set(unit_ids(radiosity_trace).values())
    assert len(units) > 100
    assert sorted(calls) == sorted(units)


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
    sampled = downsample_trace(trace, rate, seed)
    mask = np.isin(trace.records["seq"], sampled.records["seq"])
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
    """``downsample_trace`` keeps exactly the events an ``EventSampler``
    fed the trace's events one by one keeps (waker retention included),
    as live capture feeds it."""
    trace = run_random_program(spec).trace
    objs = lock_objs(trace)
    sampler = EventSampler(rate, seed)
    kept = []
    for ev in trace:
        if ev.etype in _LOCK_VERBS and ev.obj in objs:
            kept.extend(sampler.process(ev))
        else:
            kept.append(ev)
    streamed = sorted(ev.seq for ev in kept)
    sampled = downsample_trace(trace, rate, seed)
    assert streamed == sampled.records["seq"].tolist()


def test_bare_rows_after_a_retained_unit_are_not_resurrected():
    """On a trace with problems, a bare OBTAIN/RELEASE (no ACQUIRE) after
    a unit kept only as a waker reuses the unit's hash decision, which
    dropped it: the retention flushed that unit and nothing later."""
    acquire, obtain, release = (int(e) for e in _LOCK_VERBS)
    lock, t1, t2 = 0, 1, 2
    rate = 0.5
    thresh = int(rate * 2**64)
    seed = next(
        s for s in range(1000)
        if unit_hash(s, t1, lock, 1) >= thresh > unit_hash(s, t2, lock, 1)
    )
    rows = [
        (0, 0.0, t1, acquire, lock, 0),
        (1, 1.0, t1, obtain, lock, 0),
        (2, 2.0, t2, acquire, lock, 0),
        (3, 3.0, t1, release, lock, 0),
        (4, 3.0, t2, obtain, lock, 1),  # contended: retains T1's unit
        (5, 4.0, t2, release, lock, 0),
        (6, 5.0, t1, obtain, lock, 0),  # bare: no ACQUIRE opens it
        (7, 6.0, t1, release, lock, 0),
    ]
    trace = Trace.from_events(rows, objects={lock: ObjectInfo(lock, ObjectKind.MUTEX, "L")})
    assert trace_problems(trace)
    sampled = downsample_trace(trace, rate, seed)
    assert sampled.records["seq"].tolist() == [0, 1, 2, 3, 4, 5]


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


# -- exact pin -------------------------------------------------------------
#
# sha256 of the downsampled record bytes at four rates on the golden
# cases (sampling seed 10) and the fuzz programs (sampling seed = program
# seed), over every variant in tests/pins.py that has no trace problems.

from tests.pins import FUZZ_SEEDS, digest, fuzz_trace, golden_trace, with_corruptions  # noqa: E402

_PIN_RATES = (0.0, 0.1, 0.5, 1.0)
_DOWNSAMPLE_PINS = {
    "ldap": ("d3b7fa7bd8efcd52", "fc98e401f264190c", "7afdad1defdb29ac", "881b233d43ecbb2d"),
    "micro": ("a2cbbb12cfeb11a3", "a2cbbb12cfeb11a3", "a21151063f939291", "fe1ea8975b08c874"),
    "radiosity": ("5d820793a0af4648", "7de278b8463c0391", "20ea9a8a79d4321f", "49a89ab44b9daa4d"),
    "fuzz": ("77c15ae6b2c5a808", "420bf2e56af00832", "b76b1a0ce5236e23", "a44114c0257366a8"),
}


@pytest.mark.parametrize("case", sorted(_DOWNSAMPLE_PINS))
def test_downsample_pinned(case):
    if case == "fuzz":
        bases = [(fuzz_trace(s), s) for s in FUZZ_SEEDS]
    else:
        bases = [(golden_trace(case), 10)]
    valid = [
        (t, seed) for base, seed in bases for t in with_corruptions(base)
        if not trace_problems(t)
    ]
    got = tuple(
        digest(downsample_trace(t, rate, seed).records.tobytes() for t, seed in valid)
        for rate in _PIN_RATES
    )
    assert got == _DOWNSAMPLE_PINS[case]
