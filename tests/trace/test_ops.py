"""The shared array primitives of :mod:`repro.trace.ops` against plain
dict / stack references.

Every primitive has an offset-arithmetic fast path and an
``np.unique`` / ``np.lexsort`` fallback for key ranges that would
overflow; ``both_paths`` runs each test through both (the fallback by
shrinking ``_PACK_LIMIT``) and the near-overflow tests reach the
fallback with real inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import ops
from repro.trace.ops import (
    dense_keys,
    exact_group_sums,
    floored_cumsum,
    group_bounds,
    latest_prior,
    previous_in_key,
    segmented_cumsum,
    sort_order,
)

@pytest.fixture(params=["packed", "fallback"])
def both_paths(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(ops, "_PACK_LIMIT", 1)
    return request.param


# -- references ----------------------------------------------------------------


def ref_latest_prior(mpos, mkey, qpos, qkey):
    out = []
    for p, k in zip(qpos, qkey):
        prior = [m for m, mk in zip(mpos, mkey) if mk == k and m < p]
        out.append(max(prior) if prior else -1)
    return out


def ref_previous_in_key(pos, key):
    last: dict[int, int] = {}
    prev = [-1] * len(pos)
    for i in sorted(range(len(pos)), key=lambda i: pos[i]):
        prev[i] = last.get(key[i], -1)
        last[key[i]] = i
    return prev


def ref_segmented(values, starts, floor):
    out, acc = [], 0
    for i, v in enumerate(values.tolist()):
        if i in starts:
            acc = 0
        acc += v
        if floor:
            acc = max(0, acc)
        out.append(acc)
    return out


def ranks(key) -> list[int]:
    """Dense order-preserving rank of each value."""
    return np.unique(np.asarray(key), return_inverse=True)[1].reshape(-1).tolist()


def tuple_ranks(*cols) -> list[int]:
    rows = list(zip(*(np.asarray(c).tolist() for c in cols)))
    order = {t: i for i, t in enumerate(sorted(set(rows)))}
    return [order[t] for t in rows]


# -- dense_keys / sort_order ---------------------------------------------------


def test_dense_keys_orders_like_tuples(both_paths):
    a = np.array([3, -1, 3, 7, -1, 3], dtype=np.int32)
    b = np.array([True, False, True, False, True, False])
    c = np.array([2**63, 0, 2**63, 5, 9, 1], dtype=np.uint64)
    key = dense_keys(a, b, c)
    assert key.dtype == np.int64 and (key >= 0).all()
    assert ranks(key) == tuple_ranks(a, b, c)


def test_dense_keys_empty_and_no_columns():
    assert dense_keys(np.zeros(0, dtype=np.int32)).shape == (0,)
    with pytest.raises(ValueError):
        dense_keys()


def test_dense_keys_near_overflow_falls_back_with_same_order():
    wide = np.array([-(2**62), 2**62, 0, 2**62, -(2**62)], dtype=np.int64)
    small = np.array([1, 0, 1, 0, 0], dtype=np.int64)
    key = dense_keys(wide, small)
    assert ranks(key) == tuple_ranks(wide, small)
    # Each column alone fits; their product does not.
    a = np.array([0, 2**40, 5, 2**40], dtype=np.int64)
    assert ranks(dense_keys(a, a)) == tuple_ranks(a, a)


def test_sort_order_is_lexsort(both_paths):
    rng = np.random.default_rng(1)
    key = rng.integers(-5, 5, 200)
    pos = rng.permutation(1000)[:200]
    assert sort_order(key, pos).tolist() == np.lexsort((pos, key)).tolist()
    # Without pos: a stable sort by key, both for narrow and wide keys.
    assert sort_order(key).tolist() == np.argsort(key, kind="stable").tolist()
    wide = key * 100_000
    assert sort_order(wide).tolist() == np.argsort(wide, kind="stable").tolist()
    narrow = (key * 20).astype(np.int8)  # max - min overflows int8
    assert sort_order(narrow).tolist() == np.argsort(narrow, kind="stable").tolist()
    assert sort_order(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_sort_order_near_overflow():
    key = np.array([2**61, 0, 2**61, 1], dtype=np.int64)
    pos = np.array([3, 2**40, 1, 0], dtype=np.int64)
    assert sort_order(key, pos).tolist() == np.lexsort((pos, key)).tolist()


# -- latest_prior / previous_in_key --------------------------------------------


def test_latest_prior_matches_reference(both_paths):
    mpos = [0, 2, 5, 7, 9]
    mkey = [1, 2, 1, 1, 2]
    qpos = [1, 5, 6, 8, 9, 10, 0]
    qkey = [1, 1, 1, 2, 2, 3, 1]
    got = latest_prior(np.array(mpos), np.array(mkey), np.array(qpos), np.array(qkey))
    assert got.tolist() == ref_latest_prior(mpos, mkey, qpos, qkey)
    # A marker at the query's own position (pos 5, pos 9) is not prior.
    assert got[1] == 0 and got[4] == 2


def test_latest_prior_empty_sides():
    none = np.zeros(0, dtype=np.int64)
    assert latest_prior(none, none, np.array([3]), np.array([1])).tolist() == [-1]
    assert latest_prior(np.array([3]), np.array([1]), none, none).tolist() == []


def test_latest_prior_negative_and_unsigned_keys(both_paths):
    mpos, qpos = np.array([0, 1, 2]), np.array([3, 4])
    mkey = np.array([-(2**40), 7, -(2**40)], dtype=np.int64)
    qkey = np.array([-(2**40), 7], dtype=np.int64)
    assert latest_prior(mpos, mkey, qpos, qkey).tolist() == [2, 1]
    ukey = np.array([2**63 + 1, 3, 2**63 + 1], dtype=np.uint64)
    assert latest_prior(mpos, ukey, qpos, ukey[:2]).tolist() == [2, 1]


def test_previous_in_key_matches_reference(both_paths):
    pos = [9, 1, 4, 3, 0, 7]
    key = [1, 1, 2, 1, 2, 2]
    got = previous_in_key(np.array(pos), np.array(key))
    assert got.tolist() == ref_previous_in_key(pos, key)
    assert previous_in_key(np.array([5]), np.array([1])).tolist() == [-1]


# -- segmented sums ------------------------------------------------------------


def test_segmented_and_floored_cumsum():
    steps = np.array([1, -1, -1, 1, 1, -1, -1, -1, 1, 1])
    starts = np.array([0, 4, 8])
    bounds = {0, 4, 8}
    assert segmented_cumsum(steps, starts).tolist() == ref_segmented(steps, bounds, False)
    assert floored_cumsum(steps, starts).tolist() == ref_segmented(steps, bounds, True)
    none = np.zeros(0, dtype=np.int64)
    assert floored_cumsum(none, none).shape == (0,)


def test_exact_group_sums_add_left_to_right():
    rng = np.random.default_rng(3)
    values = rng.random(50) * 10.0 ** rng.integers(-8, 8, 50)
    starts, ends = np.array([0, 10, 10, 33]), np.array([10, 10, 33, 50])
    want = []
    for lo, hi in zip(starts, ends):
        acc = 0.0
        for v in values[lo:hi].tolist():
            acc += v
        want.append(acc)
    assert exact_group_sums(values, starts, ends).tolist() == want


def test_group_bounds():
    starts, keys = group_bounds(np.array([1, 1, 4, 4, 4, 9]))
    assert starts.tolist() == [0, 2, 5] and keys.tolist() == [1, 4, 9]
    assert group_bounds(np.zeros(0, dtype=np.int64))[0].shape == (0,)


# -- property test over both paths ---------------------------------------------

rows = st.integers(min_value=0, max_value=40)


@st.composite
def keyed_events(draw):
    n = draw(rows)
    pos = draw(st.permutations(range(2 * n + 1)))[:n]
    key = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    flag = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return pos, key, flag


@settings(max_examples=150, deadline=None)
@given(keyed_events(), st.booleans())
def test_primitives_match_references(events, fallback):
    pos, key, flag = events
    limit = 1 if fallback else ops._PACK_LIMIT
    saved, ops._PACK_LIMIT = ops._PACK_LIMIT, limit
    try:
        p = np.array(pos, dtype=np.int64)
        k = np.array(key, dtype=np.int64)
        f = np.array(flag, dtype=bool)
        assert ranks(dense_keys(k, f)) == tuple_ranks(k, f)
        assert sort_order(k, p).tolist() == np.lexsort((p, k)).tolist()
        assert previous_in_key(p, k).tolist() == ref_previous_in_key(pos, key)
        # Markers are the flagged rows, queries every row: equal positions.
        m = np.flatnonzero(f)
        got = latest_prior(p[m], k[m], p, k)
        assert got.tolist() == ref_latest_prior(p[m].tolist(), k[m].tolist(), pos, key)
    finally:
        ops._PACK_LIMIT = saved
