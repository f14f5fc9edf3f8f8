"""Shared array primitives for the columnar engine and the trace validator.

They live in :mod:`repro.trace` (pure numpy, no analysis imports) so
both :mod:`repro.trace.validate` and :mod:`repro.core.columnar` can use
them.  A handful of tools cover every dict the object engine keeps while
scanning the trace:

* :func:`dense_keys` / :func:`sort_order` — pack several integer key
  columns into one int64 and order rows by ``(key, position)`` with a
  single ``argsort``.  Both use offset arithmetic while the packed
  values fit in 62 bits and fall back to ``np.unique`` / ``np.lexsort``
  beyond that, with the same result either way.
* :func:`latest_prior` — "latest earlier event with the same key", the
  vectorized form of ``last_release[obj]`` / ``exits[tid]`` /
  ``last_event[tid]`` style lookups.  One ``np.maximum.accumulate`` over
  the ``(key, position)``-sorted stream answers every query at once.
* :func:`previous_in_key` — the row just before each row within its
  key: the pop-on-get slot dicts (pending acquires, barrier arrivals)
  only need to know whether that row set or popped the slot.
* :func:`lifo_match` — parenthesis matching per key, the vectorized form
  of the per-``(tid, obj)`` ``open_holds`` stacks.  Stack depths come
  from a floored segmented cumsum; each close then pairs with the row
  just before it among the rows of its ``(key, depth)``.
* :func:`exact_group_sums` — per-group sums computed with ``np.cumsum``
  so each group's floats are added left to right, exactly like the
  object engine's ``for``-loop accumulators.  ``np.add.reduceat`` would
  be faster but uses pairwise summation and is *not* bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dense_keys",
    "exact_group_sums",
    "floored_cumsum",
    "group_bounds",
    "latest_prior",
    "lifo_match",
    "previous_in_key",
    "segmented_cumsum",
    "sort_order",
]

#: Largest packed key (exclusive) the offset-arithmetic paths produce;
#: beyond it they fall back to ``np.unique`` / ``np.lexsort``.
_PACK_LIMIT = 1 << 62


def _offsets(col: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(col - col.min())`` as int64 and the column's width, or ``None``
    when the column is not integer or its range does not fit."""
    c = np.asarray(col)
    if c.dtype == bool:
        c = c.view(np.uint8)
    if c.dtype.kind not in "iu":
        return None
    lo, hi = int(c.min()), int(c.max())
    width = hi - lo + 1
    if width > _PACK_LIMIT:
        return None
    if c.dtype.kind == "u" and c.dtype.itemsize == 8:
        return (c - np.uint64(lo)).astype(np.int64), width
    return c.astype(np.int64) - lo, width


def dense_keys(*cols: np.ndarray) -> np.ndarray:
    """Pack parallel integer key columns into one non-negative int64 key.

    Rows with equal column tuples get equal keys, and keys order rows
    like the tuples do (first column most significant).  The keys are
    the column offsets ``col - col.min()`` combined in mixed radix, so
    they range over the product of the column widths; when that product
    would pass ``_PACK_LIMIT``, each column is replaced by its rank among
    its distinct values (``np.unique``) first, which keeps keys below
    the row count per column.
    """
    if not cols:
        raise ValueError("dense_keys needs at least one column")
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    parts = [_offsets(col) for col in cols]
    width = 1
    for part in parts:
        width = width * part[1] if part is not None else _PACK_LIMIT + 1
    if width <= _PACK_LIMIT:
        key = parts[0][0]
        for offset, w in parts[1:]:
            key = key * np.int64(w) + offset
        return key
    key = None
    for col in cols:
        uniq, inv = np.unique(np.asarray(col), return_inverse=True)
        inv = inv.astype(np.int64, copy=False).reshape(-1)
        key = inv if key is None else key * np.int64(len(uniq)) + inv
    return key


def sort_order(key: np.ndarray, pos: np.ndarray | None = None) -> np.ndarray:
    """Indices that order rows by ``(key, pos)``: ``np.lexsort((pos, key))``.

    ``key`` and ``pos`` are integer columns; ``pos`` defaults to the row
    index, which makes this a stable sort by ``key``.  Rows are ordered
    by one ``argsort`` of the packed ``key * span + pos`` (a radix sort
    of ``key`` alone when ``pos`` is omitted and keys span at most 2**16
    values), and by ``np.lexsort`` when the packed value would pass
    ``_PACK_LIMIT``.  Rows with equal ``(key, pos)`` may come in any
    order unless ``pos`` is omitted.
    """
    n = len(key)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    k = dense_keys(key)
    kw = int(k.max()) + 1
    if pos is None:
        if kw <= 1 << 16:
            return np.argsort(k.astype(np.uint16), kind="stable")
        p, pw = np.arange(n, dtype=np.int64), n
    else:
        p = dense_keys(pos)
        pw = int(p.max()) + 1
    if kw * pw <= _PACK_LIMIT:
        return np.argsort(k * np.int64(pw) + p)
    return np.lexsort((p, k))


def group_bounds(sorted_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and keys of each run in an already-sorted key array."""
    if len(sorted_key) == 0:
        return np.zeros(0, dtype=np.int64), sorted_key
    starts = np.flatnonzero(np.concatenate([[True], sorted_key[1:] != sorted_key[:-1]]))
    return starts.astype(np.int64), sorted_key[starts]


def latest_prior(
    marker_pos: np.ndarray,
    marker_key: np.ndarray,
    query_pos: np.ndarray,
    query_key: np.ndarray,
) -> np.ndarray:
    """For each query, the position of the latest marker strictly before it
    carrying the same key, or ``-1`` when none exists.

    ``marker_pos`` / ``query_pos`` are global record positions
    (non-negative, unique among the markers and among the queries).  A
    marker may share a query's position; positions are compared
    strictly, so a marker *at* a query's own position is never returned.
    Keys are arbitrary integers.
    """
    nq = len(query_pos)
    out = np.full(nq, -1, dtype=np.int64)
    nm = len(marker_pos)
    if nq == 0 or nm == 0:
        return out

    key = dense_keys(np.concatenate([np.asarray(marker_key), np.asarray(query_key)]))
    pos = np.concatenate([marker_pos, query_pos]).astype(np.int64)
    # Order by (key, pos, is_marker): one record can be both a marker and
    # a query (a COND_WAKE is an event of its own thread), and "prior"
    # is strict, so at equal positions the query must come first to keep
    # the marker out of its own running maximum.
    flagged = pos * 2
    flagged[:nm] += 1
    order = sort_order(key, flagged)
    is_marker = order < nm
    # Running maximum of the sorted index of markers seen so far: each
    # query's latest preceding marker in (key, pos) order.
    seen = np.maximum.accumulate(np.where(is_marker, np.arange(nm + nq), -1))
    qi = np.flatnonzero(~is_marker)
    prior = np.where(qi > 0, seen[qi - 1], -1)
    hit = prior >= 0
    prior_row = order[np.maximum(prior, 0)]
    hit &= key[prior_row] == key[order[qi]]
    out[order[qi] - nm] = np.where(hit, pos[prior_row], -1)
    return out


def previous_in_key(pos: np.ndarray, key: np.ndarray) -> np.ndarray:
    """For each row, the index of the row with the same key just before it
    in ``pos`` order, or ``-1`` for the first row of its key.

    ``pos`` are unique integers; indices refer to the input arrays.
    """
    n = len(pos)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = sort_order(key, pos)
    k = dense_keys(key)[order]
    same = np.flatnonzero(k[1:] == k[:-1])
    prev[order[same + 1]] = order[same]
    return prev


def segmented_cumsum(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Cumulative sum restarting at each segment boundary.

    Only safe for *integer* values (exact arithmetic): implemented as a
    global cumsum minus the per-segment offset.
    """
    if len(values) == 0:
        return values.copy()
    total = np.cumsum(values)
    seg_lens = np.diff(np.append(seg_starts, len(values)))
    base_vals = np.zeros(len(seg_starts), dtype=total.dtype)
    if len(seg_starts) > 1:
        base_vals[1:] = total[seg_starts[1:] - 1]
    total -= np.repeat(base_vals, seg_lens)
    return total


def floored_cumsum(steps: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Segmented running count of integer ``steps`` that stays at 0 instead
    of going negative: per segment, ``c = max(0, c + step)`` after each row.

    The floored walk is the plain cumulative sum minus its running
    minimum (clamped at 0); shifting each later segment below every
    earlier one lets one global ``minimum.accumulate`` restart at every
    segment boundary.
    """
    n = len(steps)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    walk = segmented_cumsum(np.asarray(steps, dtype=np.int64), seg_starts)
    gap = 2 * max(int(walk.max()), -int(walk.min())) + 2
    sizes = np.diff(np.append(seg_starts, n))
    shift = np.repeat(np.arange(len(seg_starts), dtype=np.int64) * gap, sizes)
    # In place from here on: validation's peak memory runs through this.
    low = walk - shift
    np.minimum.accumulate(low, out=low)
    low += shift
    del shift
    np.minimum(low, 0, out=low)
    walk -= low
    return walk


def lifo_match(
    pos: np.ndarray,
    key: np.ndarray,
    is_open: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack-discipline matching of opens/closes per key.

    ``pos`` are unique global positions; events are stacked per ``key``
    in position order.  Returns ``(close_for_open, open_for_close)``:
    for each open event (in input order) the input index of its matching
    close or ``-1`` if never closed, and for each close the index of its
    open or ``-1`` for a pop on an empty stack (an error in the object
    engine; the stack stays empty).  Indices refer to the *input* arrays.
    """
    n = len(pos)
    close_for_open = np.full(n, -1, dtype=np.int64)
    open_for_close = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return close_for_open, open_for_close

    is_open = np.asarray(is_open, dtype=bool)
    key = dense_keys(key)
    order = sort_order(key, pos)
    opens = is_open[order]
    starts, _ = group_bounds(key[order])
    depth_after = floored_cumsum(np.where(opens, 1, -1), starts)
    depth_before = np.empty_like(depth_after)
    depth_before[0] = 0
    depth_before[1:] = depth_after[:-1]
    depth_before[starts] = 0

    # Drop pops on an empty stack; what is left is a well-nested walk in
    # which the transitions across each depth alternate open, close,
    # open, ... so every close pairs with the row just before it in
    # (key, depth, pos) order — a stable sort of the (key, pos)-ordered
    # rows by (key, depth).
    live = np.flatnonzero(opens | (depth_before > 0))
    depth = np.where(opens, depth_before, depth_after)[live]
    by_depth = live[sort_order(dense_keys(key[order][live], depth))]
    rows = order[by_depth]
    closes = np.flatnonzero(~is_open[rows])
    open_for_close[rows[closes]] = rows[closes - 1]
    close_for_open[rows[closes - 1]] = rows[closes]
    return close_for_open, open_for_close


def exact_group_sums(values: np.ndarray, seg_starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Left-to-right float sum of each ``[start, end)`` segment.

    One ``np.cumsum`` per segment keeps IEEE addition order identical to
    the object engine's accumulator loops.  Call sites have few segments
    (locks × threads), so the Python loop is cheap.
    """
    out = np.zeros(len(seg_starts), dtype=np.float64)
    for i, (lo, hi) in enumerate(zip(seg_starts, ends)):
        if hi > lo:
            out[i] = np.cumsum(values[lo:hi])[-1]
    return out
