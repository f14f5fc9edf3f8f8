"""Trace well-formedness checking.

The backward critical-path walk assumes structural invariants that the
instrumentation layer must uphold (every OBTAIN pairs with a preceding
ACQUIRE, mutex ownership is exclusive, barrier cohorts are complete...).
``validate_trace`` checks them all and reports every violation, which makes
it both a guard for the analyzer and a test oracle for the tracers.

Every check is a numpy kernel over ``trace.records``; no per-event Python
object is built, so validation costs about as much as one columnar
analysis stage.  The problem list is exactly the one the per-event
reference checker (:mod:`repro.check.reference`) produces, in the same
order — the ``validate-equiv`` oracle invariant holds the two together:

* sections come in a fixed order: unknown event types, thread
  lifecycles, lock protocol, barriers, condition variables, joins;
* inside a section, per-record problems are ordered by trace position
  (then by check, when one record breaks two rules), followed by the
  exit-time problems in the order their keys were first touched.

The per-key counters the reference keeps in dicts (pending ACQUIREs,
held levels, blocked waiters, begun joins) are walks of ±1 steps that
never drop below zero; :func:`_floored_walk` computes all of them at
once as a floored segmented cumsum (:func:`~repro.trace.ops.floored_cumsum`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceValidationError
from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.ops import (
    dense_keys,
    floored_cumsum,
    group_bounds,
    latest_prior,
    previous_in_key,
    sort_order,
)
from repro.trace.schema import known_etypes
from repro.trace.trace import Trace

__all__ = ["validate_trace", "trace_problems"]

_NAMES = {int(e): e.name for e in EventType}

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)
_ARRIVE = int(EventType.BARRIER_ARRIVE)
_DEPART = int(EventType.BARRIER_DEPART)
_BLOCK = int(EventType.COND_BLOCK)
_WAKE = int(EventType.COND_WAKE)
_CREATE = int(EventType.THREAD_CREATE)
_START = int(EventType.THREAD_START)
_EXIT = int(EventType.THREAD_EXIT)
_JOIN_BEGIN = int(EventType.JOIN_BEGIN)
_JOIN_END = int(EventType.JOIN_END)

#: A problem tied to one record: (trace position, check rank, message).
_Found = list[tuple[int, int, str]]


def validate_trace(trace: Trace) -> None:
    """Raise :class:`TraceValidationError` if the trace is malformed."""
    problems = trace_problems(trace)
    if problems:
        raise TraceValidationError(problems)


def trace_problems(trace: Trace) -> list[str]:
    """Return a list of human-readable structural problems (empty if OK).

    Records whose event type is outside :class:`EventType` are reported
    first and then left out of every other check: no rule can interpret
    them.
    """
    rec = trace.records
    known = known_etypes(rec)
    problems: list[str] = []
    if not known.all():
        bad = rec[~known]
        problems += [
            f"seq {s}: unknown event type {e}"
            for s, e in zip(bad["seq"].tolist(), bad["etype"].tolist())
        ]
        rec = rec[known]
    cols = _Columns(rec, trace)
    problems += _check_thread_lifecycles(cols)
    problems += _check_lock_protocol(cols)
    problems += _check_barriers(cols)
    problems += _check_condition_variables(cols)
    problems += _check_joins(cols)
    return problems


class _Columns:
    """Contiguous copies of the record fields every check reads."""

    def __init__(self, rec: np.ndarray, trace: Trace):
        self.trace = trace
        self.seq = np.ascontiguousarray(rec["seq"])
        self.tid = np.ascontiguousarray(rec["tid"])
        self.etype = np.ascontiguousarray(rec["etype"])
        self.obj = np.ascontiguousarray(rec["obj"])
        self.arg = np.ascontiguousarray(rec["arg"])

    def rows(self, *etypes: int) -> np.ndarray:
        """Trace positions of the records of the given event types."""
        return np.flatnonzero(np.isin(self.etype, etypes))

    def name(self, p: int) -> str:
        """Display name of the object record ``p`` refers to."""
        return self.trace.object_name(int(self.obj[p]))


def _ordered(found: _Found) -> list[str]:
    return [msg for _pos, _rank, msg in sorted(found)]


def _floored_walk(
    key: np.ndarray, step: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-key counters of ±1 steps that stay at 0 instead of going negative.

    ``key`` (integers) and ``step`` are parallel, in trace order;
    ``order`` is ``sort_order(key)`` when the caller already has it.
    Returns ``(before, first, final)``: the counter value just before
    each row, and per distinct key the input index of its first row and
    the counter's value after its last row.
    """
    n = len(key)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if order is None:
        order = sort_order(key)
    starts, _ = group_bounds(key[order])
    sizes = np.diff(np.append(starts, n))
    after = floored_cumsum(step[order], starts)
    before_sorted = np.empty_like(after)
    before_sorted[0] = 0
    before_sorted[1:] = after[:-1]
    before_sorted[starts] = 0
    before = np.empty_like(before_sorted)
    before[order] = before_sorted
    return before, order[starts], after[starts + sizes - 1]


def _restrict(order: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``sort_order(key[mask])`` computed from ``order = sort_order(key)``:
    a stable order filtered to a subset is the subset's stable order."""
    rank = np.cumsum(mask)
    rank -= 1
    return rank[order[mask[order]]]


def _check_thread_lifecycles(c: _Columns) -> list[str]:
    problems: list[str] = []
    order = sort_order(c.tid)
    starts, tids = group_bounds(c.tid[order])
    if len(order):
        ends = np.append(starts[1:], len(order))
        et_sorted = c.etype[order]
        first = et_sorted[starts]
        last = et_sorted[ends - 1]
        n_start = np.add.reduceat((et_sorted == _START).astype(np.int64), starts)
        n_exit = np.add.reduceat((et_sorted == _EXIT).astype(np.int64), starts)
        bad = (first != _START) | (last != _EXIT) | (n_start != 1) | (n_exit != 1)
        for i in np.flatnonzero(bad).tolist():
            tid = int(tids[i])
            if first[i] != _START:
                problems.append(
                    f"T{tid}: first event is {_NAMES[int(first[i])]}, expected THREAD_START"
                )
            if last[i] != _EXIT:
                problems.append(
                    f"T{tid}: last event is {_NAMES[int(last[i])]}, expected THREAD_EXIT"
                )
            if n_start[i] != 1:
                problems.append(f"T{tid}: {n_start[i]} THREAD_START events, expected 1")
            if n_exit[i] != 1:
                problems.append(f"T{tid}: {n_exit[i]} THREAD_EXIT events, expected 1")
    children = np.unique(c.arg[c.etype == _CREATE])
    for child in children[~np.isin(children, tids)].tolist():
        problems.append(f"THREAD_CREATE names T{child} which emitted no events")
    return problems


def _check_lock_protocol(c: _Columns) -> list[str]:
    rows = c.rows(_ACQUIRE, _OBTAIN, _RELEASE)
    rows = rows[c.obj[rows] != NO_OBJECT]
    if len(rows) == 0:
        return []
    kind = _object_kinds(c.trace, c.obj[rows])
    lock_like = np.isin(kind, [k for k in ObjectKind if k.is_lock_like])
    found: _Found = [
        (p, 0, f"seq {c.seq[p]}: {_NAMES[int(c.etype[p])]} on non-lock object {c.name(p)}")
        for p in rows[~lock_like].tolist()
    ]
    rows, mutex = rows[lock_like], kind[lock_like] == ObjectKind.MUTEX
    et = c.etype[rows]
    key = dense_keys(c.obj[rows], c.tid[rows])
    counted, exits = _pending_and_held(c, rows, et, key)
    found += counted
    found += _mutex_owners(c, rows, key, mutex & (et == _OBTAIN), mutex & (et == _RELEASE))
    return _ordered(found) + exits


def _object_kinds(trace: Trace, obj: np.ndarray) -> np.ndarray:
    """ObjectKind per row; objects the trace does not declare count as mutexes."""
    kind = np.full(len(obj), ObjectKind.MUTEX, dtype=np.int8)
    declared: dict[int, list[int]] = {}
    for o, info in trace.objects.items():
        if info.kind != ObjectKind.MUTEX:
            declared.setdefault(int(info.kind), []).append(o)
    for k, objs in declared.items():
        kind[np.isin(obj, objs)] = k
    return kind


def _pending_and_held(
    c: _Columns, rows: np.ndarray, et: np.ndarray, key: np.ndarray
) -> tuple[_Found, list[str]]:
    """Problems of the per-(object, thread) pending-ACQUIRE and held-level
    counters: per-record ones, and the exit-time ones in report order."""
    order = sort_order(key)
    found: _Found = []

    # Pending ACQUIREs per (object, thread): ACQUIRE +1, OBTAIN -1.
    pm = et != _RELEASE
    p_rows, p_et = rows[pm], et[pm]
    pending, p_first, p_final = _floored_walk(
        key[pm], np.where(p_et == _ACQUIRE, 1, -1), _restrict(order, pm)
    )
    for p in p_rows[(p_et == _ACQUIRE) & (pending > 0)].tolist():
        found.append((p, 1, f"seq {c.seq[p]}: T{c.tid[p]} double-ACQUIRE on {c.name(p)}"))
    for p in p_rows[(p_et == _OBTAIN) & (pending == 0)].tolist():
        found.append(
            (p, 2, f"seq {c.seq[p]}: T{c.tid[p]} OBTAIN without ACQUIRE on {c.name(p)}")
        )
    pending_left = _touched(p_rows[p_first], p_final)
    # Release the first walk's arrays before the second one runs: this
    # check sets validation's peak memory.
    del pending, p_rows, p_et, pm

    # Held levels per (object, thread): OBTAIN +1, RELEASE -1.
    hm = et != _ACQUIRE
    h_rows, h_et = rows[hm], et[hm]
    held, h_first, h_final = _floored_walk(
        key[hm], np.where(h_et == _OBTAIN, 1, -1), _restrict(order, hm)
    )
    for p in h_rows[(h_et == _RELEASE) & (held == 0)].tolist():
        found.append(
            (p, 4, f"seq {c.seq[p]}: T{c.tid[p]} RELEASE without OBTAIN on {c.name(p)}")
        )

    exits = [
        f"T{c.tid[p]} exited holding {c.name(p)} ({n} levels)"
        for p, n in _touched(h_rows[h_first], h_final)
    ]
    exits += [
        f"T{c.tid[p]} exited with pending ACQUIRE on {c.name(p)}" for p, _n in pending_left
    ]
    return found, exits


def _mutex_owners(
    c: _Columns, rows: np.ndarray, key: np.ndarray, obtain: np.ndarray, release: np.ndarray
) -> _Found:
    """Mutex exclusivity: an OBTAIN finds the mutex owned when the latest
    earlier OBTAIN's thread has not RELEASEd it since."""
    ob = np.flatnonzero(obtain)
    prev = previous_in_key(ob, c.obj[rows[ob]])
    has = prev >= 0
    q, owner = ob[has], ob[prev[has]]
    # The owner's (object, thread) key is the key of its OBTAIN row.
    rl = np.flatnonzero(release)
    cleared = latest_prior(rl, key[rl], q, key[owner]) > owner
    q, owner = rows[q[~cleared]], rows[owner[~cleared]]
    return [
        (p, 3, f"seq {c.seq[p]}: T{c.tid[p]} OBTAIN on {c.name(p)} while held by T{t}")
        for p, t in zip(q.tolist(), c.tid[owner].tolist())
    ]


def _touched(first_rows: np.ndarray, final: np.ndarray) -> list[tuple[int, int]]:
    """(first row, final count) of the keys left non-zero, in first-touch order."""
    left = final > 0
    order = np.argsort(first_rows[left], kind="stable")
    return list(zip(first_rows[left][order].tolist(), final[left][order].tolist()))


def _check_barriers(c: _Columns) -> list[str]:
    rows = c.rows(_ARRIVE, _DEPART)
    if len(rows) == 0:
        return []
    obj, gen, tid = c.obj[rows], c.arg[rows], c.tid[rows]
    order = sort_order(dense_keys(obj, gen, tid))
    obj, gen, tid = obj[order], gen[order], tid[order]
    arrive = c.etype[rows][order] == _ARRIVE
    # Per (barrier, generation, thread): arrivals minus departures.
    new_cohort = np.ones(len(rows), dtype=bool)
    new_cohort[1:] = (obj[1:] != obj[:-1]) | (gen[1:] != gen[:-1])
    new_member = new_cohort.copy()
    new_member[1:] |= tid[1:] != tid[:-1]
    member_starts = np.flatnonzero(new_member)
    net = np.add.reduceat(np.where(arrive, 1, -1), member_starts)
    cohort = np.cumsum(new_cohort) - 1
    bad_cohorts = np.unique(cohort[member_starts[net != 0]])
    cohort_starts = np.append(np.flatnonzero(new_cohort), len(rows))
    problems = []
    for k in bad_cohorts.tolist():
        lo, hi = cohort_starts[k], cohort_starts[k + 1]
        members, arrived = tid[lo:hi], arrive[lo:hi]
        problems.append(
            f"barrier {c.trace.object_name(int(obj[lo]))} generation {gen[lo]}: "
            f"arrivals {members[arrived].tolist()} != departures {members[~arrived].tolist()}"
        )
    return problems


def _check_condition_variables(c: _Columns) -> list[str]:
    rows = c.rows(_BLOCK, _WAKE)
    if len(rows) == 0:
        return []
    wake = c.etype[rows] == _WAKE
    blocked, first, final = _floored_walk(
        dense_keys(c.obj[rows], c.tid[rows]), np.where(wake, -1, 1)
    )
    found: _Found = [
        (p, 0, f"seq {c.seq[p]}: T{c.tid[p]} COND_WAKE without COND_BLOCK on {c.name(p)}")
        for p in rows[wake & (blocked == 0)].tolist()
    ]
    wakes = rows[wake]
    stranger = ~np.isin(c.arg[wakes], np.unique(c.tid))
    found += [
        (p, 1, f"seq {c.seq[p]}: COND_WAKE names unknown signaller T{c.arg[p]}")
        for p in wakes[stranger].tolist()
    ]
    problems = _ordered(found)
    for p, _n in _touched(rows[first], final):
        problems.append(f"T{c.tid[p]} exited still blocked on condition {c.name(p)}")
    return problems


def _check_joins(c: _Columns) -> list[str]:
    rows = c.rows(_JOIN_BEGIN, _JOIN_END)
    if len(rows) == 0:
        return []
    end = c.etype[rows] == _JOIN_END
    begun, _first, _final = _floored_walk(
        dense_keys(c.tid[rows], c.arg[rows]), np.where(end, -1, 1)
    )
    found: _Found = [
        (p, 0, f"seq {c.seq[p]}: T{c.tid[p]} JOIN_END without JOIN_BEGIN on T{c.arg[p]}")
        for p in rows[end & (begun == 0)].tolist()
    ]
    # Each thread's *last* THREAD_EXIT is the one a join is checked against.
    exits = np.flatnonzero(c.etype == _EXIT)
    exits = exits[sort_order(c.tid[exits])]
    starts, ex_tid = group_bounds(c.tid[exits])
    ends = rows[end]
    target = c.arg[ends]
    if len(exits):
        ex_seq = c.seq[exits[np.append(starts[1:], len(exits)) - 1]]
        at = np.searchsorted(ex_tid, target).clip(max=len(ex_tid) - 1)
        exited = ex_tid[at] == target
    else:
        ex_seq, at = c.seq[:0], np.zeros(len(ends), dtype=np.int64)
        exited = np.zeros(len(ends), dtype=bool)
    for p in ends[~exited].tolist():
        found.append((p, 1, f"seq {c.seq[p]}: T{c.tid[p]} joined T{c.arg[p]} which never exited"))
    early = exited.copy()
    early[exited] = ex_seq[at[exited]] > c.seq[ends[exited]]
    for p in ends[early].tolist():
        found.append(
            (p, 1, f"seq {c.seq[p]}: T{c.tid[p]} JOIN_END precedes T{c.arg[p]} THREAD_EXIT")
        )
    return _ordered(found)
