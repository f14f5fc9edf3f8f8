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
never drop below zero, i.e. floored segmented cumsums
(:func:`~repro.trace.ops.floored_cumsum`).  The lock counters and the
thread order come from the trace's shared :class:`~repro.trace.index.
TraceIndex`, which the analysis stages read too; :func:`_floored_walk`
computes the condition-variable and join counters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceValidationError
from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.index import TraceIndex
from repro.trace.ops import dense_keys, floored_cumsum, group_bounds, sort_order
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
    if known.all():
        index = trace.index
    else:
        bad = rec[~known]
        problems += [
            f"seq {s}: unknown event type {e}"
            for s, e in zip(bad["seq"].tolist(), bad["etype"].tolist())
        ]
        rec = rec[known]
        index = TraceIndex(rec)
    cols = _Columns(rec, index, trace)
    problems += _check_thread_lifecycles(cols)
    problems += _check_lock_protocol(cols)
    problems += _check_barriers(cols)
    problems += _check_condition_variables(cols)
    problems += _check_joins(cols)
    return problems


class _Columns:
    """The record fields and the index every check reads."""

    def __init__(self, rec: np.ndarray, index: TraceIndex, trace: Trace):
        self.trace = trace
        self.index = index
        self.seq = rec["seq"]
        self.arg = rec["arg"]
        self.tid = index.tid
        self.etype = index.etype
        self.obj = index.obj

    def rows(self, *etypes: int) -> np.ndarray:
        """Trace positions of the records of the given event types."""
        return np.flatnonzero(np.isin(self.etype, etypes))

    def name(self, p: int) -> str:
        """Display name of the object record ``p`` refers to."""
        return self.trace.object_name(int(self.obj[p]))


def _ordered(found: _Found) -> list[str]:
    return [msg for _pos, _rank, msg in sorted(found)]


def _floored_walk(
    key: np.ndarray, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-key counters of ±1 steps that stay at 0 instead of going negative.

    ``key`` (integers) and ``step`` are parallel, in trace order.
    Returns ``(before, first, final)``: the counter value just before
    each row, and per distinct key the input index of its first row and
    the counter's value after its last row.
    """
    n = len(key)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
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


def _check_thread_lifecycles(c: _Columns) -> list[str]:
    problems: list[str] = []
    order, starts, tids = c.index.thread_order, c.index.thread_starts, c.index.tids
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
    # A handful of values: a set, not np.unique, whose hashing path
    # imports numpy.ma (~10 ms of every cold start).
    children = set(c.arg[c.etype == _CREATE].tolist())
    for child in sorted(children.difference(tids.tolist())):
        problems.append(f"THREAD_CREATE names T{child} which emitted no events")
    return problems


def _check_lock_protocol(c: _Columns) -> list[str]:
    ix = c.index
    if len(ix.lock_rows) == 0:
        return []
    # Every (tid, obj) group is one object's rows: keep or drop it whole.
    starts, ends = ix.lock_starts, ix.lock_ends
    gobj = ix.obj[ix.lock_rows[starts]]
    kind = _object_kinds(c.trace, gobj)
    lock_like = np.isin(kind, [k for k in ObjectKind if k.is_lock_like])
    real = gobj != NO_OBJECT
    found: _Found = [
        (p, 0, f"seq {c.seq[p]}: {_NAMES[int(c.etype[p])]} on non-lock object {c.name(p)}")
        for g in np.flatnonzero(real & ~lock_like).tolist()
        for p in ix.lock_rows[starts[g]:ends[g]].tolist()
    ]
    keep = real & lock_like
    counted, exits = _pending_and_held(c, keep)
    found += counted
    found += _mutex_owners(c, gobj[keep & (kind == ObjectKind.MUTEX)])
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


def _pending_and_held(c: _Columns, keep: np.ndarray) -> tuple[_Found, list[str]]:
    """Problems of the index's per-(thread, object) pending-ACQUIRE and
    held-level counters for the ``keep`` groups: per-record ones, and
    the exit-time ones in report order."""
    ix = c.index
    et = ix.lock_etype
    kept = None if keep.all() else keep[ix.lock_groups()]
    found: _Found = []

    def rows(mask: np.ndarray) -> list[int]:
        if kept is not None:
            mask &= kept
        return ix.lock_rows[mask].tolist()

    pending = ix.before(ix.pending)
    for p in rows((et == _ACQUIRE) & (pending > 0)):
        found.append((p, 1, f"seq {c.seq[p]}: T{c.tid[p]} double-ACQUIRE on {c.name(p)}"))
    for p in rows((et == _OBTAIN) & (pending == 0)):
        found.append(
            (p, 2, f"seq {c.seq[p]}: T{c.tid[p]} OBTAIN without ACQUIRE on {c.name(p)}")
        )
    del pending
    for p in rows((et == _RELEASE) & (ix.before(ix.held) == 0)):
        found.append(
            (p, 4, f"seq {c.seq[p]}: T{c.tid[p]} RELEASE without OBTAIN on {c.name(p)}")
        )

    exits = [
        f"T{c.tid[p]} exited holding {c.name(p)} ({n} levels)"
        for p, n in _left_at_exit(ix, keep, ix.held, _ACQUIRE)
    ]
    exits += [
        f"T{c.tid[p]} exited with pending ACQUIRE on {c.name(p)}"
        for p, _n in _left_at_exit(ix, keep, ix.pending, _RELEASE)
    ]
    return found, exits


def _left_at_exit(
    ix: TraceIndex, keep: np.ndarray, after: np.ndarray, ignored: int
) -> list[tuple[int, int]]:
    """(first row, final count) of the kept groups whose counter ends
    non-zero, in the order their counter was first touched: the group's
    first row of an etype other than ``ignored`` (that etype's step is 0)."""
    ends = ix.lock_ends
    final = after[ends - 1]
    left = np.flatnonzero(keep & (final > 0))
    first = []
    for g in left.tolist():
        lo = ix.lock_starts[g]
        touched = np.flatnonzero(ix.lock_etype[lo:ends[g]] != ignored)
        first.append(int(ix.lock_rows[lo + touched[0]]))
    return sorted(zip(first, final[left].tolist()))


def _mutex_owners(c: _Columns, mutexes: np.ndarray) -> _Found:
    """Mutex exclusivity: an OBTAIN finds the mutex owned when the latest
    earlier OBTAIN's thread has not RELEASEd it since."""
    ix = c.index
    by_obj = ix.obj_rows
    ob = by_obj[ix.etype[by_obj] == _OBTAIN]
    obj = ix.obj[ob]
    pair = (obj[1:] == obj[:-1]) & np.isin(obj[1:], mutexes)
    q, owner = ob[1:][pair], ob[:-1][pair]
    # The owner let go iff its (tid, obj) group's next RELEASE after it
    # comes before the query.
    held = _next_release(ix)[owner] > q
    q, owner = q[held], owner[held]
    return [
        (p, 3, f"seq {c.seq[p]}: T{c.tid[p]} OBTAIN on {c.name(p)} while held by T{t}")
        for p, t in zip(q.tolist(), c.tid[owner].tolist())
    ]


def _next_release(ix: TraceIndex) -> np.ndarray:
    """Per trace position of an OBTAIN, the position of the next RELEASE
    in its (tid, obj) group; the trace length elsewhere."""
    et = ix.lock_etype
    n_lock = len(et)
    nxt = np.where(et == _RELEASE, np.arange(n_lock, dtype=ix.lock_rows.dtype), n_lock)
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    ob = np.flatnonzero(et == _OBTAIN)
    nxt = nxt[ob]
    same = nxt < ix.lock_ends[ix.lock_groups()[ob]]
    out = np.full(len(ix.etype), len(ix.etype), dtype=ix.lock_rows.dtype)
    out[ix.lock_rows[ob[same]]] = ix.lock_rows[nxt[same]]
    return out


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
    bad_cohorts = sorted(set(cohort[member_starts[net != 0]].tolist()))
    cohort_starts = np.append(np.flatnonzero(new_cohort), len(rows))
    problems = []
    for k in bad_cohorts:
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
    stranger = ~np.isin(c.arg[wakes], c.index.tids)
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
