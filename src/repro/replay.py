"""Trace-driven replay: reconstruct and re-run a traced execution.

The what-if engine (:mod:`repro.core.whatif`) predicts speedups on the
event DAG with the observed lock-acquisition order frozen.  Replay goes
further: it rebuilds each thread's *program* (compute blocks between
synchronization operations) from the trace and re-executes it on the
simulator, letting contention re-resolve — so "shrink this lock's
critical sections by 2x" produces ground truth including handoff-order
changes, not an estimate.

Reconstruction rules (per thread, events in order):

* the gap before a non-wake event is a compute block (gaps that end a
  blocked interval — contended OBTAIN, BARRIER_DEPART, COND_WAKE,
  JOIN_END — are waiting and are *not* replayed as compute);
* ACQUIRE/RELEASE map back to the primitive operations (mutex, semaphore
  or rwlock by object kind; rwlock mode from the event ``arg``);
* COND_BLOCK maps to ``cond_wait`` (the mutex is identified from the
  atomically-following RELEASE) and the instrumentation's reacquire
  events are consumed;
* THREAD_CREATE/JOIN_BEGIN map to spawn/join with remapped handles.

Supported modification: scaling the execution time spent while holding a
chosen lock (``shrink_lock``/``factor``), the paper's optimization move.

Core limits: a trace recorded with ``cores=N`` has its ready-queue waits
folded into its compute gaps (:mod:`repro.sim.engine`), so the gaps
already are the time each thread took with the cores it got.  Such a
trace replays faithfully with no core limit; replaying it under a core
limit again would queue for cores twice and is refused.

Limitations: barrier party counts must be constant across generations;
condition-variable programs replay correctly only when the rebuilt
timing preserves signal/wait pairing (true for deterministic traces from
this simulator; hand-edited traces may deadlock in replay); and
simultaneous acquisitions whose original order was decided by
zero-duration scheduling (not by timestamps) may re-resolve their race,
since zero-length compute steps leave no trace events to replay.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.columnar.timelines import build_timelines_columnar
from repro.core.columnar.wakers import resolve_wakers_columnar
from repro.errors import AnalysisError
from repro.sim.program import Program
from repro.trace.events import EventType, ObjectKind
from repro.trace.ops import dense_keys, group_bounds, segmented_cumsum
from repro.trace.trace import Trace

__all__ = ["ReplayProgram", "reconstruct"]

# Ops the reconstructor emits: (verb, payload...)
_COMPUTE = "compute"
_ACQUIRE = "acquire"
_RELEASE = "release"
_BARRIER = "barrier"
_COND_WAIT = "cond_wait"
_COND_SIGNAL = "cond_signal"
_COND_BROADCAST = "cond_broadcast"
_SPAWN = "spawn"
_JOIN = "join"


@dataclass
class _ThreadScript:
    tid: int
    name: str
    ops: list[tuple] = field(default_factory=list)
    root: bool = True


@dataclass
class ReplayProgram:
    """A reconstructed program, ready to run (possibly modified)."""

    trace: Trace
    scripts: dict[int, _ThreadScript]

    def build(
        self,
        shrink_lock: int | str | None = None,
        factor: float = 1.0,
        cores: int | None = None,
        seed: int = 0,
        protocol: Any = None,
        priorities: dict[int | str, int] | None = None,
        preserve_name: bool = False,
    ) -> Program:
        """Materialize a :class:`Program` from the scripts.

        ``shrink_lock``/``factor`` scale compute blocks executed while
        holding the given lock (0 removes them, 0.5 halves them).

        ``cores`` limits the replay to that many cores; it is refused on
        a trace that was itself recorded under a core limit (see the
        module docstring).

        ``protocol`` re-runs the reconstruction under an alternative lock
        protocol (a name or an instance; ``protocol="recorded"`` builds
        the identity protocol from this trace, pinning grants to the
        recorded order).  ``priorities`` maps original tids or thread
        names to priorities for the ``priority`` protocol.
        ``preserve_name`` keeps the original trace name instead of the
        ``replay:`` prefix, so identity replays render byte-identical
        reports.
        """
        if factor < 0:
            raise AnalysisError(f"factor must be >= 0, got {factor}")
        _check_spawns(self.scripts)
        _check_objects(self.trace, self.scripts)
        recorded_cores = self.trace.meta.get("cores")
        if cores is not None and recorded_cores is not None:
            raise AnalysisError(
                f"trace was recorded on {recorded_cores} core(s): its compute "
                "gaps already include the core waits, so it replays only with "
                f"no core limit (got cores={cores})"
            )
        shrink_obj = None
        if shrink_lock is not None:
            from repro.core.whatif import resolve_lock

            shrink_obj = resolve_lock(self.trace, shrink_lock)

        recorded = isinstance(protocol, str) and protocol == "recorded"
        orig_name = self.trace.meta.get("name", "")
        prog = Program(
            cores=cores,
            seed=seed,
            name=orig_name if preserve_name else f"replay:{orig_name}",
            protocol=None if recorded else protocol,
        )
        objects: dict[int, Any] = {}
        cohorts = _barrier_cohorts(self.trace)
        sem_values = _initial_sem_values(self.trace)
        for obj, info in self.trace.objects.items():
            if info.kind == ObjectKind.MUTEX:
                objects[obj] = prog.mutex(info.name)
            elif info.kind == ObjectKind.SEMAPHORE:
                objects[obj] = prog.semaphore(sem_values.get(obj, 0), info.name)
            elif info.kind == ObjectKind.RWLOCK:
                objects[obj] = prog.rwlock(info.name)
            elif info.kind == ObjectKind.CONDITION:
                objects[obj] = prog.condition(info.name)
            elif info.kind == ObjectKind.BARRIER:
                objects[obj] = prog.barrier(
                    _barrier_parties(self.trace, obj, cohorts), info.name
                )

        if recorded:
            from repro.sim.protocols import RecordedProtocol

            obj_map = {old: new.obj for old, new in objects.items()}
            prog.set_protocol(RecordedProtocol.from_trace(self.trace, obj_map))

        priorities = priorities or {}

        def prio_of(script: _ThreadScript) -> int:
            if script.tid in priorities:
                return priorities[script.tid]
            return priorities.get(script.name, 0)

        handles: dict[int, Any] = {}

        def body(env, script: _ThreadScript):
            env.replay_tid = script.tid  # lets the recorded protocol map grants
            held: set[int] = set()
            for op in script.ops:
                verb = op[0]
                if verb == _COMPUTE:
                    duration = op[1]
                    if shrink_obj is not None and shrink_obj in held:
                        duration *= factor
                    yield env.compute(duration)
                elif verb == _ACQUIRE:
                    obj, mode = op[1], op[2]
                    target = objects[obj]
                    kind = self.trace.objects[obj].kind
                    if kind == ObjectKind.MUTEX:
                        yield env.acquire(target)
                    elif kind == ObjectKind.SEMAPHORE:
                        yield env.sem_acquire(target)
                    else:  # rwlock
                        if mode:
                            yield env.rw_acquire_write(target)
                        else:
                            yield env.rw_acquire_read(target)
                    held.add(obj)
                elif verb == _RELEASE:
                    obj, mode = op[1], op[2]
                    target = objects[obj]
                    kind = self.trace.objects[obj].kind
                    if kind == ObjectKind.MUTEX:
                        yield env.release(target)
                    elif kind == ObjectKind.SEMAPHORE:
                        yield env.sem_release(target)
                    else:
                        if mode:
                            yield env.rw_release_write(target)
                        else:
                            yield env.rw_release_read(target)
                    held.discard(obj)
                elif verb == _BARRIER:
                    yield env.barrier_wait(objects[op[1]])
                elif verb == _COND_WAIT:
                    cv, mutex = op[1], op[2]
                    held.discard(mutex)
                    yield env.cond_wait(objects[cv], objects[mutex])
                    held.add(mutex)
                elif verb == _COND_SIGNAL:
                    yield env.cond_signal(objects[op[1]])
                elif verb == _COND_BROADCAST:
                    yield env.cond_broadcast(objects[op[1]])
                elif verb == _SPAWN:
                    child_tid = op[1]
                    child = self.scripts[child_tid]
                    handle = yield env.spawn(
                        body, child, name=child.name, priority=prio_of(child)
                    )
                    handles[child_tid] = handle
                elif verb == _JOIN:
                    handle = handles.get(op[1])
                    if handle is None:
                        raise AnalysisError(
                            f"thread {script.tid} joins thread {op[1]} before "
                            "its creator has spawned it in the replay"
                        )
                    yield env.join(handle)

        for tid, script in sorted(self.scripts.items()):
            if script.root:
                prog.spawn(body, script, name=script.name, priority=prio_of(script))
        return prog

    def run(self, **kwargs) -> "Any":
        """Shortcut: build and execute."""
        return self.build(**kwargs).run()


def reconstruct(trace: Trace) -> ReplayProgram:
    """Rebuild per-thread scripts from a trace (see module docstring).

    Reads the trace's columns: each thread's rows come from the trace
    index's thread order, the blocked-wait ends from the columnar
    timelines and the thread creators from the columnar wakers.
    """
    wakers = resolve_wakers_columnar(trace)
    timelines = build_timelines_columnar(trace, wakers)
    wake_seqs = set(timelines.w_wake_seq.tolist())
    ix = trace.index
    rows = trace.records[ix.thread_order].tolist()
    bounds = np.append(ix.thread_starts, len(rows)).tolist()
    scripts: dict[int, _ThreadScript] = {}
    for tid, lo, hi in zip(ix.tids.tolist(), bounds[:-1], bounds[1:]):
        scripts[tid] = _reconstruct_thread(trace, tid, rows[lo:hi], wake_seqs)
    for child_tid in wakers.creations:
        if child_tid in scripts:
            scripts[child_tid].root = False
    return ReplayProgram(trace=trace, scripts=scripts)


#: Fields of a record row tuple (``EVENT_DTYPE`` order).
_TIME, _ETYPE, _OBJ = 1, 3, 4


def _reconstruct_thread(
    trace: Trace, tid: int, rows: list[tuple], wake_seqs: set[int]
) -> _ThreadScript:
    """One thread's script from its record rows, in trace order."""
    script = _ThreadScript(tid=tid, name=trace.thread_name(tid))
    ops = script.ops
    prev_time: float | None = None
    skip_reacquire_obj: int | None = None  # mutex reacquired inside cond_wait

    def emit_gap(time: float, is_wait_end: bool) -> None:
        nonlocal prev_time
        if prev_time is not None and not is_wait_end:
            gap = time - prev_time
            if gap > 0:
                ops.append((_COMPUTE, gap))
        prev_time = time

    i = 0
    while i < len(rows):
        seq, time, _, et, obj, arg = rows[i]
        if et == EventType.THREAD_START:
            prev_time = time
        elif et == EventType.ACQUIRE:
            if obj == skip_reacquire_obj:
                skip_reacquire_obj = None
                # Swallow the matching OBTAIN too.
                if i + 1 < len(rows) and rows[i + 1][_ETYPE] == EventType.OBTAIN:
                    i += 1
                    prev_time = rows[i][_TIME]
            else:
                emit_gap(time, is_wait_end=False)
                ops.append((_ACQUIRE, obj, arg))
        elif et == EventType.OBTAIN:
            # The wait (if any) is re-created by the simulator.
            prev_time = time
        elif et == EventType.RELEASE:
            # A RELEASE immediately after COND_BLOCK was synthetic (the
            # cond_wait releases internally) — detected below, so a plain
            # RELEASE here is a real one.
            emit_gap(time, is_wait_end=False)
            ops.append((_RELEASE, obj, arg))
        elif et == EventType.BARRIER_ARRIVE:
            emit_gap(time, is_wait_end=False)
            ops.append((_BARRIER, obj))
        elif et == EventType.BARRIER_DEPART:
            prev_time = time
        elif et == EventType.COND_BLOCK:
            emit_gap(time, is_wait_end=False)
            # The atomically-following RELEASE identifies the mutex.
            if i + 1 >= len(rows) or rows[i + 1][_ETYPE] != EventType.RELEASE:
                raise AnalysisError(
                    f"seq {seq}: COND_BLOCK not followed by the mutex RELEASE; "
                    "cannot reconstruct cond_wait"
                )
            mutex_obj = rows[i + 1][_OBJ]
            ops.append((_COND_WAIT, obj, mutex_obj))
            skip_reacquire_obj = mutex_obj
            i += 1  # consume the RELEASE
            prev_time = rows[i][_TIME]
        elif et == EventType.COND_WAKE:
            prev_time = time
        elif et == EventType.COND_SIGNAL:
            emit_gap(time, is_wait_end=False)
            ops.append((_COND_SIGNAL, obj))
        elif et == EventType.COND_BROADCAST:
            emit_gap(time, is_wait_end=False)
            ops.append((_COND_BROADCAST, obj))
        elif et == EventType.THREAD_CREATE:
            emit_gap(time, is_wait_end=False)
            ops.append((_SPAWN, arg))
        elif et == EventType.JOIN_BEGIN:
            emit_gap(time, is_wait_end=False)
            ops.append((_JOIN, arg))
        elif et == EventType.JOIN_END:
            prev_time = time
        elif et == EventType.THREAD_EXIT:
            emit_gap(time, is_wait_end=seq in wake_seqs)
        i += 1
    return script


def _check_spawns(scripts: dict[int, _ThreadScript]) -> None:
    """Refuse threads the replay cannot spawn or join: only a spawn op
    yields a joinable handle, so a joined tid needs exactly one creator
    and a created tid needs a script."""
    creator: dict[int, int] = {}
    joins = []
    for tid, script in sorted(scripts.items()):
        for op in script.ops:
            if op[0] == _JOIN:
                joins.append((tid, op[1]))
            elif op[0] == _SPAWN:
                child = op[1]
                if child not in scripts:
                    raise AnalysisError(
                        f"thread {tid} creates thread {child}, which has no events"
                    )
                if child in creator:
                    raise AnalysisError(
                        f"thread {child} is created twice "
                        f"(by threads {creator[child]} and {tid})"
                    )
                creator[child] = tid
    for tid, target in joins:
        if target not in creator:
            raise AnalysisError(f"thread {tid} joins thread {target}, which no thread creates")


_LOCK = ("lock", (ObjectKind.MUTEX, ObjectKind.SEMAPHORE, ObjectKind.RWLOCK))
_CONDITION = ("condition", (ObjectKind.CONDITION,))

#: Op verb -> (position in the op, what the object must be, the kinds
#: that qualify) for each object the op names.
_OP_OBJECTS = {
    _ACQUIRE: [(1, *_LOCK)],
    _RELEASE: [(1, *_LOCK)],
    _BARRIER: [(1, "barrier", (ObjectKind.BARRIER,))],
    _COND_WAIT: [(1, *_CONDITION), (2, "mutex", (ObjectKind.MUTEX,))],
    _COND_SIGNAL: [(1, *_CONDITION)],
    _COND_BROADCAST: [(1, *_CONDITION)],
}


def _check_objects(trace: Trace, scripts: dict[int, _ThreadScript]) -> None:
    """Refuse ops the replay cannot run: each object an op names must be
    in the trace's object table, with a kind the op works on."""
    for tid, script in sorted(scripts.items()):
        for op in script.ops:
            for i, what, kinds in _OP_OBJECTS.get(op[0], ()):
                info = trace.objects.get(op[i])
                if info is None or info.kind not in kinds:
                    found = (
                        "the trace declares no such object" if info is None
                        else f"it is a {info.kind.name.lower()}"
                    )
                    raise AnalysisError(
                        f"thread {tid}: {op[0]} on {trace.object_name(op[i])} "
                        f"needs a {what}, but {found}"
                    )


def _barrier_cohorts(trace: Trace) -> dict[int, list[int]]:
    """Barrier obj -> the distinct cohort sizes (BARRIER_ARRIVEs per
    generation) it saw, sorted; one pass over the records."""
    rec = trace.records
    arrive = rec["etype"] == int(EventType.BARRIER_ARRIVE)
    objs, gens = rec["obj"][arrive], rec["arg"][arrive]
    if len(objs) == 0:
        return {}
    _, first, counts = np.unique(
        dense_keys(objs, gens), return_index=True, return_counts=True
    )
    sizes: dict[int, set[int]] = defaultdict(set)
    for obj, size in zip(objs[first].tolist(), counts.tolist()):
        sizes[obj].add(size)
    return {obj: sorted(s) for obj, s in sizes.items()}


def _barrier_parties(trace: Trace, obj: int, cohorts: dict[int, list[int]]) -> int:
    """Cohort size of a barrier (must be constant across generations)."""
    sizes = cohorts.get(obj)
    if not sizes:
        return 1
    if len(sizes) > 1:
        raise AnalysisError(
            f"barrier {trace.object_name(obj)} has varying cohort sizes "
            f"{sizes}; replay is not supported"
        )
    return sizes[0]


def _initial_sem_values(trace: Trace) -> dict[int, int]:
    """Obj -> lower bound on its initial value as a semaphore: the deepest
    its OBTAIN -1 / RELEASE +1 running count goes below zero, in trace
    order; one pass over the records."""
    rec = trace.records
    step = np.zeros(len(rec), dtype=np.int64)
    step[rec["etype"] == int(EventType.OBTAIN)] = -1
    step[rec["etype"] == int(EventType.RELEASE)] = 1
    rows = np.flatnonzero(step)
    if len(rows) == 0:
        return {}
    rows = rows[np.argsort(rec["obj"][rows], kind="stable")]
    starts, objs = group_bounds(rec["obj"][rows])
    lows = np.minimum.reduceat(segmented_cumsum(step[rows], starts), starts)
    return {int(o): int(-min(low, 0)) for o, low in zip(objs, lows)}
