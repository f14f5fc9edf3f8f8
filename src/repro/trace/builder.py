"""Hand-construction DSL for traces.

Tests, documentation and the paper's illustrative figures (Fig. 1, Fig. 7)
need small, exactly-specified traces.  :class:`TraceBuilder` lets them be
written declaratively::

    b = TraceBuilder()
    L1 = b.mutex("L1")
    t1 = b.thread("T1")
    t1.start(at=0.0)
    t1.critical_section(L1, acquire=1.0, obtain=2.0, release=5.0)
    t1.exit(at=6.0)
    trace = b.build()

Events are ordered by (time, insertion order), so writing each thread's
program in order produces a deterministic, valid trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.validate import validate_trace

__all__ = ["TraceBuilder", "ThreadScript"]


@dataclass
class ThreadScript:
    """Event recorder for one thread inside a :class:`TraceBuilder`."""

    builder: "TraceBuilder"
    tid: int
    name: str

    def _emit(self, time: float, etype: EventType, obj: int = NO_OBJECT, arg: int = 0) -> None:
        self.builder._emit(time, self.tid, etype, obj, arg)

    # -- lifecycle ---------------------------------------------------------

    def start(self, at: float) -> "ThreadScript":
        self._emit(at, EventType.THREAD_START)
        return self

    def exit(self, at: float) -> "ThreadScript":
        self._emit(at, EventType.THREAD_EXIT)
        return self

    def create(self, child: "ThreadScript", at: float) -> "ThreadScript":
        self._emit(at, EventType.THREAD_CREATE, arg=child.tid)
        return self

    def join(self, target: "ThreadScript", begin: float, end: float) -> "ThreadScript":
        self._emit(begin, EventType.JOIN_BEGIN, arg=target.tid)
        self._emit(end, EventType.JOIN_END, arg=target.tid)
        return self

    # -- locks ---------------------------------------------------------------

    def acquire(self, obj: int, at: float, obtain: float | None = None) -> "ThreadScript":
        """ACQUIRE at ``at`` and OBTAIN at ``obtain`` (contended iff later)."""
        obtain_time = at if obtain is None else obtain
        contended = 1 if obtain_time > at else 0
        self._emit(at, EventType.ACQUIRE, obj=obj)
        self._emit(obtain_time, EventType.OBTAIN, obj=obj, arg=contended)
        return self

    def release(self, obj: int, at: float) -> "ThreadScript":
        self._emit(at, EventType.RELEASE, obj=obj)
        return self

    def critical_section(
        self, obj: int, acquire: float, obtain: float, release: float
    ) -> "ThreadScript":
        """Shorthand for acquire/obtain/release of one critical section."""
        self.acquire(obj, at=acquire, obtain=obtain)
        self.release(obj, at=release)
        return self

    # -- barriers ------------------------------------------------------------

    def barrier(self, obj: int, arrive: float, depart: float, gen: int = 0) -> "ThreadScript":
        self._emit(arrive, EventType.BARRIER_ARRIVE, obj=obj, arg=gen)
        self._emit(depart, EventType.BARRIER_DEPART, obj=obj, arg=gen)
        return self

    # -- condition variables ---------------------------------------------------

    def cond_block(self, obj: int, at: float) -> "ThreadScript":
        self._emit(at, EventType.COND_BLOCK, obj=obj)
        return self

    def cond_wake(self, obj: int, at: float, by: "ThreadScript") -> "ThreadScript":
        self._emit(at, EventType.COND_WAKE, obj=obj, arg=by.tid)
        return self

    def cond_signal(self, obj: int, at: float, woken: int = 1) -> "ThreadScript":
        self._emit(at, EventType.COND_SIGNAL, obj=obj, arg=woken)
        return self

    def cond_broadcast(self, obj: int, at: float, woken: int = 0) -> "ThreadScript":
        self._emit(at, EventType.COND_BROADCAST, obj=obj, arg=woken)
        return self


@dataclass
class TraceBuilder:
    """Declarative builder producing validated :class:`Trace` objects."""

    meta: dict[str, Any] = field(default_factory=dict)
    _rows: list[tuple] = field(default_factory=list)
    _objects: dict[int, ObjectInfo] = field(default_factory=dict)
    _threads: dict[int, str] = field(default_factory=dict)
    _next_obj: int = 0
    _next_tid: int = 0

    # -- declarations -------------------------------------------------------

    def _new_object(self, kind: ObjectKind, name: str) -> int:
        obj = self._next_obj
        self._next_obj += 1
        self._objects[obj] = ObjectInfo(obj=obj, kind=kind, name=name)
        return obj

    def mutex(self, name: str = "") -> int:
        return self._new_object(ObjectKind.MUTEX, name)

    def barrier_obj(self, name: str = "") -> int:
        return self._new_object(ObjectKind.BARRIER, name)

    def condition(self, name: str = "") -> int:
        return self._new_object(ObjectKind.CONDITION, name)

    def semaphore(self, name: str = "") -> int:
        return self._new_object(ObjectKind.SEMAPHORE, name)

    def thread(self, name: str = "") -> ThreadScript:
        tid = self._next_tid
        self._next_tid += 1
        self._threads[tid] = name or f"T{tid}"
        return ThreadScript(builder=self, tid=tid, name=self._threads[tid])

    # -- emission ------------------------------------------------------------

    def _emit(self, time: float, tid: int, etype: EventType, obj: int, arg: int) -> None:
        self._rows.append((len(self._rows), float(time), tid, etype, obj, arg))

    # -- finalization -----------------------------------------------------------

    def build(self, validate: bool = True) -> Trace:
        """Sort, renumber and (by default) validate the assembled trace."""
        trace = Trace.from_events(
            self._rows, objects=self._objects, threads=self._threads, meta=self.meta
        )
        if validate:
            validate_trace(trace)
        return trace
