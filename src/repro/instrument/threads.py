"""Traced threads for real runs (``pthread_create``/``join``/``exit``)."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TraceError
from repro.trace.events import EventType

if TYPE_CHECKING:  # pragma: no cover
    from repro.instrument.session import ProfilingSession

__all__ = ["TracedThread"]

_real_thread_factory = threading.Thread  # bound pre-patching (see autopatch)


class TracedThread:
    """A ``threading.Thread`` wrapper emitting lifecycle events.

    The child's tid is allocated at construction so the parent's
    THREAD_CREATE can reference it; THREAD_START/THREAD_EXIT bracket the
    target inside the child.
    """

    def __init__(
        self,
        session: "ProfilingSession",
        target: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        name: str = "",
    ):
        self.session = session
        self.tid = session.allocate_tid(name)
        self.name = session._thread_names[self.tid]
        self._target = target
        self._args = args
        self._kwargs = kwargs or {}
        self._real = _real_thread_factory(target=self._bootstrap, name=self.name)
        self._started = False
        self.result: Any = None
        self.exception: BaseException | None = None

    def _bootstrap(self) -> None:
        s = self.session
        s.adopt_tid(self.tid)
        s.emit_here(EventType.THREAD_START)
        try:
            self.result = self._target(*self._args, **self._kwargs)
        except BaseException as exc:  # surfaced on join()
            self.exception = exc
        finally:
            s.emit_here(EventType.THREAD_EXIT)

    def start(self) -> None:
        """Start the thread, recording THREAD_CREATE in the parent."""
        if self._started:
            raise TraceError(f"thread {self.name} already started")
        self._started = True
        self.session.emit_here(EventType.THREAD_CREATE, arg=self.tid)
        self._real.start()

    def join(self, timeout: float | None = None) -> None:
        """Join, recording JOIN_BEGIN/JOIN_END; re-raises target exceptions.

        Joining a thread that has already exited cannot block, so its
        JOIN_END carries the JOIN_BEGIN time — the zero-length wait the
        analysis drops — like an uncontended lock's OBTAIN.  Otherwise
        the few microseconds of join bookkeeping would become a wait
        whose waker (the long-past THREAD_EXIT) sends the critical path
        back to before the joining thread's real waits.
        """
        s = self.session
        exited = not self._real.is_alive()
        t_begin = s.emit_here(EventType.JOIN_BEGIN, arg=self.tid)
        self._real.join(timeout)
        s.emit_here(EventType.JOIN_END, arg=self.tid, at_ns=t_begin if exited else None)
        if self.exception is not None:
            raise self.exception

    def is_alive(self) -> bool:
        return self._real.is_alive()
