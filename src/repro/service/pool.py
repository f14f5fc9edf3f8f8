"""Multiprocessing worker pool with a supervising collector thread.

Why not :class:`concurrent.futures.ProcessPoolExecutor`?  A worker that
dies mid-job (OOM-killed, segfault in a native extension, ``os._exit``)
breaks the whole executor — every pending future gets
``BrokenProcessPool`` and the pool is unusable.  An always-on analysis
server needs the opposite: the *job* fails, the *pool* survives.  This
pool owns its workers directly: a shared task queue fans jobs out, a
result queue carries ``claim``/``done``/``error`` messages back, and a
collector thread doubles as supervisor — it notices dead workers, fails
the job they had claimed, and respawns a replacement.

Events are delivered to a single ``on_event(event, job_id, payload)``
callback (from the collector thread):

``"start"``   a worker picked the job up (payload: worker pid)
``"done"``    finished; payload is the result dict
``"error"``   the job raised; payload is the error string
``"crashed"`` the worker died mid-job; payload is an explanation

With ``workers=0`` the pool degrades to synchronous in-process
execution — same callback contract, no processes — which is what the
API tests and tiny deployments use.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.errors import ServiceError
from repro.service.jobs import execute

__all__ = ["WorkerPool", "DEFAULT_START_METHOD"]

#: ``spawn`` everywhere: ``fork`` from a process that already runs the
#: collector + HTTP threads can clone held locks into the child.
DEFAULT_START_METHOD = "spawn"

#: Longest the collector blocks before re-checking the stop flag; results
#: and worker deaths wake it at once.
_POLL_INTERVAL = 0.02


def _worker_main(task_q, result_q) -> None:  # pragma: no cover — child process
    """Worker loop: claim, execute, report; ``None`` is the stop sentinel.

    ``result_q`` must be a ``SimpleQueue``: its ``put`` writes through to
    the pipe synchronously, so the parent is *guaranteed* to see the
    claim before the job runs — a regular ``Queue``'s feeder thread would
    silently drop it if the job hard-kills the process (``os._exit``,
    OOM), and the supervisor could never attribute the crash to the job.
    """
    pid = os.getpid()
    while True:
        item = task_q.get()
        if item is None:
            break
        job_id, kind, paths, params = item
        result_q.put(("claim", job_id, pid))
        try:
            result = execute(kind, paths, params)
        except BaseException as exc:  # noqa: BLE001 — job isolation boundary
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            result_q.put(("error", job_id, detail))
        else:
            result_q.put(("done", job_id, result))


class WorkerPool:
    """Fixed-size pool of analysis worker processes that survives crashes."""

    def __init__(
        self,
        workers: int = 2,
        on_event: Callable[[str, str, Any], None] | None = None,
        start_method: str = DEFAULT_START_METHOD,
        max_restarts: int = 64,
    ):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._on_event = on_event or (lambda event, job_id, payload: None)
        self._max_restarts = max_restarts
        self.restarts = 0
        self._pending = 0  # submitted, not yet done/error/crashed
        self._lock = threading.Lock()
        self._closed = False

        if workers == 0:  # inline mode
            self._ctx = None
            return

        self._ctx = mp.get_context(start_method)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.SimpleQueue()
        self._procs: list = [self._spawn() for _ in range(workers)]
        self._claims: dict[int, str] = {}  # worker pid -> in-flight job id
        self._stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True
        )
        self._collector.start()

    # -- public API ---------------------------------------------------------

    @property
    def inline(self) -> bool:
        return self._ctx is None

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        with self._lock:
            return self._pending

    def submit(self, job_id: str, kind: str, paths: list[str], params: dict) -> None:
        """Enqueue one job; completion arrives via the event callback."""
        if self._closed:
            raise ServiceError("worker pool is closed", status=503)
        with self._lock:
            self._pending += 1
        if self.inline:
            self._run_inline(job_id, kind, paths, params)
            return
        self._tasks.put((job_id, kind, list(paths), dict(params)))

    def close(self, timeout: float = 5.0) -> None:
        """Stop workers and the collector; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.inline:
            return
        for _ in self._procs:
            self._tasks.put(None)
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._stop.set()
        self._collector.join(timeout=timeout)
        # Cancel the task queue's feeder thread so shutdown never blocks;
        # the result SimpleQueue has no feeder, a plain close suffices.
        self._tasks.cancel_join_thread()
        self._tasks.close()
        self._results.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- inline mode --------------------------------------------------------

    def _run_inline(self, job_id: str, kind: str, paths: list[str], params: dict) -> None:
        self._emit("start", job_id, os.getpid())
        try:
            result = execute(kind, paths, params)
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self._finish("error", job_id, detail)
        else:
            self._finish("done", job_id, result)

    # -- collector / supervisor ---------------------------------------------

    def _collect(self) -> None:
        while not self._stop.is_set():
            # Block until a message arrives or a worker dies.  Dead
            # workers' sentinels stay ready forever, so only live ones
            # are watched: a pool past max_restarts must not busy-spin.
            live = [proc.sentinel for proc in self._procs if proc.is_alive()]
            wait([self._results._reader, *live], timeout=_POLL_INTERVAL)
            self._drain_results()
            self._check_liveness()

    def _drain_results(self) -> None:
        """Process every queued result message.

        Only the collector thread reads ``self._results``, so the
        ``empty()`` check followed by ``get()`` cannot race.
        """
        while not self._results.empty():
            event, job_id, payload = self._results.get()
            if event == "claim":
                self._claims[payload] = job_id
                self._emit("start", job_id, payload)
            else:  # done / error
                for pid, claimed in list(self._claims.items()):
                    if claimed == job_id:
                        del self._claims[pid]
                self._finish(event, job_id, payload)

    def _check_liveness(self) -> None:
        for i, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            # The worker is gone.  Drain once more: its final messages may
            # still be in flight, and a job that managed to report "done"
            # before dying must not be failed retroactively.
            self._drain_results()
            job_id = self._claims.pop(proc.pid, None)
            if job_id is not None:
                self._finish(
                    "crashed",
                    job_id,
                    f"worker pid {proc.pid} died (exitcode {proc.exitcode}) mid-job",
                )
            if self._closed:
                continue
            if self.restarts >= self._max_restarts:
                continue  # crash loop guard: stop replacing workers
            self.restarts += 1
            self._procs[i] = self._spawn()

    def _spawn(self):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            name="analysis-worker",
            daemon=True,
        )
        proc.start()
        return proc

    # -- bookkeeping ---------------------------------------------------------

    def _finish(self, event: str, job_id: str, payload: Any) -> None:
        with self._lock:
            self._pending = max(0, self._pending - 1)
        self._emit(event, job_id, payload)

    def _emit(self, event: str, job_id: str, payload: Any) -> None:
        try:
            self._on_event(event, job_id, payload)
        except Exception:  # noqa: BLE001 — callbacks must not kill the collector
            traceback.print_exc()
