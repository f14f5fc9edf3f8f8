"""Worker pool: process fan-out, failure isolation, crash recovery.

Process-pool tests share one module-scoped pool (spawn startup is not
free); the crash test gets its own pool so a respawn there can never
perturb the others.
"""

import os
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.pool import WorkerPool


class Recorder:
    """Collects pool events and lets tests await a job's completion."""

    def __init__(self):
        self.events = []
        self._cond = threading.Condition()

    def __call__(self, event, job_id, payload):
        with self._cond:
            self.events.append((event, job_id, payload))
            self._cond.notify_all()

    def wait_for(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for event, jid, payload in self.events:
                    if jid == job_id and event in ("done", "error", "crashed"):
                        return event, payload
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"timed out waiting for {job_id}: {self.events}"
                self._cond.wait(remaining)


@pytest.fixture(scope="module")
def shared():
    recorder = Recorder()
    pool = WorkerPool(workers=2, on_event=recorder)
    yield pool, recorder
    pool.close()


def test_job_runs_in_worker_process(shared):
    pool, recorder = shared
    pool.submit("proc", "selftest", [], {"echo": "x"})
    event, payload = recorder.wait_for("proc")
    assert event == "done"
    assert payload["pid"] != os.getpid()
    assert payload["echo"] == "x"


def test_job_error_is_isolated(shared):
    pool, recorder = shared
    pool.submit("boom", "selftest", [], {"fail": "kaput"})
    event, payload = recorder.wait_for("boom")
    assert event == "error"
    assert "kaput" in payload
    # The pool is still usable afterwards.
    pool.submit("after-error", "selftest", [], {})
    assert recorder.wait_for("after-error")[0] == "done"


def test_parallel_fanout(shared):
    pool, recorder = shared
    for i in range(6):
        pool.submit(f"fan{i}", "selftest", [], {"sleep": 0.05})
    results = [recorder.wait_for(f"fan{i}") for i in range(6)]
    assert all(event == "done" for event, _ in results)
    assert pool.pending == 0


def test_worker_crash_marks_job_failed_and_pool_survives():
    recorder = Recorder()
    with WorkerPool(workers=1, on_event=recorder) as pool:
        pool.submit("victim", "selftest", [], {"crash": True})
        event, payload = recorder.wait_for("victim")
        assert event == "crashed"
        assert "died" in payload
        # Supervisor replaced the dead worker; new jobs still complete.
        pool.submit("survivor", "selftest", [], {"echo": "alive"})
        event, payload = recorder.wait_for("survivor")
        assert event == "done"
        assert payload["echo"] == "alive"
        assert pool.restarts == 1


def test_collector_idles_after_restart_budget_is_spent(monkeypatch):
    """A dead, unreplaced worker's sentinel stays ready forever; the
    collector must stop watching it instead of spinning on it."""
    import repro.service.pool as pool_mod

    calls = []  # what each collector loop waited on (every pool's)
    real_wait = pool_mod.wait

    def counting_wait(objects, timeout=None):
        calls.append(objects)
        return real_wait(objects, timeout)

    monkeypatch.setattr(pool_mod, "wait", counting_wait)
    recorder = Recorder()
    with WorkerPool(workers=1, on_event=recorder, max_restarts=0) as pool:
        pool.submit("victim", "selftest", [], {"crash": True})
        event, _ = recorder.wait_for("victim")
        assert event == "crashed"
        assert pool.restarts == 0
        time.sleep(0.1)
        before = len(calls)
        time.sleep(0.5)
        mine = [objs for objs in calls[before:] if objs[0] is pool._results._reader]
    # One loop per poll interval (25 in 0.5 s), not one per CPU spin,
    # and only the result queue is watched.
    assert 0 < len(mine) < 100, len(mine)
    assert all(len(objs) == 1 for objs in mine)


def test_inline_mode_runs_synchronously():
    recorder = Recorder()
    pool = WorkerPool(workers=0, on_event=recorder)
    assert pool.inline
    pool.submit("inline", "selftest", [], {"echo": "here"})
    # No waiting: inline submit executes before returning.
    event, payload = recorder.events[-1][0], recorder.events[-1][2]
    assert event == "done"
    assert payload["pid"] == os.getpid()
    pool.close()


def test_inline_mode_isolates_errors():
    recorder = Recorder()
    pool = WorkerPool(workers=0, on_event=recorder)
    pool.submit("bad", "selftest", [], {"fail": "nope"})
    assert recorder.events[-1][0] == "error"
    pool.close()


def test_submit_after_close_rejected():
    pool = WorkerPool(workers=0)
    pool.close()
    with pytest.raises(ServiceError, match="closed"):
        pool.submit("late", "selftest", [], {})


def test_negative_workers_rejected():
    with pytest.raises(ServiceError, match="workers"):
        WorkerPool(workers=-1)
