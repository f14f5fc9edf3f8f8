"""Deterministic discrete-event multithreaded execution substrate.

Python's GIL makes real lock-contention experiments meaningless at scale,
so the paper's POWER7 testbed is replaced by a virtual-time simulator:
threads are generator coroutines that yield synchronization requests
(:mod:`repro.sim.syscalls`), the engine executes them in virtual time, and
every synchronization event is traced with the exact schema the paper's
LD_PRELOAD instrumentation records (:mod:`repro.sim.tracing`).

Quick example::

    from repro.sim import Program

    prog = Program(name="demo")
    lock = prog.mutex("L")

    def worker(env):
        yield env.acquire(lock)
        yield env.compute(2.0)
        yield env.release(lock)

    for _ in range(4):
        prog.spawn(worker)
    result = prog.run()
    print(result.completion_time, len(result.trace))
"""

from repro.sim.engine import SimResult, Simulator
from repro.sim.program import Program
from repro.sim.protocols import (
    LockProtocol,
    available_protocols,
    get_protocol,
)
from repro.sim.sync import SimBarrier, SimCondition, SimMutex, SimRWLock, SimSemaphore
from repro.sim.thread import SimThread, ThreadHandle

__all__ = [
    "Program",
    "Simulator",
    "SimResult",
    "SimThread",
    "ThreadHandle",
    "SimMutex",
    "SimBarrier",
    "SimCondition",
    "SimSemaphore",
    "SimRWLock",
    "LockProtocol",
    "get_protocol",
    "available_protocols",
]
