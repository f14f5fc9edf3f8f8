"""Pluggable lock-protocol behavior: ordering, spinning, RW bias."""

import pytest

from repro.errors import SimulationError
from repro.sim import Program, available_protocols, get_protocol
from repro.sim.protocols import PROTOCOL_DOCS, AdaptiveSpinProtocol


def test_registry_lists_all_documented_protocols():
    assert available_protocols() == sorted(PROTOCOL_DOCS)


def test_get_protocol_unknown_name_lists_available():
    with pytest.raises(SimulationError, match="fifo.*priority"):
        get_protocol("optimistic")


def test_get_protocol_recorded_needs_a_trace():
    with pytest.raises(SimulationError, match="recorded.*trace"):
        get_protocol("recorded")


def test_get_protocol_bad_params_rejected():
    with pytest.raises(SimulationError, match="bad parameters"):
        get_protocol("spin", bogus=1)


def test_fifo_is_the_default_and_explicit_fifo_matches():
    def run(protocol):
        prog = Program(protocol=protocol)
        lock = prog.mutex("lock")

        def worker(env, i):
            yield env.compute(i * 0.1)
            yield env.acquire(lock)
            yield env.compute(1.0)
            yield env.release(lock)

        prog.spawn_workers(3, worker)
        return prog.run().completion_time

    assert run(None) == run("fifo")


def test_priority_protocol_grants_highest_waiter_first():
    # holder releases at t=1; the priority-2 waiter (which arrived
    # *after* the priority-1 waiter) must be granted first.
    prog = Program(protocol="priority")
    lock = prog.mutex("lock")
    order = []

    def holder(env):
        yield env.acquire(lock)
        yield env.compute(1.0)
        yield env.release(lock)

    def waiter(env, tag, delay):
        yield env.compute(delay)
        yield env.acquire(lock)
        order.append((tag, env.now))
        yield env.compute(1.0)
        yield env.release(lock)

    prog.spawn(holder)
    prog.spawn(waiter, "low", 0.2, priority=1)
    prog.spawn(waiter, "high", 0.4, priority=2)
    prog.run()
    assert order == [("high", 1.0), ("low", 2.0)]


def test_priority_protocol_fifo_among_equals():
    prog = Program(protocol="priority")
    lock = prog.mutex("lock")
    order = []

    def holder(env):
        yield env.acquire(lock)
        yield env.compute(1.0)
        yield env.release(lock)

    def waiter(env, tag, delay):
        yield env.compute(delay)
        yield env.acquire(lock)
        order.append(tag)
        yield env.release(lock)

    prog.spawn(holder)
    prog.spawn(waiter, "first", 0.2, priority=3)
    prog.spawn(waiter, "second", 0.4, priority=3)
    prog.run()
    assert order == ["first", "second"]


def _inversion_program(acquired):
    """Priority inversion through a lock handoff (no core limit).

    L (prio 0) holds A and waits on B; M (prio 1) also waits on B; H
    (prio 2) blocks on A.  When X releases B at t=3, priority ordering
    hands B to M, and H gets A only once L is done with both locks.
    """
    prog = Program(protocol="priority")
    a, b = prog.mutex("A"), prog.mutex("B")

    def holder(env):  # X: holds B until t=3
        yield env.acquire(b)
        yield env.compute(3.0)
        yield env.release(b)

    def low(env):  # L: A, then B nested inside it
        yield env.acquire(a)
        yield env.compute(1.0)
        yield env.acquire(b)  # blocks at t=1
        yield env.compute(1.0)
        yield env.release(b)
        yield env.release(a)

    def med(env):  # M: contends for B only
        yield env.compute(1.5)
        yield env.acquire(b)  # blocks at t=1.5
        yield env.compute(1.0)
        yield env.release(b)

    def high(env):  # H: blocks on A at t=2
        yield env.compute(2.0)
        yield env.acquire(a)
        acquired.append(env.now)
        yield env.release(a)

    prog.spawn(holder, name="X", priority=0)
    prog.spawn(low, name="L", priority=0)
    prog.spawn(med, name="M", priority=1)
    prog.spawn(high, name="H", priority=2)
    return prog


def test_plain_priority_suffers_inversion():
    # No boosting: M (prio 1) outranks L (prio 0) for B, so H waits
    # through M's critical section as well.
    acquired = []
    _inversion_program(acquired).run()
    assert acquired == [5.0]


def test_spin_short_wait_avoids_handoff_latency():
    # Wait (0.3) is inside the spin window: the handoff is immediate.
    prog = Program(protocol=AdaptiveSpinProtocol(spin_limit=0.5, wake_latency=0.25))
    lock = prog.mutex("lock")
    got = []

    def holder(env):
        yield env.acquire(lock)
        yield env.compute(0.3)
        yield env.release(lock)

    def waiter(env):
        yield env.acquire(lock)
        got.append(env.now)
        yield env.release(lock)

    prog.spawn(holder)
    prog.spawn(waiter)
    prog.run()
    assert got == [0.3]


def test_spin_long_wait_pays_wake_latency():
    # Wait (2.0) exceeds the spin window: the waiter blocked and its
    # grant pays the wake-up latency.
    prog = Program(protocol=AdaptiveSpinProtocol(spin_limit=0.5, wake_latency=0.25))
    lock = prog.mutex("lock")
    got = []

    def holder(env):
        yield env.acquire(lock)
        yield env.compute(2.0)
        yield env.release(lock)

    def waiter(env):
        yield env.acquire(lock)
        got.append(env.now)
        yield env.release(lock)

    prog.spawn(holder)
    prog.spawn(waiter)
    prog.run()
    assert got == [2.25]


def test_reader_preference_jumps_queued_writer():
    # Same shape as the FIFO fairness pin in test_rwlock.py, opposite
    # outcome: the late reader joins the active read phase past the
    # queued writer.
    prog = Program(protocol="reader-pref")
    rw = prog.rwlock("rw")
    order = []

    def reader_a(env):
        yield env.rw_acquire_read(rw)
        yield env.compute(2.0)
        yield env.rw_release_read(rw)

    def writer(env):
        yield env.compute(0.5)
        yield env.rw_acquire_write(rw)
        order.append(("w", env.now))
        yield env.compute(1.0)
        yield env.rw_release_write(rw)

    def reader_b(env):
        yield env.compute(1.0)
        yield env.rw_acquire_read(rw)
        order.append(("rb", env.now))
        yield env.rw_release_read(rw)

    prog.spawn(reader_a)
    prog.spawn(writer)
    prog.spawn(reader_b)
    prog.run()
    assert order == [("rb", 1.0), ("w", 2.0)]


def test_writer_preference_overtakes_earlier_readers():
    # Writer holds; R1, R2 queue, then W2 queues last.  Writer
    # preference grants W2 before the readers.
    prog = Program(protocol="writer-pref")
    rw = prog.rwlock("rw")
    order = []

    def holder(env):
        yield env.rw_acquire_write(rw)
        yield env.compute(1.0)
        yield env.rw_release_write(rw)

    def reader(env, tag, delay):
        yield env.compute(delay)
        yield env.rw_acquire_read(rw)
        order.append((tag, env.now))
        yield env.rw_release_read(rw)

    def writer(env, tag, delay):
        yield env.compute(delay)
        yield env.rw_acquire_write(rw)
        order.append((tag, env.now))
        yield env.compute(1.0)
        yield env.rw_release_write(rw)

    prog.spawn(holder)
    prog.spawn(reader, "r1", 0.2)
    prog.spawn(reader, "r2", 0.4)
    prog.spawn(writer, "w2", 0.6)
    prog.run()
    assert order == [("w2", 1.0), ("r1", 2.0), ("r2", 2.0)]


def test_phase_fair_alternates_phases():
    # Writer holds; queue R1, W2, R2.  Phase-fair after a write phase
    # runs a read phase (both queued readers), then the writer — the
    # writer cannot monopolize, nor can readers starve it.
    prog = Program(protocol="phase-fair")
    rw = prog.rwlock("rw")
    order = []

    def holder(env):
        yield env.rw_acquire_write(rw)
        yield env.compute(1.0)
        yield env.rw_release_write(rw)

    def reader(env, tag, delay):
        yield env.compute(delay)
        yield env.rw_acquire_read(rw)
        order.append((tag, env.now))
        yield env.compute(1.0)
        yield env.rw_release_read(rw)

    def writer(env, tag, delay):
        yield env.compute(delay)
        yield env.rw_acquire_write(rw)
        order.append((tag, env.now))
        yield env.compute(1.0)
        yield env.rw_release_write(rw)

    prog.spawn(holder)
    prog.spawn(reader, "r1", 0.2)
    prog.spawn(writer, "w2", 0.4)
    prog.spawn(reader, "r2", 0.6)
    prog.run()
    assert order == [("r1", 1.0), ("r2", 1.0), ("w2", 2.0)]


def test_non_default_protocol_recorded_in_trace_meta():
    prog = Program(protocol="priority")
    lock = prog.mutex("lock")

    def worker(env, i):
        yield env.acquire(lock)
        yield env.compute(0.1)
        yield env.release(lock)

    prog.spawn_workers(2, worker)
    result = prog.run()
    assert result.trace.meta["protocol"] == "priority"
    assert "scheduler" not in result.trace.meta


def test_default_fifo_not_recorded_in_trace_meta():
    prog = Program()
    lock = prog.mutex("lock")

    def worker(env, i):
        yield env.acquire(lock)
        yield env.release(lock)

    prog.spawn_workers(2, worker)
    assert "protocol" not in prog.run().trace.meta
