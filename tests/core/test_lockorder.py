"""Lock-order graph and potential-deadlock detection."""

from repro.core.lockorder import build_lock_order
from repro.sim import Program
from repro.trace.builder import TraceBuilder

from tests.conftest import make_micro_program


def nested_program(order_ab=True, order_ba=False):
    """Threads nest A->B and/or B->A (sequentially, so no actual deadlock)."""
    prog = Program()
    a, b = prog.mutex("A"), prog.mutex("B")

    def ab(env):
        yield env.acquire(a)
        yield env.compute(0.1)
        yield env.acquire(b)
        yield env.compute(0.1)
        yield env.release(b)
        yield env.release(a)

    def ba(env):
        yield env.compute(1.0)  # run after ab to avoid real deadlock
        yield env.acquire(b)
        yield env.compute(0.1)
        yield env.acquire(a)
        yield env.compute(0.1)
        yield env.release(a)
        yield env.release(b)

    if order_ab:
        prog.spawn(ab)
    if order_ba:
        prog.spawn(ba)
    return prog.run().trace


def test_no_nesting_in_micro():
    graph = build_lock_order(make_micro_program().run().trace)
    assert graph.edges == {}
    assert graph.max_depth == 1
    assert not graph.has_potential_deadlock
    assert "no lock-order cycles" in graph.render()


def test_single_order_no_cycle():
    graph = build_lock_order(nested_program(order_ab=True, order_ba=False))
    assert graph.nesting_pairs == [("A", "B", 1)]
    assert graph.max_depth == 2
    assert graph.cycles() == []


def test_conflicting_orders_flagged():
    graph = build_lock_order(nested_program(order_ab=True, order_ba=True))
    pairs = {(o, i) for o, i, _ in graph.nesting_pairs}
    assert pairs == {("A", "B"), ("B", "A")}
    assert graph.has_potential_deadlock
    assert graph.cycles() == [["A", "B"]]
    assert "POTENTIAL DEADLOCK" in graph.render()


def test_self_loop_via_reentrant_trace():
    # Hand-build a (validator-invalid) trace where a thread re-obtains the
    # same lock while holding it; the order graph must flag the self-loop.
    b = TraceBuilder()
    lock = b.mutex("L")
    t = b.thread()
    t.start(at=0.0)
    t.acquire(lock, at=1.0)
    t.acquire(lock, at=2.0)
    t.release(lock, at=3.0)
    t.release(lock, at=4.0)
    t.exit(at=5.0)
    graph = build_lock_order(b.build(validate=False))
    assert graph.cycles() == [["L"]]


def test_nesting_counts_accumulate():
    prog = Program()
    a, b = prog.mutex("A"), prog.mutex("B")

    def body(env):
        for _ in range(5):
            yield env.acquire(a)
            yield env.acquire(b)
            yield env.compute(0.1)
            yield env.release(b)
            yield env.release(a)

    prog.spawn(body)
    graph = build_lock_order(prog.run().trace)
    assert graph.nesting_pairs == [("A", "B", 5)]


def test_three_lock_chain_depth():
    prog = Program()
    locks = [prog.mutex(n) for n in "ABC"]

    def body(env):
        for lk in locks:
            yield env.acquire(lk)
        yield env.compute(0.1)
        for lk in reversed(locks):
            yield env.release(lk)

    prog.spawn(body)
    graph = build_lock_order(prog.run().trace)
    assert graph.max_depth == 3
    pairs = {(o, i) for o, i, _ in graph.nesting_pairs}
    assert pairs == {("A", "B"), ("A", "C"), ("B", "C")}
    assert not graph.has_potential_deadlock


# -- exact pin -------------------------------------------------------------
#
# sha256 of the full render plus the edge list (insertion order, counts,
# example thread) on the golden cases, the fuzz programs and all their
# corrupted copies (tests/pins.py).  Corruptions leave RELEASEs without
# an OBTAIN and OBTAINs of objects the thread already holds.

import pytest  # noqa: E402

from tests.pins import FUZZ_SEEDS, digest, fuzz_trace, golden_trace, with_corruptions  # noqa: E402

_PINS = {
    "ldap": "f71ae8d215a40552",
    "micro": "d1b42748dac6983e",
    "radiosity": "340b224fdcefaef8",
    "fuzz": "09381c901fe4dc89",
}


def _graph_outputs(trace):
    graph = build_lock_order(trace)
    return graph.render(n=10**6), repr(list(graph.edges.values()))


@pytest.mark.parametrize("case", sorted(_PINS))
def test_lock_order_pinned(case):
    bases = [fuzz_trace(s) for s in FUZZ_SEEDS] if case == "fuzz" else [golden_trace(case)]
    got = digest(
        out for base in bases for t in with_corruptions(base) for out in _graph_outputs(t)
    )
    assert got == _PINS[case]
