"""Seeded random program generation — deadlock-free by construction.

Programs must always terminate so a differential failure means "analysis
bug", never "generator hung the simulator".  Four structural rules give
that guarantee:

1. **Ordered blocking locks.**  A thread blocking-acquires mutex ``i``
   only while its statically held mutexes all have index ``< i``
   (trylocks are exempt: they never block).  No cycles → no mutex
   deadlock.
2. **Atomic composites.**  Trylock / rwlock / semaphore sections contain
   only a compute, so their holders never block and always release.
3. **Phase-balanced channels.**  ``produce`` ops may appear anywhere in
   a root thread's phase (including nested in lock bodies); ``consume``
   ops sit only at root-thread phase *tails*, and the generator never
   allocates more consumes than the cumulative root-thread produces, so
   every consume is backed by a token that arrives before the barriers.
   Child-thread produces are surplus and never counted.
4. **Column barriers, leaf children.**  Barrier ops form identical
   columns across all root threads (parties = root-thread count), and
   spawned children never consume or touch barriers; children are joined
   implicitly at the end of the spawning thread.

Zero-length computes are generated deliberately often: equal-timestamp
handoffs are the adversarial regime for chain accounting and float
comparisons.
"""

from __future__ import annotations

import random

import numpy as np

from repro.check.spec import ProgramSpec, ThreadSpec
from repro.trace.events import NO_OBJECT, EventType
from repro.trace.trace import Trace

__all__ = ["generate_spec", "corrupt_trace"]

_MAX_DEPTH = 2  # nesting bound for lock bodies and spawn trees


def _dur(rng: random.Random) -> float:
    """A compute duration; zero ~35% of the time (see module docstring)."""
    if rng.random() < 0.35:
        return 0.0
    return round(rng.uniform(0.1, 3.0), 2)


class _Gen:
    def __init__(self, rng: random.Random, spec: ProgramSpec):
        self.rng = rng
        self.spec = spec
        # produce count per channel for the current phase (root threads only)
        self.produced = [0] * spec.n_channels

    def ops(self, n: int, depth: int, held_max: int, in_child: bool) -> list[dict]:
        return [self.op(depth, held_max, in_child) for _ in range(n)]

    def op(self, depth: int, held_max: int, in_child: bool) -> dict:
        rng, spec = self.rng, self.spec
        menu = ["compute", "compute"]
        if depth < _MAX_DEPTH and held_max + 1 < spec.n_mutexes:
            menu += ["lock", "lock"]
        if spec.n_mutexes:
            menu.append("trylock")
        if spec.n_rwlocks:
            menu.append("rw")
        if spec.n_sems:
            menu.append("sem")
        if spec.n_channels:
            menu.append("produce")
        if depth < _MAX_DEPTH:
            menu.append("spawn")
        kind = rng.choice(menu)
        if kind == "compute":
            return {"op": "compute", "dur": _dur(rng)}
        if kind == "lock":
            # Rule 1: only mutexes above every statically held index.
            m = rng.randrange(held_max + 1, spec.n_mutexes)
            body = self.ops(rng.randint(0, 2), depth + 1, m, in_child)
            return {"op": "lock", "m": m, "body": body}
        if kind == "trylock":
            # Non-blocking, so any index is fair game — including one the
            # thread already holds (exercises the try-fail path).
            return {"op": "trylock", "m": rng.randrange(spec.n_mutexes), "dur": _dur(rng)}
        if kind == "rw":
            return {
                "op": "rw",
                "rw": rng.randrange(spec.n_rwlocks),
                "write": rng.random() < 0.5,
                "dur": _dur(rng),
            }
        if kind == "sem":
            return {"op": "sem", "s": rng.randrange(spec.n_sems), "dur": _dur(rng)}
        if kind == "produce":
            ch = rng.randrange(spec.n_channels)
            if not in_child:
                self.produced[ch] += 1
            return {"op": "produce", "ch": ch, "broadcast": rng.random() < 0.25}
        # spawn: children start with no held locks and may nest once more.
        return {"op": "spawn", "ops": self.ops(rng.randint(1, 3), depth + 1, -1, True)}


def generate_spec(seed: int) -> ProgramSpec:
    """Generate the deterministic random program for ``seed``."""
    rng = random.Random(seed)
    spec = ProgramSpec(
        seed=seed,
        n_mutexes=rng.randint(1, 4),
        n_rwlocks=rng.randint(0, 2),
        n_sems=rng.randint(0, 2),
        n_channels=rng.randint(0, 2),
        barrier_rounds=rng.randint(0, 2),
    )
    spec.sem_values = [rng.randint(1, 2) for _ in range(spec.n_sems)]
    n_threads = rng.randint(2, 4)
    spec.threads = [ThreadSpec(name=f"t{i}") for i in range(n_threads)]

    gen = _Gen(rng, spec)
    avail = [0] * spec.n_channels  # unconsumed root-thread tokens per channel
    for phase in range(spec.barrier_rounds + 1):
        gen.produced = [0] * spec.n_channels
        phase_ops = [
            gen.ops(rng.randint(0, 4), 0, -1, False) for _ in range(n_threads)
        ]
        for c in range(spec.n_channels):
            avail[c] += gen.produced[c]
        # Rule 3: tail consumes, never exceeding the produced balance.
        for c in range(spec.n_channels):
            k = rng.randint(0, avail[c]) if avail[c] else 0
            avail[c] -= k
            for _ in range(k):
                phase_ops[rng.randrange(n_threads)].append({"op": "consume", "ch": c})
        for ti, t in enumerate(spec.threads):
            t.ops.extend(phase_ops[ti])
            if phase < spec.barrier_rounds:
                t.ops.append({"op": "barrier"})
    return spec


#: Event-type bytes outside :class:`EventType` that corruptions may write.
_UNKNOWN_ETYPES = (0, 15, 255)


def corrupt_trace(trace: Trace, seed: int) -> Trace:
    """Apply 1–4 seeded mutations to a copy of ``trace``.

    Each mutation drops one record or rewrites one record's ``etype``,
    ``tid``, ``obj`` or ``arg``; ``seq`` and ``time`` are never touched,
    so the result is still a well-ordered :class:`Trace` — only its
    synchronization structure breaks.  New values are drawn mostly from
    the ids already in the trace (plus one fresh id and, rarely, an
    unknown event type) so the mutations land on real protocol rules.
    The ``validate-equiv`` invariant runs both trace checkers on these.
    """
    rng = random.Random(seed)
    records = trace.records.copy()
    tids = sorted(set(trace.records["tid"].tolist())) or [0]
    objs = sorted(set(trace.records["obj"].tolist()) | set(trace.objects) | {NO_OBJECT})
    for _ in range(rng.randint(1, 4)):
        if len(records) == 0:
            break
        i = rng.randrange(len(records))
        field = rng.choice(("drop", "etype", "tid", "obj", "arg"))
        if field == "drop":
            records = np.delete(records, i)
        elif field == "etype":
            if rng.random() < 0.05:
                records["etype"][i] = rng.choice(_UNKNOWN_ETYPES)
            else:
                records["etype"][i] = rng.choice(list(EventType))
        elif field == "tid":
            records["tid"][i] = rng.choice(tids + [tids[-1] + 1])
        elif field == "obj":
            records["obj"][i] = rng.choice(objs + [objs[-1] + 1])
        else:
            old = int(records["arg"][i])
            records["arg"][i] = rng.choice(
                [0, 1, old - 1, old + 1, rng.choice(tids), tids[-1] + 1]
            )
    return Trace(
        records=records,
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=dict(trace.meta),
    )
