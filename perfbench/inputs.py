"""Seeded input generation, done before any timing starts.

Inputs are simulated traces written to files; the program under test
only ever sees those files (or their bytes over HTTP).  The same seed
always gives byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: The ROADMAP's 216k-event bench trace: SyntheticLocks at 8 threads.
LARGE_PARAMS = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
LARGE_THREADS = 8

#: Application models with parameters that give each trace roughly 3k
#: events at 4 threads, so no single model dominates the service mix
#: (tsp's search tree has no size knob between 0.8k and 6k events).
APP_MODELS = (
    ("radiosity", dict(total_tasks=90, iterations=1)),
    ("raytrace", dict(bundles_per_thread=33)),
    ("volrend", dict(tiles_per_frame=150, frames=3)),
    ("water-nsquared", dict(timesteps=9)),
    ("tsp", dict(ncities=7)),
    ("uts", dict(root_children=55)),
    ("openldap", dict(requests=320)),
    ("pipeline", dict(items=160)),
)
APP_THREADS = 4


@dataclass(frozen=True)
class TraceFile:
    path: Path
    events: int


def _simulate(model: str, params: dict, nthreads: int, seed: int):
    from repro.workloads import get_workload

    return get_workload(model)(**params).run(nthreads=nthreads, seed=seed).trace


def _write(trace, path: Path) -> TraceFile:
    from repro.trace.writer import write_trace

    write_trace(trace, path)
    return TraceFile(path=path, events=len(trace))


def micro_trace(out_dir: Path, seed: int) -> TraceFile:
    """The 64-event micro benchmark trace used for cold-start timing."""
    return _write(_simulate("micro", {}, 8, seed), out_dir / "micro.clt")


def large_trace(seed: int):
    """The 216k-event SyntheticLocks trace, in memory."""
    return _simulate("synthetic", LARGE_PARAMS, LARGE_THREADS, seed)


def large_trace_file(out_dir: Path, seed: int) -> TraceFile:
    return _write(large_trace(seed), out_dir / "large.clt")


class AppTraces:
    """Rounds of distinct application traces, one per model, made on demand.

    Round ``i`` is a pure function of the seed and ``i``; a round is
    generated once and then reused (the traced run replays the same
    rounds as the untraced one).
    """

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.seed = seed
        self._rounds: list[list[TraceFile]] = []

    def batch(self, index: int) -> list[TraceFile]:
        while len(self._rounds) <= index:
            self._rounds.append(self._make(len(self._rounds)))
        return self._rounds[index]

    def _make(self, index: int) -> list[TraceFile]:
        out = []
        for j, (model, params) in enumerate(APP_MODELS):
            n = index * len(APP_MODELS) + j
            trace = _simulate(model, params, APP_THREADS, self.seed * 100_003 + n)
            out.append(_write(trace, self.out_dir / f"app-{n:04d}-{model}.clt"))
        return out
