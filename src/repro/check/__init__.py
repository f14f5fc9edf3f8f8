"""Differential verification + trace-fuzzing harness (``repro check``).

The analyzer computes the critical path two independent ways — the
backward walk of the paper's Fig. 2 and the forward event DAG — and this
package turns that redundancy into a permanent correctness oracle:
random deadlock-free multithreaded programs are generated, executed on
the simulator, and every analysis invariant is cross-checked on the
resulting trace.  Failures are minimized to replayable repro files.
The per-event reference analyzer and trace checker live here too
(:mod:`repro.check.reference`): they are the oracles the production,
columnar ``analyze`` and vectorized ``repro.trace.validate`` must match
exactly.

See ``docs/check.md`` for the invariant catalogue and repro file format.
"""

from repro.check.generator import corrupt_trace, generate_spec
from repro.check.interp import build_program, run_spec
from repro.check.oracle import Discrepancy, check_trace
from repro.check.reference import reference_analyze, reference_trace_problems
from repro.check.runner import (
    CheckRun,
    SeedReport,
    check_spec,
    replay_repro,
    run_seed,
    run_seeds,
)
from repro.check.shrink import shrink
from repro.check.spec import ProgramSpec, ThreadSpec

__all__ = [
    "ProgramSpec",
    "ThreadSpec",
    "generate_spec",
    "corrupt_trace",
    "reference_analyze",
    "reference_trace_problems",
    "build_program",
    "run_spec",
    "Discrepancy",
    "check_trace",
    "check_spec",
    "shrink",
    "SeedReport",
    "CheckRun",
    "run_seed",
    "run_seeds",
    "replay_repro",
]
