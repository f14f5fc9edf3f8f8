"""Seed orchestration: generate → simulate → oracle → shrink → repro file.

One seed is one experiment: :func:`run_seed` generates the seed's
program, simulates it, and runs every oracle invariant on the trace.  On
failure it minimizes the program with :func:`repro.check.shrink.shrink`
(keyed on the violated invariant ids, so the shrinker cannot wander onto
an unrelated failure) and dumps a replayable repro file — a
:class:`~repro.check.spec.ProgramSpec` JSON document annotated with the
observed discrepancies, loadable by ``repro check --repro FILE`` or
:func:`replay_repro`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.generator import generate_spec
from repro.check.interp import run_spec
from repro.check.oracle import Discrepancy, check_trace
from repro.check.shrink import shrink
from repro.check.spec import ProgramSpec
from repro.errors import CheckError, ReproError

__all__ = ["SeedReport", "CheckRun", "check_spec", "run_seed", "run_seeds", "replay_repro"]


def check_spec(spec: ProgramSpec) -> list[Discrepancy]:
    """Simulate a spec and run the full differential oracle on its trace.

    A simulator failure (deadlock, sync misuse) is itself reported as a
    ``sim-error`` discrepancy: generated programs are deadlock-free by
    construction, so one ever raising means a generator or engine bug.
    """
    try:
        result = run_spec(spec)
    except ReproError as exc:
        return [Discrepancy("sim-error", f"{type(exc).__name__}: {exc}")]
    return check_trace(
        result.trace, has_nested_holds=spec.has_nested_holds, seed=spec.seed
    )


@dataclass
class SeedReport:
    """Outcome of one seed (clean, or failing with a minimized repro)."""

    seed: int
    discrepancies: list[Discrepancy] = field(default_factory=list)
    op_count: int = 0
    shrunk: ProgramSpec | None = None
    shrink_evals: int = 0
    repro_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def invariants(self) -> list[str]:
        """Violated invariant ids, de-duplicated, first-seen order."""
        return list(dict.fromkeys(d.invariant for d in self.discrepancies))

    def render(self) -> str:
        if self.ok:
            return f"seed {self.seed}: ok ({self.op_count} ops)"
        lines = [f"seed {self.seed}: {len(self.discrepancies)} discrepancies"]
        lines += [f"  {d}" for d in self.discrepancies]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk {self.op_count} -> {self.shrunk.op_count()} ops "
                f"({self.shrink_evals} evals)"
            )
        if self.repro_path is not None:
            lines.append(f"  repro written to {self.repro_path}")
        return "\n".join(lines)


@dataclass
class CheckRun:
    """Aggregate outcome over a range of seeds."""

    reports: list[SeedReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> list[SeedReport]:
        return [r for r in self.reports if not r.ok]

    def render(self) -> str:
        parts = [r.render() for r in self.failures]
        parts.append(
            f"checked {len(self.reports)} seeds: "
            f"{len(self.reports) - len(self.failures)} ok, "
            f"{len(self.failures)} failing"
        )
        return "\n".join(parts)


def _dump_repro(report: SeedReport, out_dir: str | Path) -> Path:
    """Write the minimized failing spec plus its discrepancy annotations.

    The file is a superset of the plain spec format, so
    :meth:`ProgramSpec.from_json` loads it unchanged.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = report.shrunk if report.shrunk is not None else generate_spec(report.seed)
    doc = spec.to_dict()
    doc["discrepancies"] = [
        {"invariant": d.invariant, "detail": d.detail} for d in report.discrepancies
    ]
    doc["original_op_count"] = report.op_count
    path = out_dir / f"repro-seed{report.seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def run_seed(
    seed: int,
    out_dir: str | Path | None = None,
    shrink_failures: bool = True,
    max_shrink_evals: int = 400,
) -> SeedReport:
    """Check one seed end to end (see module docstring)."""
    spec = generate_spec(seed)
    report = SeedReport(seed=seed, op_count=spec.op_count())
    report.discrepancies = check_spec(spec)
    if report.ok:
        return report
    if shrink_failures:
        target = set(report.invariants)

        def still_fails(cand: ProgramSpec) -> bool:
            return any(d.invariant in target for d in check_spec(cand))

        report.shrunk, report.shrink_evals = shrink(
            spec, still_fails, max_evals=max_shrink_evals
        )
        # Report the minimized program's discrepancies: that is what the
        # repro file reproduces.
        report.discrepancies = [
            d for d in check_spec(report.shrunk) if d.invariant in target
        ] or report.discrepancies
    if out_dir is not None:
        report.repro_path = _dump_repro(report, out_dir)
    return report


def run_seeds(
    count: int,
    start: int = 0,
    out_dir: str | Path | None = None,
    shrink_failures: bool = True,
    max_shrink_evals: int = 400,
) -> CheckRun:
    """Check seeds ``start .. start + count - 1``."""
    if count < 1:
        raise CheckError(f"seed count must be >= 1, got {count}")
    return CheckRun(
        reports=[
            run_seed(
                seed,
                out_dir=out_dir,
                shrink_failures=shrink_failures,
                max_shrink_evals=max_shrink_evals,
            )
            for seed in range(start, start + count)
        ]
    )


def replay_repro(path: str | Path) -> SeedReport:
    """Re-run a repro file's program through the oracle (no re-shrinking)."""
    spec = ProgramSpec.from_json(path)
    report = SeedReport(seed=spec.seed, op_count=spec.op_count())
    report.discrepancies = check_spec(spec)
    return report
