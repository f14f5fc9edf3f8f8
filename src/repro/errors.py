"""Exception hierarchy for the critical lock analysis library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the three layers the paper's tool consists of:
tracing (instrumentation module), simulation (execution substrate) and
analysis (post-processing module).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TraceError",
    "TraceFormatError",
    "TraceValidationError",
    "SimulationError",
    "DeadlockError",
    "SyncUsageError",
    "AnalysisError",
    "WakerResolutionError",
    "WorkloadError",
    "ServiceError",
    "CheckError",
    "RuleError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class TraceError(ReproError):
    """Base class for trace I/O and trace integrity errors."""


class TraceFormatError(TraceError):
    """A trace file could not be parsed (bad magic, truncation, version)."""


class TraceValidationError(TraceError):
    """A trace is structurally inconsistent (e.g. release without obtain).

    Attributes
    ----------
    problems:
        The full list of validation problems discovered; the exception
        message only contains the first few.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        shown = "; ".join(self.problems[:5])
        more = len(self.problems) - 5
        if more > 0:
            shown += f" (+{more} more)"
        super().__init__(f"invalid trace: {shown}")


class SimulationError(ReproError):
    """Base class for errors inside the discrete-event simulator."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while threads were still blocked."""

    def __init__(self, blocked: dict[int, str]):
        self.blocked = dict(blocked)
        desc = ", ".join(f"T{tid}: {why}" for tid, why in sorted(blocked.items()))
        super().__init__(f"deadlock: no runnable threads ({desc})")


class SyncUsageError(SimulationError):
    """A synchronization primitive was used incorrectly.

    Examples: releasing a mutex the thread does not hold, waiting on a
    condition variable without holding its mutex, re-acquiring a
    non-reentrant mutex.
    """


class AnalysisError(ReproError):
    """Base class for errors in the post-processing analysis module."""


class WakerResolutionError(AnalysisError):
    """No waker could be determined for a blocking event in the trace."""


class WorkloadError(ReproError):
    """A workload was configured with invalid parameters."""


class ServiceError(ReproError):
    """The analysis service rejected a request or lost a job.

    Carries an HTTP-ish ``status`` so the API layer can map library
    failures onto response codes without string matching.
    """

    def __init__(self, message: str, status: int = 400):
        self.status = int(status)
        super().__init__(message)


class CheckError(ReproError):
    """The differential verification harness was misused (bad spec/repro file)."""


class RuleError(ReproError):
    """A fleet alert-rule spec failed to parse or lint (see repro.fleet.rules)."""
