"""Workload abstraction and registry."""

from __future__ import annotations

import abc
from typing import Any, ClassVar

from repro.errors import WorkloadError
from repro.sim.engine import SimResult
from repro.sim.program import Program

__all__ = ["Workload", "register", "get_workload", "available_workloads"]

_REGISTRY: dict[str, type["Workload"]] = {}


def register(cls: type["Workload"]) -> type["Workload"]:
    """Class decorator adding a workload to the global registry."""
    if not cls.name:
        raise WorkloadError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_workload(name: str) -> type["Workload"]:
    """Look up a workload class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_workloads() -> list[str]:
    """Sorted names of every registered workload."""
    return sorted(_REGISTRY)


class Workload(abc.ABC):
    """A simulated multithreaded application.

    Subclasses set :attr:`name`, accept tuning parameters in ``__init__``
    and implement :meth:`build`, which wires the program's threads and
    synchronization objects into a fresh :class:`Program`.
    """

    #: Registry name (e.g. ``"radiosity"``).
    name: ClassVar[str] = ""

    def describe(self) -> dict[str, Any]:
        """Parameters recorded into the trace metadata."""
        return {
            k: v
            for k, v in vars(self).items()
            if not k.startswith("_") and isinstance(v, (int, float, str, bool))
        }

    @abc.abstractmethod
    def build(self, prog: Program, nthreads: int) -> None:
        """Create locks and spawn the workload's threads into ``prog``."""

    def run(
        self,
        nthreads: int,
        seed: int = 0,
        cores: int | None = None,
        protocol: Any = None,
    ) -> SimResult:
        """Build and execute the workload; returns the traced result.

        ``protocol`` selects a non-default lock protocol (a name or an
        instance, see :mod:`repro.sim.protocols`) — used by the protocol
        benchmarks to measure policies directly rather than through replay.
        """
        if nthreads < 1:
            raise WorkloadError(f"nthreads must be >= 1, got {nthreads}")
        prog = Program(cores=cores, seed=seed, name=self.name, protocol=protocol)
        self.build(prog, nthreads)
        meta = {"workload": self.name, "params": self.describe()}
        return prog.run(meta=meta)
