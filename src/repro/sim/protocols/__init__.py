"""Pluggable lock-acquisition protocols (see :mod:`.base` for the API).

Registry names:

========== ==========================================================
fifo        strict arrival order everywhere (the engine's baseline)
priority    highest priority first (FIFO among equals)
spin        adaptive spin-then-block with wake-up latency + backoff
reader-pref readers never wait behind queued writers
writer-pref queued writers run before queued readers
phase-fair  alternating reader/writer phases
recorded    replay a trace's own grant order (identity replay)
========== ==========================================================

Use :func:`get_protocol` to construct by name; ``recorded`` is built
from a trace via :meth:`RecordedProtocol.from_trace` and is constructed
automatically by the replay layer, not from CLI parameters.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.protocols.base import FifoProtocol, LockProtocol
from repro.sim.protocols.priority import PriorityProtocol
from repro.sim.protocols.recorded import RecordedProtocol
from repro.sim.protocols.rw import PhaseFairRW, ReaderPreferenceRW, WriterPreferenceRW
from repro.sim.protocols.spin import AdaptiveSpinProtocol

__all__ = [
    "LockProtocol",
    "FifoProtocol",
    "PriorityProtocol",
    "AdaptiveSpinProtocol",
    "ReaderPreferenceRW",
    "WriterPreferenceRW",
    "PhaseFairRW",
    "RecordedProtocol",
    "PROTOCOLS",
    "PROTOCOL_DOCS",
    "get_protocol",
    "available_protocols",
]

PROTOCOLS: dict[str, type[LockProtocol]] = {
    FifoProtocol.name: FifoProtocol,
    PriorityProtocol.name: PriorityProtocol,
    AdaptiveSpinProtocol.name: AdaptiveSpinProtocol,
    ReaderPreferenceRW.name: ReaderPreferenceRW,
    WriterPreferenceRW.name: WriterPreferenceRW,
    PhaseFairRW.name: PhaseFairRW,
    RecordedProtocol.name: RecordedProtocol,
}

PROTOCOL_DOCS: dict[str, str] = {
    "fifo": "strict arrival-order grants (baseline)",
    "priority": "highest-priority waiter first (FIFO among equals)",
    "spin": "adaptive spin-then-block (spin_limit, wake_latency, backoff)",
    "reader-pref": "readers join active read phases past queued writers",
    "writer-pref": "queued writers run before queued readers",
    "phase-fair": "alternating reader/writer phases (bounded unfairness)",
    "recorded": "identity replay of a trace's recorded grant order",
}


def available_protocols() -> list[str]:
    return sorted(PROTOCOLS)


def get_protocol(name: str, **params: Any) -> LockProtocol:
    """Construct a protocol by registry name."""
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise SimulationError(
            f"unknown lock protocol {name!r}; available: "
            + ", ".join(available_protocols())
        ) from None
    if cls is RecordedProtocol and not params:
        raise SimulationError(
            "the 'recorded' protocol needs a trace; use "
            "RecordedProtocol.from_trace() or the replay layer"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise SimulationError(f"bad parameters for protocol {name!r}: {exc}") from None
