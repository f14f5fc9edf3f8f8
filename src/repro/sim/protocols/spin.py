"""Adaptive spin-then-block acquisition with configurable backoff.

Models the hybrid strategy of real mutex implementations (glibc
``PTHREAD_MUTEX_ADAPTIVE_NP``, Java biased spinning): a contended
acquirer first spins, hoping the owner releases quickly, then parks.

In the simulator this costs virtual time two ways:

* **wake-up latency** — if a waiter ended up waiting longer than
  ``spin_limit`` it must have parked, so its eventual handoff pays
  ``wake_latency`` (the kernel wake-up path that a successful spin
  would have skipped).  Consecutive parks on the same lock by the same
  thread multiply the latency by ``backoff`` each time (exponential
  backoff, capped by ``max_latency``), mirroring spin loops that grow
  their sleep interval under persistent contention.
* **core occupancy** — in core-limited runs a spinning thread burns its
  core for up to ``spin_limit`` before parking, so heavy spinning steals
  throughput from runnable threads (the classic spin-vs-block tradeoff).

Waits shorter than ``spin_limit`` are treated as successful spins: no
latency, and the backoff streak resets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.protocols.base import LockProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

__all__ = ["AdaptiveSpinProtocol"]


class AdaptiveSpinProtocol(LockProtocol):
    """Spin for ``spin_limit``, then block and pay wake-up latency."""

    name = "spin"

    def __init__(
        self,
        spin_limit: float = 0.05,
        wake_latency: float = 0.02,
        backoff: float = 1.0,
        max_latency: float | None = None,
    ) -> None:
        super().__init__()
        if spin_limit < 0 or wake_latency < 0 or backoff < 1.0:
            raise ValueError(
                "spin protocol needs spin_limit >= 0, wake_latency >= 0, "
                "backoff >= 1"
            )
        self.spin_limit = float(spin_limit)
        self.wake_latency = float(wake_latency)
        self.backoff = float(backoff)
        self.max_latency = None if max_latency is None else float(max_latency)
        self._streak: dict[tuple[int, int], int] = {}

    def spin_hold(self, lock: Any, thread: "SimThread") -> float:
        return self.spin_limit

    def handoff_latency(self, lock: Any, thread: "SimThread") -> float:
        waited = self.engine.now - thread.block_start
        key = (lock.obj, thread.tid)
        if waited <= self.spin_limit:
            self._streak[key] = 0  # spin won: no parking cost
            return 0.0
        streak = self._streak.get(key, 0)
        self._streak[key] = streak + 1
        latency = self.wake_latency * (self.backoff**streak)
        if self.max_latency is not None and latency > self.max_latency:
            latency = self.max_latency
        return latency
