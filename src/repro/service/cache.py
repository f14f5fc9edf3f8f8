"""Content-addressed result cache: bounded LRU in memory, spill to disk.

Keys are the job's :meth:`~repro.service.jobs.JobSpec.cache_key` — a
sha256 over (trace digests, analysis kind, canonical params) — so a hit
is only possible for byte-identical questions about content-identical
traces.  Values are finished report dicts (JSON-serializable by
construction), which is what makes the spill tier trivial: evicted
entries are written as ``<key>.json`` and promoted back on access.

The spill tier is a directory: ``disk_dir``, or a
:class:`~repro.service.backend.LocalDiskBackend` over one.  A private
tier (``<data-dir>/cache``) spills on evict.  A shared tier
(``<shared-dir>/cache``, written by every ring node) is write-through
— every ``put`` persists immediately — so a restarted instance, or a
*different* instance sharing the directory, serves results computed
before the restart.  Trim order is maintained incrementally (an
insertion-ordered key set, refreshed on promotion), so eviction is O(1)
amortized instead of stat+sort over the whole tier on every spill.
Tier writes happen outside the cache's lock (:meth:`ResultCache.flush`);
until one lands, its entry is served from memory, so a slow disk never
stalls a lookup that does not read it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.errors import ServiceError
from repro.service.backend import BackendMissing, LocalDiskBackend

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe LRU of analysis results with an optional spill tier."""

    def __init__(
        self,
        capacity: int = 256,
        disk_dir: str | Path | LocalDiskBackend | None = None,
        disk_capacity: int = 4096,
        shared: bool = False,
    ):
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.disk_capacity = disk_capacity
        if disk_dir is not None and not isinstance(disk_dir, LocalDiskBackend):
            disk_dir = LocalDiskBackend(disk_dir, shared=shared)
        self._tier = disk_dir
        # A shared tier is write-through: results must survive this
        # process and be visible to ring peers.  A private tier spills
        # on evict.
        self.write_through = disk_dir is not None and disk_dir.shared
        self._mem: OrderedDict[str, dict] = OrderedDict()
        # Spill order, oldest first; maintained incrementally so evicting
        # into a 4096-entry tier never stats and sorts the whole tier.
        self._tier_keys: OrderedDict[str, None] = OrderedDict()
        if self._tier is not None:
            for key in self._tier.keys_oldest_first():
                if key.endswith(".json"):
                    self._tier_keys[key[: -len(".json")]] = None
        # Tier writes owed (evicted entries, write-through puts), written
        # by flush() outside self._lock; get() serves them meanwhile.
        self._unwritten: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()  # one flusher writes at a time
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    def get(self, key: str) -> dict | None:
        """Look a key up; promotes hits to most-recently-used.

        A tier read happens outside the lock, so a slow disk delays only
        the lookup that needs it.
        """
        with self._lock:
            value = self._mem.get(key)
            if value is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return value
            value = self._unwritten.get(key)
            if value is not None:  # evicted, its spill not yet written
                self.hits += 1
                self._insert(key, value)
                return value
        value = self._tier_load(key)
        with self._lock:
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self.disk_hits += 1
            self._insert(key, value)  # promote back into memory
        self.flush()  # the promotion may have evicted an entry
        return value

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Insert ``key`` and do the tier writes that owes."""
        self.insert(key, value)
        self.flush()

    def insert(self, key: str, value: dict[str, Any]) -> None:
        """The in-memory half of :meth:`put`; :meth:`flush` does the rest.

        Callers that must not wait on the disk (the job collector wakes
        its waiters first) insert, then flush.
        """
        with self._lock:
            self._insert(key, value)
            if self.write_through:
                self._unwritten[key] = value

    def flush(self) -> None:
        """Write every owed tier entry, outside the lookup lock.

        An entry leaves the owed set only once its write has landed, so
        a concurrent :meth:`get` finds it either there or on disk.
        """
        if self._tier is None:
            return
        with self._flush_lock:
            while True:
                with self._lock:
                    if not self._unwritten:
                        return
                    key, value = next(iter(self._unwritten.items()))
                try:
                    self._tier.put(f"{key}.json", json.dumps(value).encode("utf-8"))
                finally:
                    with self._lock:
                        if self._unwritten.get(key) is value:
                            del self._unwritten[key]
                # Refresh this key's position, then trim oldest-first:
                # O(1) amortized per write against the incremental order.
                with self._lock:
                    self._tier_keys.pop(key, None)
                    self._tier_keys[key] = None
                    excess = len(self._tier_keys) - self.disk_capacity
                    victims = [
                        self._tier_keys.popitem(last=False)[0] for _ in range(excess)
                    ]
                for victim in victims:
                    self._tier.delete(f"{victim}.json")

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._mem or key in self._unwritten:
                return True
        return self._tier is not None and self._tier.exists(f"{key}.json")

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._mem),
                "capacity": self.capacity,
                "disk_entries": len(self._tier_keys),
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "write_through": self.write_through,
            }

    # -- internals ------------------------------------------------------------

    def _insert(self, key: str, value: dict) -> None:
        """Caller holds ``self._lock``; evictions are owed to the tier."""
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            old_key, old_value = self._mem.popitem(last=False)
            self.evictions += 1
            if self._tier is not None:
                self._unwritten[old_key] = old_value

    def _tier_load(self, key: str) -> dict | None:
        """Read one entry from the tier; called without ``self._lock``."""
        if self._tier is None:
            return None
        try:
            return json.loads(self._tier.get(f"{key}.json").decode("utf-8"))
        except (BackendMissing, OSError, UnicodeDecodeError, json.JSONDecodeError):
            # A torn write (crash mid-spill) must read as a miss, not an
            # error; a peer may also have trimmed the key under us.
            with self._lock:
                self._tier_keys.pop(key, None)
            return None
