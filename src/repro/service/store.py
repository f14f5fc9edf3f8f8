"""Content-addressed trace storage for the analysis service.

Uploaded traces are parsed (any supported container format), digested
with :func:`repro.trace.digest.trace_digest` — a *content* hash, so the
same execution uploaded as ``.clt`` and ``.jsonl`` deduplicates — and
persisted once in canonical binary form as ``<digest>.clt`` with a
``<digest>.meta.json`` sidecar.  Restarting the service rebuilds the
index from the sidecars; worker processes receive plain file paths.

Durability goes through a :class:`~repro.service.backend.StorageBackend`.
The default (``backend=None``) is the original local layout — both
files directly under ``root``.  With an object backend the backend
holds the durable copy and ``root`` becomes a scratch directory where
traces are *materialized* on demand (workers read local files).

Crash-safety contract, either backend, across a kill or a power cut:

* every file is written by :func:`repro._durable.write_atomic`, so a
  ``put_trace`` that returned is on disk and no torn file is visible;
* the sidecar is written strictly *after* the trace body, so a sidecar
  implies a complete body;
* an orphaned body (crash between the two writes) is reaped on the
  next rescan, as are staging files;
* a sidecar whose schema this build cannot load (older/newer service)
  is skipped with a warning instead of crashing startup.

Opening a :class:`TraceStore` reaps, so only the owning service may open
its directory; :func:`stored_traces` reads a local-layout store without
changing it (the ``fleet --store`` CLI, next to a live service).
"""

from __future__ import annotations

import json
import logging
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._durable import reap_staging, write_atomic
from repro.errors import ServiceError, TraceError
from repro.service.backend import BackendMissing, LocalDiskBackend, StorageBackend
from repro.trace.digest import trace_digest
from repro.trace.reader import read_trace
from repro.trace.trace import Trace
from repro.trace.writer import write_trace

__all__ = ["TraceStore", "StoredTrace", "stored_traces"]

log = logging.getLogger("repro.service")


@dataclass(frozen=True)
class StoredTrace:
    """Index entry for one stored trace."""

    digest: str
    path: Path
    name: str
    nevents: int
    nthreads: int
    duration: float
    size_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "name": self.name,
            "nevents": self.nevents,
            "nthreads": self.nthreads,
            "duration": self.duration,
            "size_bytes": self.size_bytes,
        }


def _entry(key: str, raw: bytes, path: Path) -> StoredTrace | None:
    """The index entry a sidecar's bytes describe; None (logged) if unusable."""
    try:
        return StoredTrace(path=path, **json.loads(raw.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError):
        log.warning("trace store: unreadable sidecar %s; skipping", key)
    except TypeError:
        # Sidecar from an older/newer schema (missing or extra keys).
        # Skipping keeps the service bootable; the trace can be
        # re-uploaded (same digest, fresh sidecar).
        log.warning(
            "trace store: sidecar %s does not match this build's schema; "
            "skipping", key,
        )
    return None


def stored_traces(root: str | Path) -> list[StoredTrace]:
    """The traces a local-layout store directory holds, read-only.

    Unlike opening a :class:`TraceStore` this deletes nothing, so it is
    safe next to a live service: an upload in flight (a staging file, or
    a body whose sidecar has not landed) is simply not listed yet.
    """
    entries = []
    for sidecar in sorted(Path(root).glob("*.meta.json")):
        body = sidecar.with_name(sidecar.name[: -len(".meta.json")] + ".clt")
        if not body.is_file():
            continue
        try:
            raw = sidecar.read_bytes()
        except OSError:
            continue
        entry = _entry(sidecar.name, raw, body)
        if entry is not None:
            entries.append(entry)
    return entries


class TraceStore:
    """Digest-keyed trace files behind a pluggable storage backend."""

    def __init__(self, root: str | Path, backend: StorageBackend | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        reap_staging(self.root)
        # Local scratch double-duty: with the default backend it *is*
        # the store; with an object backend it caches materializations.
        self.backend: StorageBackend = backend or LocalDiskBackend(self.root)
        self._remote = backend is not None
        self._index: dict[str, StoredTrace] = {}
        self._lock = threading.Lock()
        self._rescan()

    # -- writes --------------------------------------------------------------

    def put_trace(self, trace: Trace, name: str | None = None) -> StoredTrace:
        """Store an in-memory trace; returns the (possibly existing) entry."""
        digest = trace_digest(trace)
        with self._lock:
            existing = self._index.get(digest)
        if existing is not None:
            return existing
        # Body first, sidecar second: a crash in between leaves an orphan
        # body the next rescan reaps — never a sidecar pointing at a
        # missing or torn body.  No lock: two puts of one digest write
        # identical bytes.  An object backend gets a copy of the body.
        path = self.root / f"{digest}.clt"
        write_atomic(path, lambda staging: write_trace(trace, staging, fmt="clt"))
        if self._remote:
            self.backend.put_path(f"{digest}.clt", path)
        entry = StoredTrace(
            digest=digest,
            path=path,
            name=name or str(trace.meta.get("name", "")),
            nevents=len(trace),
            nthreads=len(trace.threads),
            duration=trace.duration,
            size_bytes=path.stat().st_size,
        )
        self._write_sidecar(entry)
        with self._lock:
            return self._index.setdefault(digest, entry)

    def put_bytes(self, data: bytes, name: str | None = None) -> StoredTrace:
        """Store an uploaded trace blob (either supported format)."""
        if not data:
            raise ServiceError("empty upload is not a trace", status=400)
        # Dotted: invisible to rescans, reaped if a crash leaves it.
        with tempfile.NamedTemporaryFile(
            dir=self.root, prefix=".upload-", suffix=".tmp"
        ) as tmp:
            tmp.write(data)
            tmp.flush()
            try:
                trace = read_trace(tmp.name)
            except TraceError as exc:
                raise ServiceError(f"unparseable trace upload: {exc}", status=400) from exc
        return self.put_trace(trace, name=name)

    def put_file(self, path: str | Path, name: str | None = None) -> StoredTrace:
        """Store a trace file already on local disk (CLI convenience)."""
        trace = read_trace(path)
        return self.put_trace(trace, name=name or Path(path).stem)

    # -- reads ---------------------------------------------------------------

    def get(self, digest: str) -> StoredTrace:
        with self._lock:
            entry = self._index.get(digest)
        if entry is None and self._remote:
            # Shared backend: a ring peer may have uploaded this trace
            # after our rescan.  Adopt its sidecar lazily.
            entry = self._adopt(digest)
        if entry is None:
            raise ServiceError(f"no such trace: {digest}", status=404)
        return entry

    def _adopt(self, digest: str) -> StoredTrace | None:
        try:
            blob = json.loads(self.backend.get(f"{digest}.meta.json").decode("utf-8"))
            entry = StoredTrace(path=self.root / f"{digest}.clt", **blob)
        except (BackendMissing, UnicodeDecodeError, json.JSONDecodeError, TypeError):
            return None
        with self._lock:
            return self._index.setdefault(digest, entry)

    def resolve(self, digests: list[str] | tuple[str, ...]) -> list[str]:
        """Digests -> worker-ready file paths (404s on any unknown digest)."""
        return [str(self._materialize(self.get(d))) for d in digests]

    def _materialize(self, entry: StoredTrace) -> Path:
        """Ensure the trace exists as a local file (object-backend fetch)."""
        if entry.path.exists():
            return entry.path
        try:
            data = self.backend.get(f"{entry.digest}.clt")
        except BackendMissing:
            raise ServiceError(
                f"trace {entry.digest} vanished from the storage backend",
                status=410,
            ) from None
        write_atomic(entry.path, data)
        return entry.path

    def list(self) -> list[StoredTrace]:
        with self._lock:
            return sorted(self._index.values(), key=lambda e: e.digest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": len(self._index),
                "bytes": sum(e.size_bytes for e in self._index.values()),
                "backend": self.backend.name,
            }

    # -- persistence ---------------------------------------------------------

    def _write_sidecar(self, entry: StoredTrace) -> None:
        blob = json.dumps(entry.to_dict()).encode("utf-8")
        self.backend.put(f"{entry.digest}.meta.json", blob)

    def _rescan(self) -> None:
        """Rebuild the index from sidecars; reap anything half-written.

        Called on startup (constructor).  Orphans are trace bodies whose
        sidecar never landed: the residue of a crash inside
        :meth:`put_trace`.
        """
        keys = set(self.backend.keys())
        seen_bodies: set[str] = set()
        for key in sorted(keys):
            if not key.endswith(".meta.json"):
                continue
            digest = key[: -len(".meta.json")]
            try:
                raw = self.backend.get(key)
            except (BackendMissing, OSError):
                log.warning("trace store: unreadable sidecar %s; skipping", key)
                continue
            if f"{digest}.clt" not in keys:
                # Sidecar without a body should be impossible (body is
                # written first) — tolerate it, but don't index it.
                log.warning("trace store: sidecar %s has no trace body", key)
                continue
            entry = _entry(key, raw, self.root / f"{digest}.clt")
            if entry is None:
                continue
            self._index[digest] = entry
            seen_bodies.add(f"{digest}.clt")
        # Orphaned bodies: a crash after the body write but before the
        # sidecar.  Without a sidecar they are invisible forever — reap
        # them so the store cannot leak disk across crashes.
        for key in keys:
            if key.endswith(".clt") and key not in seen_bodies:
                log.warning("trace store: reaping orphaned trace body %s", key)
                self.backend.delete(key)
                (self.root / key).unlink(missing_ok=True)
