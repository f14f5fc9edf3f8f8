"""Content-addressed trace storage for the analysis service.

Uploaded traces are parsed (any supported container format), digested
with :func:`repro.trace.digest.trace_digest` — a *content* hash, so the
same execution uploaded as ``.clt`` and ``.jsonl`` deduplicates — and
persisted once in canonical binary form as ``<digest>.clt`` with a
``<digest>.meta.json`` sidecar, both directly under the store's
directory.  Restarting the service rebuilds the index from the
sidecars; worker processes receive the body files' paths.

The directory is *private* to one service (``<data-dir>/traces``) or
*shared* by every node of a ring (``<shared-dir>/traces``), where a
trace a peer uploaded after this node opened the store is adopted from
its sidecar on first lookup.

Crash-safety contract, across a kill or a power cut:

* every file is written by :func:`repro._durable.write_atomic`, so a
  ``put_trace`` that returned is on disk and no torn file is visible;
* the sidecar is written strictly *after* the trace body, so a sidecar
  implies a complete body;
* a sidecar whose schema this build cannot load (older/newer service)
  is skipped with a warning instead of crashing startup.

Opening a private store reaps what a crash left: staging files and
orphaned bodies (a crash between the two writes).  So only the owning
service may open its directory; :func:`stored_traces` reads it without
changing it (the ``fleet --store`` CLI, next to a live service).
Opening a shared store deletes nothing, because a peer's upload may be
between its body and its sidecar write.  That leaves a leak: a crashed
upload's staging file stays, and so does its sidecar-less body,
invisible, until the next upload of that digest rewrites it.
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


def _read_sidecar(sidecar: Path) -> StoredTrace | None:
    """The index entry a sidecar describes; None (logged) if it is
    unusable or its body is missing, None (silent) if it does not exist."""
    try:
        raw = sidecar.read_bytes()
    except FileNotFoundError:
        return None
    except OSError:
        log.warning("trace store: unreadable sidecar %s; skipping", sidecar.name)
        return None
    body = sidecar.with_name(sidecar.name[: -len(".meta.json")] + ".clt")
    if not body.is_file():
        # Impossible while the body is written first — tolerate it, but
        # don't index it.
        log.warning("trace store: sidecar %s has no trace body", sidecar.name)
        return None
    try:
        return StoredTrace(path=body, **json.loads(raw.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError):
        log.warning("trace store: unreadable sidecar %s; skipping", sidecar.name)
    except TypeError:
        # Sidecar from an older/newer schema (missing or extra keys).
        # Skipping keeps the service bootable; the trace can be
        # re-uploaded (same digest, fresh sidecar).
        log.warning(
            "trace store: sidecar %s does not match this build's schema; "
            "skipping", sidecar.name,
        )
    return None


def stored_traces(root: str | Path) -> list[StoredTrace]:
    """The traces a store directory holds, read-only.

    Unlike opening a private :class:`TraceStore` this deletes nothing,
    so it is safe next to a live service: an upload in flight (a staging
    file, or a body whose sidecar has not landed) is simply not listed
    yet.
    """
    entries = (_read_sidecar(s) for s in sorted(Path(root).glob("*.meta.json")))
    return [entry for entry in entries if entry is not None]


class TraceStore:
    """Digest-keyed trace files in one directory, private or shared."""

    def __init__(self, root: str | Path, shared: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shared = shared
        entries = stored_traces(self.root)
        self._index: dict[str, StoredTrace] = {e.digest: e for e in entries}
        self._lock = threading.Lock()
        if not shared:
            reap_staging(self.root)
            self._reap_orphans({e.path for e in entries})

    # -- writes --------------------------------------------------------------

    def put_trace(self, trace: Trace, name: str | None = None) -> StoredTrace:
        """Store an in-memory trace; returns the (possibly existing) entry."""
        digest = trace_digest(trace)
        with self._lock:
            existing = self._index.get(digest)
        if existing is not None:
            return existing
        # Body first, sidecar second: a crash in between leaves an orphan
        # body, never a sidecar pointing at a missing or torn body.  No
        # lock: two puts of one digest write identical bytes.
        path = self.root / f"{digest}.clt"
        write_atomic(path, lambda staging: write_trace(trace, staging, fmt="clt"))
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
        # Dotted: invisible to rescans, reaped by a private open if a
        # crash leaves it.
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
        if entry is None and self.shared:
            # A ring peer may have uploaded this trace after we opened
            # the store.  Adopt its sidecar lazily.
            entry = self._adopt(digest)
        if entry is None:
            raise ServiceError(f"no such trace: {digest}", status=404)
        return entry

    def _adopt(self, digest: str) -> StoredTrace | None:
        if not digest.isalnum():  # a name in this directory, nothing else
            return None
        entry = _read_sidecar(self.root / f"{digest}.meta.json")
        if entry is None:
            return None
        with self._lock:
            return self._index.setdefault(digest, entry)

    def resolve(self, digests: list[str] | tuple[str, ...]) -> list[str]:
        """Digests -> worker-ready file paths (404s on any unknown digest)."""
        return [str(self.get(d).path) for d in digests]

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
                "shared": self.shared,
            }

    # -- persistence ---------------------------------------------------------

    def _write_sidecar(self, entry: StoredTrace) -> None:
        blob = json.dumps(entry.to_dict()).encode("utf-8")
        write_atomic(self.root / f"{entry.digest}.meta.json", blob)

    def _reap_orphans(self, indexed: set[Path]) -> None:
        """Delete bodies no sidecar indexes: the residue of a crash inside
        :meth:`put_trace`.  Invisible forever otherwise, they would leak
        disk across crashes.  Private stores only."""
        for body in sorted(self.root.glob("*.clt")):
            if body not in indexed and not body.name.startswith("."):
                log.warning("trace store: reaping orphaned trace body %s", body.name)
                body.unlink(missing_ok=True)
