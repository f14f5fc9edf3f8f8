"""The directory the result cache keeps its spilled entries in.

:class:`LocalDiskBackend` stores keys as files under one root, written
by :func:`repro._durable.write_atomic`, so a crash or power cut can
never leave a torn visible entry.  A *private* directory belongs to one
service, which reaps crashed writers' staging files when it opens it.
A *shared* directory (``serve --shared-dir``) is written by every ring
node at once, so opening it deletes nothing: a dotted staging file
there may be a peer's write in flight.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro._durable import reap_staging, write_atomic
from repro.errors import ServiceError

__all__ = ["BackendMissing", "LocalDiskBackend"]


class BackendMissing(ServiceError):
    """A requested key does not exist in the backend."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no such stored object: {key}", status=404)


class LocalDiskBackend:
    """Keys are files under ``root``, written by :func:`write_atomic`.

    ``'/'`` in a key maps to a subdirectory.  Dotfiles under the root
    (staging files) are invisible to :meth:`keys` — they are working
    files, not stored objects.
    """

    def __init__(self, root: str | Path, shared: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shared = shared
        if not shared:
            reap_staging(self.root)

    def _path(self, key: str) -> Path:
        path = (self.root / key).resolve()
        if not path.is_relative_to(self.root.resolve()):
            raise ServiceError(f"invalid storage key: {key!r}")
        return path

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` atomically (overwrite allowed)."""
        dest = self._path(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(dest, data)

    def get(self, key: str) -> bytes:
        """Read a key's bytes; raises :class:`BackendMissing`."""
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise BackendMissing(key) from None

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        """Remove a key (missing keys are ignored — deletes are retried)."""
        self._path(key).unlink(missing_ok=True)

    def keys(self, prefix: str = "") -> list[str]:
        """All keys under ``prefix``, sorted by name."""
        return sorted(self._iter_keys(prefix))

    def keys_oldest_first(self, prefix: str = "") -> list[str]:
        """Keys ordered oldest-write-first (the cache's trim order)."""

        def mtime(key: str) -> float:
            try:
                return self._path(key).stat().st_mtime
            except OSError:
                return 0.0

        return sorted(self._iter_keys(prefix), key=lambda k: (mtime(k), k))

    def _iter_keys(self, prefix: str) -> Iterable[str]:
        for path in self.root.rglob("*"):
            if not path.is_file() or path.name.startswith("."):
                continue
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                yield key
