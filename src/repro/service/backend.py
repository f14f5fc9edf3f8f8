"""Pluggable durable storage behind the trace store and result cache.

The service originally assumed one process with one local directory.
A :class:`StorageBackend` narrows what the stores actually need from
durability to five verbs — atomic ``put``, ``get``, ``exists``,
``delete``, ``keys`` — so the same :class:`~repro.service.store.TraceStore`
and :class:`~repro.service.cache.ResultCache` logic runs unchanged over:

* :class:`LocalDiskBackend` — keys are files under one root directory,
  written by :func:`repro._durable.write_atomic`, so a crash or power
  cut can never leave a torn visible object.  With the store's own root this reproduces the
  original on-disk layout byte for byte (it *is* the default).
* :class:`ObjectBackend` — keys are objects in an S3-style bucket
  reached through a client exposing ``put_object`` / ``get_object`` /
  ``delete_object`` / ``list_objects``.  Two in-process clients ship
  with it: :class:`MemoryObjectClient` (unit tests) and
  :class:`DirectoryObjectClient` (a bucket persisted as a flat
  directory — N service instances pointed at the same directory share
  one namespace, which is what the multi-node routing tests and the
  consistent-hash ring build on).

Backends are *namespaceable*: ``backend.scoped("traces")`` returns a
view with the prefix applied to every key, so one bucket cleanly holds
the trace store (``traces/``) and the result cache (``cache/``) without
the two ever seeing each other's keys.
"""

from __future__ import annotations

import threading
import urllib.parse
from pathlib import Path
from typing import Iterable, Protocol

from repro._durable import reap_staging, write_atomic
from repro.errors import ServiceError

__all__ = [
    "BackendMissing",
    "StorageBackend",
    "LocalDiskBackend",
    "ObjectBackend",
    "MemoryObjectClient",
    "DirectoryObjectClient",
    "make_backend",
    "BACKEND_KINDS",
]

#: Backend specs accepted by ``serve --backend`` / :func:`make_backend`.
BACKEND_KINDS = ("local", "object", "memory")


class BackendMissing(ServiceError):
    """A requested key does not exist in the backend."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no such stored object: {key}", status=404)


class StorageBackend:
    """Durable key/bytes storage with atomic, all-or-nothing writes."""

    #: short human name ("local", "object:<bucket>") for /metrics and logs.
    name: str = "backend"

    # -- required verbs ------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` atomically (overwrite allowed)."""
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        """Read a key's bytes; raises :class:`BackendMissing`."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove a key (missing keys are ignored — deletes are retried)."""
        raise NotImplementedError

    def keys(self, prefix: str = "") -> list[str]:
        """All keys under ``prefix``, sorted by name."""
        raise NotImplementedError

    def scoped(self, prefix: str) -> "StorageBackend":
        """A view of this backend with ``prefix/`` prepended to keys."""
        raise NotImplementedError

    # -- optional fast paths -------------------------------------------------

    def put_path(self, key: str, src: Path) -> None:
        """Store a copy of a local file's bytes as ``key``; ``src`` stays."""
        self.put(key, src.read_bytes())

    def keys_oldest_first(self, prefix: str = "") -> list[str]:
        """Keys ordered oldest-write-first where the backend knows; the
        fallback is name order (good enough to seed a cache trim order)."""
        return self.keys(prefix)


# ---------------------------------------------------------------------------
# Local disk
# ---------------------------------------------------------------------------


class LocalDiskBackend(StorageBackend):
    """Keys are files under ``root``, written by :func:`write_atomic`.

    ``'/'`` in a key maps to a subdirectory.  Dotfiles under the root
    (staging files, reaped on open) are invisible to :meth:`keys` —
    they are working files, not stored objects.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        reap_staging(self.root)
        self.name = "local"

    def _path(self, key: str) -> Path:
        path = (self.root / key).resolve()
        if not path.is_relative_to(self.root.resolve()):
            raise ServiceError(f"invalid storage key: {key!r}")
        return path

    def put(self, key: str, data: bytes) -> None:
        dest = self._path(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(dest, data)

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise BackendMissing(key) from None

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(self._iter_keys(prefix))

    def keys_oldest_first(self, prefix: str = "") -> list[str]:
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

    def scoped(self, prefix: str) -> "LocalDiskBackend":
        return LocalDiskBackend(self.root / prefix)


# ---------------------------------------------------------------------------
# S3-style object storage
# ---------------------------------------------------------------------------


class ObjectClient(Protocol):
    """The minimal S3-shaped surface :class:`ObjectBackend` consumes."""

    def put_object(self, key: str, data: bytes) -> None: ...

    def get_object(self, key: str) -> bytes:  # raises KeyError when absent
        ...

    def delete_object(self, key: str) -> None: ...

    def list_objects(self, prefix: str = "") -> list[str]: ...


class MemoryObjectClient:
    """In-process bucket fake: a thread-safe dict with S3 verbs.

    Object writes are replace-the-value atomic by construction, which
    is exactly the consistency model of a real object store — readers
    see the old blob or the new blob, never a torn one.
    """

    def __init__(self):
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.puts = 0
        self.gets = 0

    def put_object(self, key: str, data: bytes) -> None:
        with self._lock:
            self._objects[key] = bytes(data)
            self.puts += 1

    def get_object(self, key: str) -> bytes:
        with self._lock:
            self.gets += 1
            return self._objects[key]

    def delete_object(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def list_objects(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))


class DirectoryObjectClient:
    """Bucket fake persisted as one flat directory (multi-process safe).

    Keys are percent-encoded into single filenames — no hierarchy on
    disk, exactly like an object store's flat namespace — and writes go
    through :func:`write_atomic`, so concurrent service instances
    sharing the directory get last-writer-wins atomic puts.  This is
    the backend the two-instance routing tests (and any on-box fleet)
    point at a shared path.  Opening it reaps crashed writers' staging
    files (a peer's put in flight then fails instead of landing torn).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        reap_staging(self.root)

    def _fname(self, key: str) -> Path:
        return self.root / urllib.parse.quote(key, safe="")

    def put_object(self, key: str, data: bytes) -> None:
        write_atomic(self._fname(key), data)

    def get_object(self, key: str) -> bytes:
        try:
            return self._fname(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def delete_object(self, key: str) -> None:
        self._fname(key).unlink(missing_ok=True)

    def list_objects(self, prefix: str = "") -> list[str]:
        out = []
        for path in self.root.iterdir():
            if not path.is_file() or path.name.startswith("."):
                continue
            key = urllib.parse.unquote(path.name)
            if key.startswith(prefix):
                out.append(key)
        return sorted(out)


class ObjectBackend(StorageBackend):
    """S3-style objects behind the :class:`StorageBackend` verbs.

    ``prefix`` namespaces every key (``scoped`` stacks further
    prefixes), so independent stores share one bucket/client without
    key collisions.  There is no local addressability: callers that
    need a file (worker processes read trace *files*) materialize
    through :meth:`get` — see ``TraceStore._materialize``.
    """

    def __init__(self, client: ObjectClient, prefix: str = "", name: str = "object"):
        self.client = client
        self.prefix = prefix
        self.name = name

    def _k(self, key: str) -> str:
        return f"{self.prefix}{key}"

    def put(self, key: str, data: bytes) -> None:
        self.client.put_object(self._k(key), data)

    def get(self, key: str) -> bytes:
        try:
            return self.client.get_object(self._k(key))
        except KeyError:
            raise BackendMissing(key) from None

    def exists(self, key: str) -> bool:
        try:
            self.client.get_object(self._k(key))
            return True
        except KeyError:
            return False

    def delete(self, key: str) -> None:
        self.client.delete_object(self._k(key))

    def keys(self, prefix: str = "") -> list[str]:
        full = self._k(prefix)
        return sorted(
            k[len(self.prefix):]
            for k in self.client.list_objects(full)
        )

    def scoped(self, prefix: str) -> "ObjectBackend":
        return ObjectBackend(
            self.client, prefix=f"{self.prefix}{prefix}/", name=self.name
        )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def make_backend(
    spec: str, data_dir: str | Path, object_root: str | Path | None = None
) -> StorageBackend | None:
    """Resolve a ``serve --backend`` spec to a backend instance.

    * ``"local"`` → ``None``: the stores keep their original private
      local-disk layout (the default; on-disk format unchanged).
    * ``"object"`` → an :class:`ObjectBackend` over a
      :class:`DirectoryObjectClient` bucket at ``object_root``
      (default: ``<data_dir>/objects``).  Point several instances at
      one shared ``object_root`` to share the namespace.
    * ``"memory"`` → an :class:`ObjectBackend` over a private
      :class:`MemoryObjectClient` (tests and demos; nothing persists).
    """
    if spec == "local":
        return None
    if spec == "object":
        bucket = Path(object_root) if object_root is not None else Path(data_dir) / "objects"
        return ObjectBackend(
            DirectoryObjectClient(bucket), name=f"object:{bucket}"
        )
    if spec == "memory":
        return ObjectBackend(MemoryObjectClient(), name="object:memory")
    raise ServiceError(
        f"unknown storage backend {spec!r}; expected one of {', '.join(BACKEND_KINDS)}"
    )
