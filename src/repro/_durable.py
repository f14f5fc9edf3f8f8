"""One durable write (stage, fsync, rename, fsync the directory) for
every file :mod:`repro.service` and :mod:`repro.fleet` keep: once it
returns the bytes survive a power cut, and no reader ever finds a torn
or empty file at the destination."""

from __future__ import annotations

import os
import uuid
from collections.abc import Callable
from pathlib import Path

__all__ = ["fsync_path", "reap_staging", "write_atomic"]


def write_atomic(dest: Path, data: bytes | Callable[[Path], object]) -> None:
    """Durably replace ``dest`` with ``data``: the bytes, or a function
    that writes the file at the path it is given (so a large body
    streams to disk)."""
    # Unique, so concurrent writers never share one; dotted, so listings skip it.
    staging = dest.parent / f".{dest.name}.{uuid.uuid4().hex}.tmp"
    try:
        if callable(data):
            data(staging)
        else:
            staging.write_bytes(data)
        fsync_path(staging)  # the bytes are on disk before a name points at them
        os.replace(staging, dest)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    fsync_path(dest.parent)  # and the rename survives a power cut


def reap_staging(directory: Path) -> None:
    """Remove the staging files crashed writers left in ``directory``."""
    for stale in directory.glob(".*.tmp"):
        stale.unlink(missing_ok=True)


def fsync_path(path: Path) -> None:
    """Flush a file's bytes, or a directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
