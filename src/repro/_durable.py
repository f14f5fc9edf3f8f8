"""Durable writes for every file :mod:`repro.service` and
:mod:`repro.fleet` keep.

* :func:`write_atomic` replaces a file (stage, fsync, rename, fsync the
  directory): once it returns the bytes survive a power cut, and no
  reader ever finds a torn or empty file at the destination.
* :func:`append_durable` appends to a log or a spool (write, fsync, and
  fsync the directory when the append created the file): once it
  returns the appended bytes survive a power cut.  A reader may see a torn tail
  while an append is in flight, so a log's reader drops it.
"""

from __future__ import annotations

import os
import uuid
from collections.abc import Callable
from pathlib import Path

__all__ = ["append_durable", "fsync_path", "reap_staging", "write_atomic"]


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


def append_durable(path: Path, *blocks: bytes | memoryview) -> None:
    """Durably append ``blocks``, in order, to ``path`` with one fsync,
    creating the file if needed.

    On an error the file is cut back to its old length (or removed, if
    this append created it), so a failed append leaves no record behind
    for a later one to follow.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644)
        created = True
    except FileExistsError:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        created = False
    try:
        size = os.fstat(fd).st_size
        try:
            for block in blocks:
                view = memoryview(block)
                while view:
                    view = view[os.write(fd, view):]
            os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)
    if created:
        try:
            fsync_path(path.parent)  # the new name survives a power cut too
        except BaseException:
            path.unlink(missing_ok=True)
            raise


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
