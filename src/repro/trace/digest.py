"""Content-addressed trace digests.

The analysis service (:mod:`repro.service`) keys its result cache and
trace store on a digest of the trace *content*, not of the container
file: the same execution uploaded as ``.clt`` or ``.jsonl`` must hash to
the same address, or re-analysis of a re-uploaded trace would miss the
cache.  :func:`trace_digest` therefore hashes a canonical serialization
(sorted-key JSON header + the raw numpy record block), while
:func:`file_digest` is a plain byte hash for opaque blobs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.trace.trace import Trace
from repro.trace.writer import header_dict, record_bytes

__all__ = ["trace_digest", "file_digest"]

_DIGEST_VERSION = b"CLDIGEST1"


def trace_digest(trace: Trace) -> str:
    """Canonical content digest of a trace (hex sha256).

    Invariant under the on-disk container format: a trace written to
    ``.clt`` and to ``.jsonl`` and read back yields the same digest.
    """
    h = hashlib.sha256()
    h.update(_DIGEST_VERSION)
    header = json.dumps(header_dict(trace), sort_keys=True, separators=(",", ":"))
    h.update(header.encode("utf-8"))
    h.update(record_bytes(trace.records))
    return h.hexdigest()


def file_digest(path: str | Path) -> str:
    """Plain sha256 of a file's bytes (streaming, constant memory)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
