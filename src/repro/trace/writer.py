"""Trace serialization.

Two formats are supported:

``.clt`` (binary, default)
    ``CLTRACE1`` magic, an 8-byte little-endian header length, a JSON
    header (objects, thread names, metadata) and the raw numpy record
    block.  Compact and fast — the analog of the paper's flushed-on-exit
    binary trace file.

``.jsonl``
    A self-describing line-oriented format: one JSON header line followed
    by one JSON object per event.  Slow but diff-able and greppable.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any

import numpy as np

from repro._durable import write_atomic
from repro.errors import TraceFormatError
from repro.trace.events import EventType
from repro.trace.schema import known_etypes
from repro.trace.trace import ObjectInfo, Trace

__all__ = ["MAGIC", "write_trace", "header_dict"]

MAGIC = b"CLTRACE1"
_LEN_FMT = "<Q"

#: suffix -> format implied when ``fmt`` is not given.
_SUFFIX_FORMATS = {".clt": "clt", ".jsonl": "jsonl"}


def header_dict(trace: Trace) -> dict[str, Any]:
    """JSON-serializable header describing a trace's metadata."""
    return {
        "objects": {
            str(obj): {"kind": int(info.kind), "name": info.name}
            for obj, info in trace.objects.items()
        },
        "threads": {str(tid): name for tid, name in trace.threads.items()},
        "meta": trace.meta,
        "nevents": len(trace),
    }


def record_bytes(records: np.ndarray) -> memoryview:
    """The raw bytes of a record block, without copying a contiguous one
    (``tobytes()`` would copy the whole trace for every hash or write)."""
    return memoryview(np.ascontiguousarray(records)).cast("B")


def write_trace(trace: Trace, path: str | Path, fmt: str | None = None) -> Path:
    """Write a trace to ``path``.

    ``fmt`` is ``"clt"`` (binary) or ``"jsonl"``; when omitted it is
    inferred from the suffix.  Any *other* suffix without an explicit
    ``fmt`` raises: silently writing the binary format into ``x.json``
    produces a file that lies about its own content.  (Reading is
    unaffected — :func:`repro.trace.read_trace` sniffs magic bytes, not
    suffixes.)
    """
    path = Path(path)
    if fmt is None:
        fmt = _SUFFIX_FORMATS.get(path.suffix)
        if fmt is None:
            raise TraceFormatError(
                f"{path}: ambiguous suffix {path.suffix!r} — pass "
                "fmt='clt' or fmt='jsonl' to write_trace"
            )
    if fmt == "jsonl":
        _write_jsonl(trace, path)
    elif fmt == "clt":
        _write_binary(trace, path)
    else:
        raise TraceFormatError(f"unknown trace format {fmt!r}; expected 'clt' or 'jsonl'")
    return path


def _write_binary(trace: Trace, path: Path) -> None:
    header = json.dumps(header_dict(trace)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(_LEN_FMT, len(header)))
        fh.write(header)
        fh.write(record_bytes(trace.records))


def _write_jsonl(trace: Trace, path: Path) -> None:
    """Write the ``.jsonl`` form durably, or nothing: an event type the
    format cannot name is refused before the file is touched, and any
    later failure leaves no partial file that would read as a clean
    short trace."""
    known = known_etypes(trace.records)
    if not known.all():
        i = int(np.argmin(known))
        raise TraceFormatError(
            f"{path}: record {i}: unknown event type {int(trace.records['etype'][i])}"
        )

    names = {int(et): et.name for et in EventType}

    def write(staging: Path) -> None:
        with open(staging, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header_dict(trace)}) + "\n")
            for seq, time, tid, etype, obj, arg in trace.records.tolist():
                fh.write(
                    json.dumps(
                        {
                            "seq": seq,
                            "time": time,
                            "tid": tid,
                            "etype": names[etype],
                            "obj": obj,
                            "arg": arg,
                        }
                    )
                    + "\n"
                )

    write_atomic(path, write)


def header_fields(raw: Any) -> dict[str, Any]:
    """The inverse of :func:`header_dict`: ``objects``, ``threads`` and
    ``meta`` keyword arguments for :class:`Trace` from a parsed header.

    Any malformed shape raises :class:`TraceFormatError`.
    """
    if not isinstance(raw, dict):
        raise TraceFormatError("header is not a JSON object")
    if not isinstance(raw.get("meta", {}), dict):
        raise TraceFormatError("header 'meta' is not a JSON object")
    try:
        return {
            "objects": objects_from_header(raw),
            "threads": {int(t): name for t, name in raw.get("threads", {}).items()},
            "meta": raw.get("meta", {}),
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed header: {exc}") from None


def objects_from_header(raw: dict[str, Any]) -> dict[int, ObjectInfo]:
    """Rebuild the object table from a parsed JSON header.

    A header entry without ``name`` or ``kind``, or with values of the
    wrong type, raises :class:`TraceFormatError` naming the object.
    """
    from repro.trace.events import ObjectKind

    entries = raw.get("objects", {})
    if not isinstance(entries, dict):
        raise TraceFormatError("header 'objects' is not a JSON object")
    objects = {}
    for obj, entry in entries.items():
        try:
            objects[int(obj)] = ObjectInfo(
                obj=int(obj), kind=ObjectKind(entry["kind"]), name=entry["name"]
            )
        except KeyError as exc:
            raise TraceFormatError(
                f"header object {obj!r} has no {exc.args[0]!r} key"
            ) from None
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"header object {obj!r}: {exc}") from None
    return objects
