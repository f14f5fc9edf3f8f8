"""Chunk framing for streamed trace record blocks.

Batch traces travel as one monolithic ``.clt`` file; streaming splits
the same numpy record block into self-delimiting **frames** so a
producer can ship a trace incrementally — to the analysis service's
chunked-append endpoint, or to a growing ``.cls`` stream file on disk —
while every consumer stays in O(chunk) memory.

Frame layout (little-endian, no padding)::

    offset  size  content
    0       8     magic "CLCHUNK1"
    8       1     kind: 0 = RECORDS, 1 = TRAILER
    9       8     chunk id (u64; sequential from 0 per stream)
    17      8     payload length P (u64)
    25      4     crc32 of the payload (u32)
    29      P     payload

``RECORDS`` payloads are raw :data:`~repro.trace.schema.EVENT_DTYPE`
bytes (so ``P`` is a multiple of the record size).  A ``TRAILER`` frame
carries the JSON trace header (objects, threads, meta) and marks the
stream finalized; a ``.cls`` file is simply a sequence of RECORDS frames
followed by one TRAILER, which :func:`repro.trace.read_trace` can load
like any other container.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Iterator
from typing import Any, BinaryIO

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.schema import EVENT_DTYPE

__all__ = [
    "CHUNK_MAGIC",
    "FRAME_RECORDS",
    "FRAME_TRAILER",
    "FRAME_HEADER_SIZE",
    "Frame",
    "encode_records_frame",
    "encode_trailer_frame",
    "decode_frame",
    "iter_frames",
    "split_records",
    "sort_stream_records",
]

CHUNK_MAGIC = b"CLCHUNK1"

FRAME_RECORDS = 0
FRAME_TRAILER = 1

_HEAD_FMT = "<8sBQQI"  # magic, kind, chunk_id, payload_len, crc32
FRAME_HEADER_SIZE = struct.calcsize(_HEAD_FMT)


class Frame:
    """One decoded frame: records payload or the finalizing trailer."""

    __slots__ = ("kind", "chunk_id", "payload")

    def __init__(self, kind: int, chunk_id: int, payload: bytes):
        self.kind = kind
        self.chunk_id = chunk_id
        self.payload = payload

    @property
    def is_trailer(self) -> bool:
        return self.kind == FRAME_TRAILER

    @property
    def records(self) -> np.ndarray:
        """Decode a RECORDS payload into an event record array."""
        if self.kind != FRAME_RECORDS:
            raise TraceFormatError("trailer frames carry a header, not records")
        if len(self.payload) % EVENT_DTYPE.itemsize:
            raise TraceFormatError(
                f"chunk {self.chunk_id}: payload of {len(self.payload)} bytes "
                f"is not a whole number of {EVENT_DTYPE.itemsize}-byte records"
            )
        return np.frombuffer(self.payload, dtype=EVENT_DTYPE).copy()

    @property
    def header(self) -> dict[str, Any]:
        """Decode a TRAILER payload into the JSON trace header."""
        if self.kind != FRAME_TRAILER:
            raise TraceFormatError("records frames carry events, not a header")
        try:
            return json.loads(self.payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"corrupt trailer header: {exc}") from exc


def _encode(kind: int, chunk_id: int, payload: bytes) -> bytes:
    head = struct.pack(
        _HEAD_FMT, CHUNK_MAGIC, kind, chunk_id, len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return head + payload


def encode_records_frame(records: np.ndarray, chunk_id: int) -> bytes:
    """Frame one batch of event records as a streamable chunk."""
    if records.dtype != EVENT_DTYPE:
        raise TraceFormatError(
            f"records have dtype {records.dtype}, expected EVENT_DTYPE"
        )
    return _encode(FRAME_RECORDS, chunk_id, records.tobytes())


def encode_trailer_frame(header: dict[str, Any], chunk_id: int) -> bytes:
    """Frame the finalizing JSON header (objects, threads, meta)."""
    return _encode(FRAME_TRAILER, chunk_id, json.dumps(header).encode("utf-8"))


def decode_frame(data: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Decode one frame at ``offset``; returns (frame, next offset).

    Raises :class:`TraceFormatError` on bad magic, a short buffer, or a
    CRC mismatch — a truncated or corrupted chunk must never be fed to
    the analyzer silently.
    """
    if len(data) - offset < FRAME_HEADER_SIZE:
        raise TraceFormatError(
            f"truncated frame header: {len(data) - offset} bytes at offset {offset}"
        )
    magic, kind, chunk_id, plen, crc = struct.unpack_from(_HEAD_FMT, data, offset)
    if magic != CHUNK_MAGIC:
        raise TraceFormatError(f"bad chunk magic {magic!r} at offset {offset}")
    if kind not in (FRAME_RECORDS, FRAME_TRAILER):
        raise TraceFormatError(f"unknown frame kind {kind} at offset {offset}")
    start = offset + FRAME_HEADER_SIZE
    payload = data[start:start + plen]
    if len(payload) != plen:
        raise TraceFormatError(
            f"truncated frame payload: wanted {plen} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TraceFormatError(f"chunk {chunk_id}: payload CRC mismatch")
    return Frame(kind, chunk_id, payload), start + plen


def iter_frames(data: bytes) -> Iterator[Frame]:
    """Decode a buffer of zero or more concatenated frames."""
    offset = 0
    while offset < len(data):
        frame, offset = decode_frame(data, offset)
        yield frame


def read_frame(fh: BinaryIO) -> Frame | None:
    """Read one frame from a file object; ``None`` at a clean EOF.

    A *partial* frame (header or payload cut short) raises — callers
    tailing a growing file should remember the pre-read offset and seek
    back to retry once more bytes land (see ``repro.trace.reader``).
    """
    head = fh.read(FRAME_HEADER_SIZE)
    if not head:
        return None
    if len(head) < FRAME_HEADER_SIZE:
        raise TraceFormatError(f"truncated frame header: {len(head)} bytes")
    magic, kind, chunk_id, plen, crc = struct.unpack(_HEAD_FMT, head)
    if magic != CHUNK_MAGIC:
        raise TraceFormatError(f"bad chunk magic {magic!r}")
    if kind not in (FRAME_RECORDS, FRAME_TRAILER):
        raise TraceFormatError(f"unknown frame kind {kind}")
    payload = fh.read(plen)
    if len(payload) != plen:
        raise TraceFormatError(
            f"truncated frame payload: wanted {plen} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TraceFormatError(f"chunk {chunk_id}: payload CRC mismatch")
    return Frame(kind, chunk_id, payload)


def split_records(records: np.ndarray, chunk_events: int) -> Iterator[np.ndarray]:
    """Slice a record block into consecutive batches of ``chunk_events``."""
    if chunk_events <= 0:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    for start in range(0, len(records), chunk_events):
        yield records[start:start + chunk_events]


def sort_stream_records(records: np.ndarray) -> np.ndarray:
    """Normalize records into canonical trace order, as ``EVENT_DTYPE``.

    The one normalizer every record producer goes through: streamed
    chunks (arrival order, which for a live ring buffer can interleave
    threads slightly out of (time, seq) order) and the rows
    :meth:`Trace.from_events` packs (``records`` in
    :data:`~repro.trace.schema.ROW_DTYPE`, whose signed ``seq`` lets
    synthetic events sort first).  Stable sort by (time, seq), then
    renumber ``seq`` densely.  ``np.lexsort`` on the two columns is
    several times faster than ``np.argsort`` with ``order=``, which also
    compares the remaining fields on ties.

    Input already in (time, seq) order — a spool of in-order chunks, a
    capture — skips the sort: one O(n) comparison pass finds it, and the
    records are renumbered where they lie instead of gathered through an
    identity permutation (the gather costs ~8x the sort itself).  The
    result is byte-identical either way; a NaN time fails the check and
    takes the sort.  So pass an array you own: an ordered input is
    renumbered in place, and ``EVENT_DTYPE`` input is returned as is.
    An unordered input is left unmodified.
    """
    time, seq = records["time"], records["seq"]
    later = time[1:] > time[:-1]
    # Compare seq directly: np.diff of a uint64 seq wraps.
    later |= (time[1:] == time[:-1]) & (seq[1:] >= seq[:-1])
    out = records if later.all() else records[np.lexsort((seq, time))]
    out["seq"] = np.arange(len(out), dtype=out["seq"].dtype)
    return out.astype(EVENT_DTYPE, copy=False)
