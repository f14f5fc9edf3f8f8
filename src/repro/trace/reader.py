"""Trace deserialization (see :mod:`repro.trace.writer` for the formats).

Two reading modes live here:

* :func:`read_trace` — load a complete trace file in one call (any
  container: binary ``.clt``, framed ``.cls`` stream, ``.jsonl``);
* :func:`iter_trace_chunks` — yield event-record batches in O(chunk)
  memory from the same containers, optionally **tail-following** a file
  that is still being written (the ``repro live`` path).
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.events import EventType
from repro.trace.framing import CHUNK_MAGIC, read_frame, sort_stream_records
from repro.trace.schema import EVENT_DTYPE, FIELD_BOUNDS, known_etypes
from repro.trace.trace import Trace
from repro.trace.writer import MAGIC, header_fields

__all__ = ["read_trace", "iter_trace_chunks"]

_LEN_FMT = "<Q"
_LEN_SIZE = struct.calcsize(_LEN_FMT)


def _check_etypes(path: Path, records: np.ndarray, first: int = 0) -> None:
    """Reject a record batch holding an event type byte outside :class:`EventType`.

    ``first`` is the trace index of ``records[0]``, so the error names
    the offending record within the whole file.
    """
    known = known_etypes(records)
    if not known.all():
        i = int(np.argmin(known))
        raise TraceFormatError(
            f"{path}: record {first + i}: unknown event type {int(records['etype'][i])}"
        )


def read_trace(path: str | Path) -> Trace:
    """Load a trace written by :func:`repro.trace.write_trace`.

    The format is sniffed from the file contents, not the suffix, so
    renamed files still load.  Finalized chunk streams (``.cls``, see
    :mod:`repro.trace.framing`) load too.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return _read_binary(path)
    if head == CHUNK_MAGIC:
        return _read_stream(path)
    if not head:
        raise TraceFormatError(f"{path}: empty file is not a trace")
    if len(head) < len(MAGIC):
        # Too short for the binary magic, and a JSONL trace needs at
        # least its header line — nothing valid is this small.
        raise TraceFormatError(
            f"{path}: file too short ({len(head)} bytes) to be a trace"
        )
    return _read_jsonl(path)


def _read_binary_header(fh) -> dict:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    raw_len = fh.read(_LEN_SIZE)
    if len(raw_len) != _LEN_SIZE:
        raise TraceFormatError("truncated header length")
    (header_len,) = struct.unpack(_LEN_FMT, raw_len)
    # A corrupt length (one flipped high bit) must not become a huge read.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if header_len > left:
        raise TraceFormatError(
            f"truncated header: length field says {header_len} bytes, "
            f"{left} left in the file"
        )
    raw_header = fh.read(header_len)
    if len(raw_header) != header_len:
        raise TraceFormatError("truncated header")
    try:
        return json.loads(raw_header)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"corrupt header: {exc}") from exc


def _trace_fields(path: Path, header) -> dict:
    try:
        return header_fields(header)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def _read_binary(path: Path) -> Trace:
    with open(path, "rb") as fh:
        try:
            header = _read_binary_header(fh)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        fields = _trace_fields(path, header)
        try:
            nevents = int(header.get("nevents", 0))
        except (TypeError, ValueError):
            raise TraceFormatError(
                f"{path}: header nevents {header['nevents']!r} is not a count"
            ) from None
        expected = nevents * EVENT_DTYPE.itemsize
        # Size-check before reading so the record block is materialized
        # exactly once (np.fromfile), not as bytes + array copy.
        body_len = os.fstat(fh.fileno()).st_size - fh.tell()
        if body_len != expected:
            raise TraceFormatError(
                f"{path}: expected {expected} bytes of records for {nevents} "
                f"events, got {body_len}"
            )
        records = np.fromfile(fh, dtype=EVENT_DTYPE, count=nevents)
    if len(records) != nevents:
        raise TraceFormatError(
            f"{path}: record block shrank while reading "
            f"({len(records)} of {nevents} events)"
        )
    _check_etypes(path, records)
    return Trace(records=records, **fields)


def _read_stream(path: Path) -> Trace:
    """Assemble a finalized ``.cls`` chunk stream into a Trace."""
    batches: list[np.ndarray] = []
    header = None
    with open(path, "rb") as fh:
        while True:
            try:
                frame = read_frame(fh)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}: {exc}") from None
            if frame is None:
                break
            if frame.is_trailer:
                header = frame.header
            else:
                batches.append(frame.records)
    if header is None:
        raise TraceFormatError(
            f"{path}: chunk stream has no trailer frame (not finalized?)"
        )
    records = sort_stream_records(
        np.concatenate(batches) if batches else np.empty(0, dtype=EVENT_DTYPE)
    )
    _check_etypes(path, records)
    return Trace(records=records, **_trace_fields(path, header))


def _read_jsonl(path: Path) -> Trace:
    rows: list[tuple] = []
    header = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = _parse_jsonl_line(path, lineno, line)
                if isinstance(obj, dict) and "header" in obj:
                    header = obj["header"]
                    continue
                rows.append(_row_from_jsonl(path, lineno, len(rows), obj))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: neither a binary .clt trace (bad magic) nor UTF-8 JSONL: {exc}"
        ) from exc
    if header is None:
        raise TraceFormatError(f"{path}: missing JSONL header line")
    return Trace.from_events(rows, **_trace_fields(path, header))


def _parse_jsonl_line(path: Path, lineno: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}:{lineno}: not JSON: {exc}") from exc


_INT_FIELDS = ("seq", "tid", "obj", "arg")


def _row_from_jsonl(path: Path, lineno: int, index: int, obj) -> tuple:
    """Parse event line ``lineno``, the trace's ``index``-th record, into a
    ``(seq, time, tid, etype, obj, arg)`` row whose values fit the record."""
    where = f"{path}:{lineno}: record {index}"
    try:
        name = obj["etype"]
        if not isinstance(name, str) or name not in EventType.__members__:
            raise TraceFormatError(f"{where}: unknown event type {name!r}")
        time = float(obj["time"])
        ints = (int(obj["seq"]), int(obj["tid"]), int(obj.get("obj", -1)), int(obj.get("arg", 0)))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise TraceFormatError(f"{path}:{lineno}: bad event record: {exc}") from exc
    if not math.isfinite(time):
        raise TraceFormatError(f"{where}: time {time} is not finite")
    for field, value in zip(_INT_FIELDS, ints):
        low, high = FIELD_BOUNDS[field]
        if not low <= value <= high:
            raise TraceFormatError(f"{where}: {field} {value} out of range [{low}, {high}]")
    seq, tid, obj_id, arg = ints
    return (seq, time, tid, EventType[name], obj_id, arg)


# ---------------------------------------------------------------------------
# Incremental reading
# ---------------------------------------------------------------------------


def iter_trace_chunks(
    path: str | Path,
    chunk_events: int = 65536,
    follow: bool = False,
    poll_interval: float = 0.05,
    timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[np.ndarray]:
    """Yield event-record batches from a trace file in O(chunk) memory.

    Works on all three containers (sniffed, like :func:`read_trace`):

    * binary ``.clt`` — the record block is read ``chunk_events`` events
      at a time; the header's ``nevents`` is ignored, so a *growing*
      file (a flusher appending records past a pre-written header) reads
      cleanly up to the last complete record;
    * framed ``.cls`` streams — one batch per RECORDS frame (the
      producer chose the chunking); the trailer frame ends iteration;
    * ``.jsonl`` — events are parsed line-by-line and batched.

    With ``follow=True`` the iterator *tails* the file: at EOF (or a
    partial trailing record/frame/line) it sleeps ``poll_interval`` and
    retries, until ``stop()`` returns true or ``timeout`` seconds pass
    without any new data.  With ``follow=False`` a trailing partial
    record raises :class:`TraceFormatError` — silent truncation must not
    masquerade as a complete trace.

    Batches are yielded in file order with their original ``seq``/time
    values; consumers needing canonical trace order over the union
    should apply :func:`repro.trace.framing.sort_stream_records`.
    """
    path = Path(path)
    if chunk_events <= 0:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    waiter = _Waiter(follow, poll_interval, timeout, stop)
    # Sniff, waiting for the first bytes to land in follow mode.
    while True:
        with open(path, "rb") as fh:
            head = fh.read(max(len(MAGIC), len(CHUNK_MAGIC)))
        if len(head) >= len(MAGIC):
            break
        if not waiter.wait():
            if follow:
                return
            raise TraceFormatError(
                f"{path}: file too short ({len(head)} bytes) to be a trace"
            )
    if head.startswith(MAGIC):
        yield from _iter_binary_chunks(path, chunk_events, waiter)
    elif head.startswith(CHUNK_MAGIC):
        yield from _iter_stream_chunks(path, waiter)
    else:
        yield from _iter_jsonl_chunks(path, chunk_events, waiter)


class _Waiter:
    """Tail-follow pacing: sleep between polls, give up on stop/timeout."""

    def __init__(
        self,
        follow: bool,
        poll_interval: float,
        timeout: float | None,
        stop: Callable[[], bool] | None,
    ):
        self.follow = follow
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.stop = stop
        self._idle_since: float | None = None

    def note_progress(self) -> None:
        """New data was read; restart the idle-timeout clock."""
        self._idle_since = None

    def wait(self) -> bool:
        """Pause before re-polling; False = stop iterating (not an error)."""
        if not self.follow:
            return False
        if self.stop is not None and self.stop():
            return False
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
        elif self.timeout is not None and now - self._idle_since >= self.timeout:
            return False
        time.sleep(self.poll_interval)
        return True


def _iter_binary_chunks(
    path: Path, chunk_events: int, waiter: _Waiter
) -> Iterator[np.ndarray]:
    itemsize = EVENT_DTYPE.itemsize
    with open(path, "rb") as fh:
        # The header may itself still be mid-write in follow mode.
        while True:
            fh.seek(0)
            try:
                _read_binary_header(fh)
                break
            except TraceFormatError as exc:
                if not waiter.wait():
                    raise TraceFormatError(f"{path}: {exc}") from None
        offset = body = fh.tell()
        while True:
            avail = os.fstat(fh.fileno()).st_size - offset
            whole = min(avail // itemsize, chunk_events)
            if whole > 0:
                fh.seek(offset)
                records = np.fromfile(fh, dtype=EVENT_DTYPE, count=int(whole))
                _check_etypes(path, records, (offset - body) // itemsize)
                offset += len(records) * itemsize
                if len(records):
                    waiter.note_progress()
                    yield records
                    continue
            if not waiter.wait():
                leftover = os.fstat(fh.fileno()).st_size - offset
                if leftover and not waiter.follow:
                    raise TraceFormatError(
                        f"{path}: {leftover} trailing bytes are not a whole "
                        f"number of {itemsize}-byte records"
                    )
                return


def _iter_stream_chunks(path: Path, waiter: _Waiter) -> Iterator[np.ndarray]:
    with open(path, "rb") as fh:
        offset = 0
        seen = 0  # records yielded so far
        while True:
            fh.seek(offset)
            try:
                frame = read_frame(fh)
            except TraceFormatError as exc:
                # Partial frame: either still being appended (retry) or
                # genuinely truncated.
                if waiter.wait():
                    continue
                if waiter.follow:
                    return
                raise TraceFormatError(f"{path}: {exc}") from None
            if frame is None:
                if not waiter.wait():
                    return
                continue
            offset = fh.tell()
            waiter.note_progress()
            if frame.is_trailer:
                return  # finalized: the stream is complete
            records = frame.records
            _check_etypes(path, records, seen)
            seen += len(records)
            if len(records):
                yield records


def _iter_jsonl_chunks(
    path: Path, chunk_events: int, waiter: _Waiter
) -> Iterator[np.ndarray]:
    batch: list[tuple] = []
    with open(path, "rb") as fh:
        offset = 0
        lineno = 0
        seen = 0  # event records parsed so far
        saw_header = False
        while True:
            fh.seek(offset)
            raw = fh.readline()
            # A line still being written has no trailing newline yet.
            complete = raw.endswith(b"\n")
            if raw and (complete or not waiter.follow):
                offset = fh.tell()
                lineno += 1
                line = raw.decode("utf-8").strip()
                if line:
                    obj = _parse_jsonl_line(path, lineno, line)
                    if isinstance(obj, dict) and "header" in obj:
                        saw_header = True
                    else:
                        batch.append(_row_from_jsonl(path, lineno, seen, obj))
                        seen += 1
                        if len(batch) >= chunk_events:
                            yield np.array(batch, dtype=EVENT_DTYPE)
                            batch = []
                waiter.note_progress()
                continue
            if batch:
                yield np.array(batch, dtype=EVENT_DTYPE)
                batch = []
            if not waiter.wait():
                if not waiter.follow and not saw_header and lineno == 0:
                    raise TraceFormatError(f"{path}: missing JSONL header line")
                return
