"""Streaming trace ingestion: chunked-append sessions for the service.

The batch pipeline uploads a complete trace and analyzes it post-mortem;
this module lets a *running* instrumented program ship its trace in
framed chunks (:mod:`repro.trace.framing`) and be diagnosed live:

* chunks land in a bounded per-session **pending queue** — when the
  producer outruns ingestion the service answers 429 (backpressure)
  instead of buffering without limit;
* a single **ingest thread** drains the queues and does two things per
  group of chunks: spool the raw records to disk and checkpoint the
  session.  Its work and the service's memory are O(chunk), not
  O(trace);
* a **snapshot** (``GET /streams/<sid>/snapshot``) is the exact
  critical lock analysis of the durable spool prefix
  (:class:`repro.core.online.OnlineAnalyzer`).  It is computed on
  request, at most once per ingested-chunk count: the session caches
  its JSON and text, not the records;
* chunk ids are **sequential per session**: the next expected id is
  accepted, anything already ingested is an idempotent duplicate (safe
  retries), and a gap is a hard 409 — the analyzer must never see a
  reordered stream silently;
* **finalize** drains the queue, assembles the spooled records into a
  canonical :class:`~repro.trace.Trace` (same sort + renumber as the
  batch path, so the digest and every downstream analysis are identical
  to a whole-file upload) and hands it to the caller.

Sessions are **checkpointed**: the ingest thread takes every chunk
pending for a session as one group, appends it to the spool with one
fsync (``append_durable``), and then rewrites ``<sid>.ckpt.json`` once
(``write_atomic``; only then does an ack count the group's chunks as
durable), recording the session identity, the chunks on disk and the
exact spool byte offset.  If either write fails, the group stays
pending and unacknowledged, the error is logged with the session id,
and the session is retried after :data:`RETRY_DELAY` while other
sessions keep ingesting; a retry first cuts the spool back to the
checkpointed offset, so no group lands in the spool twice.  A restarted
server rebuilds every open session from its checkpoint — truncating any
torn spool tail past the checkpointed offset — so producers
``GET /streams/<sid>``, see the durable ``next_chunk``, and resume from
the last acknowledged chunk instead of getting 404s and losing the
stream.  Nothing is replayed: the first snapshot reads the spool.

A finalized session is **retired** once its trace is stored: its files
and buffers go, and only its final status record stays (the newest
:data:`MAX_RETIRED` of them), so ``GET /streams/<sid>`` still answers
``finalized`` with the trace digest.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any

import numpy as np

from repro._durable import append_durable, fsync_path, reap_staging, write_atomic
from repro.core.online import OnlineAnalyzer
from repro.errors import ReproError, ServiceError, TraceFormatError
from repro.trace.framing import iter_frames, sort_stream_records
from repro.trace.schema import EVENT_DTYPE, known_etypes
from repro.trace.trace import Trace
from repro.trace.writer import header_fields, record_bytes

__all__ = ["StreamSession", "StreamStore"]

log = logging.getLogger("repro.service")

# Stream lifecycle states.
OPEN = "open"
FINALIZING = "finalizing"
FINALIZED = "finalized"

#: Seconds before a session whose spool append or checkpoint failed is
#: retried; other sessions ingest meanwhile.
RETRY_DELAY = 1.0

#: Retired sessions whose status records are kept (the newest), as
#: JobStore bounds its finished history.
MAX_RETIRED = 1024


class StreamSession:
    """One chunked-append ingestion session (bookkeeping only)."""

    __slots__ = (
        "id", "name", "meta", "created_at", "state", "next_chunk",
        "ingested_chunks", "events", "bytes", "duplicates", "rejected_429",
        "pending", "spool_path", "digest", "max_pending", "spool_offset",
        "spooled_events", "resumed", "retry_at", "snapshot_cache",
    )

    def __init__(self, sid: str, name: str, meta: dict, spool_path: Path,
                 max_pending: int):
        self.id = sid
        self.name = name
        self.meta = meta
        self.created_at = time.time()
        self.state = OPEN
        self.next_chunk = 0            # next expected chunk id
        self.ingested_chunks = 0       # chunks spooled and checkpointed
        self.events = 0
        self.bytes = 0
        self.duplicates = 0
        self.rejected_429 = 0
        self.pending: deque[np.ndarray] = deque()
        self.spool_path = spool_path
        self.digest: str | None = None
        self.max_pending = max_pending
        self.spool_offset = 0          # checkpointed bytes in the spool file
        self.spooled_events = 0        # checkpointed events in the spool file
        self.resumed = False           # rebuilt from a checkpoint?
        self.retry_at: float | None = None  # monotonic time of the next commit try
        # (ingested_chunks, snapshot JSON, {top: rendered text}) of the last snapshot
        self.snapshot_cache: tuple[int, dict[str, Any], dict[Any, str]] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "created_at": self.created_at,
            "chunks": self.next_chunk,
            "ingested_chunks": self.ingested_chunks,
            "pending_chunks": len(self.pending),
            "events": self.events,
            "bytes": self.bytes,
            "duplicates": self.duplicates,
            "rejected_429": self.rejected_429,
            "max_pending": self.max_pending,
            "digest": self.digest,
            "resumed": self.resumed,
        }

    # -- checkpointing -------------------------------------------------------

    def checkpoint_blob(self, chunks: int, offset: int, events: int) -> dict[str, Any]:
        """Durable bookkeeping: everything needed to resume this session.

        Only spooled progress is recorded (``chunks`` of them, ``events``
        records in ``offset`` spool bytes) — chunks still in the pending
        queue are not durable and the producer re-sends them after a
        restart (the ack contract makes that an idempotent duplicate at
        worst, never a double-ingest).
        """
        return {
            "version": 1,
            "id": self.id,
            "name": self.name,
            "meta": self.meta,
            "created_at": self.created_at,
            "chunks": chunks,
            "spool_offset": offset,
            "events": events,
            "bytes": self.bytes,
            "max_pending": self.max_pending,
        }


class StreamStore:
    """All live streaming sessions plus the shared ingest thread."""

    def __init__(
        self,
        root: str | Path,
        max_pending_chunks: int = 64,
        drain_timeout: float = 30.0,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_pending_chunks = max_pending_chunks
        self.drain_timeout = drain_timeout
        self._sessions: dict[str, StreamSession] = {}
        # Status records of retired sessions, oldest first.
        self._retired: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # chunks pending
        self._drained = threading.Condition(self._lock)  # a queue emptied
        self._closed = False
        self._paused = False  # test hook: freeze ingestion to force 429s
        reap_staging(self.root)
        self.recovered_sessions = self._recover()
        self._ingester = threading.Thread(
            target=self._ingest_loop, name="stream-ingest", daemon=True
        )
        self._ingester.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
        # Sessions keep their spool + checkpoint on disk (the restart
        # contract), also a finalized one whose trace was never stored.
        self._ingester.join(timeout=5.0)

    def pause_ingest(self) -> None:
        """Stop draining queues (tests: deterministic backpressure)."""
        with self._lock:
            self._paused = True

    def resume_ingest(self) -> None:
        with self._lock:
            self._paused = False
            self._work.notify_all()

    # -- session management ---------------------------------------------------

    def open(
        self,
        name: str = "",
        meta: dict | None = None,
        max_pending: int | None = None,
    ) -> StreamSession:
        sid = uuid.uuid4().hex[:12]
        session = StreamSession(
            sid,
            name=name,
            meta=dict(meta or {}),
            spool_path=self.root / f"{sid}.spool",
            max_pending=int(max_pending or self.max_pending_chunks),
        )
        with self._lock:
            if self._closed:
                raise ServiceError("stream store is closed", status=503)
        session.spool_path.touch()
        # The checkpoint's directory fsync also makes the new spool's
        # name durable, so acknowledged chunks cannot lose their file.
        self._write_checkpoint(session, 0, 0, 0)
        with self._lock:
            self._sessions[sid] = session
        return session

    def get(self, sid: str) -> StreamSession:
        """A live session: 404 if unknown, 409 once retired."""
        with self._lock:
            return self._live(sid)

    def status(self, sid: str) -> dict[str, Any]:
        """One session's status record, retired sessions included."""
        with self._lock:
            record = self._retired.get(sid)
            return record if record is not None else self._live(sid).to_dict()

    def records(self) -> list[dict[str, Any]]:
        """Every session's status record, oldest first."""
        with self._lock:
            records = [*self._retired.values(),
                       *(s.to_dict() for s in self._sessions.values())]
        return sorted(records, key=lambda r: r["created_at"])

    def stats(self) -> dict[str, Any]:
        with self._lock:
            open_sessions = [s for s in self._sessions.values() if s.state == OPEN]
            return {
                "sessions": len(self._sessions) + len(self._retired),
                "open": len(open_sessions),
                "pending_chunks": sum(len(s.pending) for s in open_sessions),
                "recovered": self.recovered_sessions,
            }

    # -- chunk ingestion -------------------------------------------------------

    def append_chunks(self, sid: str, body: bytes) -> dict[str, Any]:
        """Apply a body of one or more framed chunks to a session.

        Returns an ack dict; raises :class:`ServiceError` with status
        404 (unknown session), 409 (finalized session, sequence gap, or
        trailer frame), 429 (queue full — retry the *unacknowledged*
        frames after a pause) or 400 (malformed frame).
        """
        if not body:
            raise ServiceError("empty chunk body", status=400)
        try:
            frames = list(iter_frames(body))
        except TraceFormatError as exc:
            raise ServiceError(f"malformed chunk frame: {exc}", status=400) from exc
        accepted = 0
        accepted_events = 0
        duplicates = 0
        with self._lock:
            session = self._live(sid)
            if session.state != OPEN:
                raise ServiceError(
                    f"stream {sid} is {session.state}; no more chunks", status=409
                )
            for frame in frames:
                if frame.is_trailer:
                    raise ServiceError(
                        "trailer frames are not accepted here; "
                        f"POST /traces/{sid}/finalize instead",
                        status=409,
                    )
                if frame.chunk_id < session.next_chunk:
                    duplicates += 1  # idempotent retry of an applied chunk
                    session.duplicates += 1
                    continue
                if frame.chunk_id > session.next_chunk:
                    raise ServiceError(
                        f"stream {sid}: got chunk {frame.chunk_id}, expected "
                        f"{session.next_chunk} (gap)",
                        status=409,
                    )
                if len(session.pending) >= session.max_pending:
                    session.rejected_429 += 1
                    if accepted:
                        self._work.notify_all()
                    raise ServiceError(
                        f"stream {sid}: ingest queue full "
                        f"({len(session.pending)} chunks pending); retry",
                        status=429,
                    )
                try:
                    records = frame.records
                except TraceFormatError as exc:
                    raise ServiceError(str(exc), status=400) from exc
                known = known_etypes(records)
                if not known.all():
                    i = int(np.argmin(known))
                    raise ServiceError(
                        f"stream {sid}: chunk {frame.chunk_id}: record {i}: "
                        f"unknown event type {int(records['etype'][i])}",
                        status=400,
                    )
                session.pending.append(records)
                session.next_chunk = frame.chunk_id + 1
                session.events += len(records)
                session.bytes += len(frame.payload)
                accepted += 1
                accepted_events += len(records)
            self._work.notify_all()
            return {
                "session": session.id,
                "accepted": accepted,
                "accepted_events": accepted_events,
                "duplicates": duplicates,
                "next_chunk": session.next_chunk,
                "durable_chunk": session.ingested_chunks,
                "pending_chunks": len(session.pending),
                "events": session.events,
            }

    # -- queries ---------------------------------------------------------------

    def snapshot(
        self, sid: str, top: int | None = None, render: bool = False
    ) -> dict[str, Any]:
        """The exact analysis of one session's durable spool prefix: the
        ``top`` locks by critical-path time fraction, plus the report
        text when ``render`` is set.  422 if the prefix does not analyze.

        Analyzed at most once per ingested-chunk count: the session
        caches the JSON and the text, never the records.
        """
        with self._lock:  # the pair changes together, under this lock
            session = self._live(sid)
            chunks, events = session.ingested_chunks, session.spooled_events
            cached = session.snapshot_cache
        if cached is None or cached[0] != chunks or (render and top not in cached[2]):
            try:
                records = np.fromfile(session.spool_path, dtype=EVENT_DTYPE, count=events)
            except OSError:
                self.get(sid)  # retired meanwhile: 409
                raise
            analyzer = OnlineAnalyzer().observe_batch(records)
            try:
                texts = cached[2] if cached is not None and cached[0] == chunks else {}
                if render:
                    texts[top] = analyzer.render(top)
                cached = (chunks, analyzer.snapshot(), texts)
            except ReproError as exc:
                raise ServiceError(
                    f"stream {sid}: the first {events} events do not analyze: {exc}",
                    status=422,
                ) from exc
            session.snapshot_cache = cached
        snap = {**cached[1], "locks": cached[1]["locks"][:top]}
        snap["session"] = session.id
        snap["state"] = session.state
        snap["pending_chunks"] = len(session.pending)
        if render:
            snap["rendered"] = cached[2][top]
        return snap

    # -- finalize --------------------------------------------------------------

    def finalize(
        self, sid: str, header: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> tuple[StreamSession, Trace]:
        """Drain and assemble a session; returns the full trace.  The
        caller stores it, then :meth:`retire` deletes the session's files.

        ``header`` is the producer's JSON trace header (objects, thread
        names, meta).  The assembled records get the canonical
        normalization (stable sort by (time, seq) + dense renumber), so
        the resulting trace — and its content digest — is identical to
        the same events uploaded as one batch file.
        """
        header = header or {}
        try:  # before the state changes, so a bad header leaves it open
            fields = header_fields(header)
        except TraceFormatError as exc:
            raise ServiceError(f"stream {sid}: {exc}") from None
        deadline = time.monotonic() + (
            self.drain_timeout if timeout is None else timeout
        )
        with self._lock:
            session = self._live(sid)
            if session.state != OPEN:
                raise ServiceError(
                    f"stream {sid} is already {session.state}", status=409
                )
            session.state = FINALIZING
            while session.pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    session.state = OPEN  # give the caller another shot
                    raise ServiceError(
                        f"stream {sid}: ingest backlog did not drain in time",
                        status=504,
                    )
                self._work.notify_all()
                self._drained.wait(timeout=min(remaining, 0.25))
        records = np.fromfile(
            session.spool_path, dtype=EVENT_DTYPE, count=session.spooled_events
        )
        trace = Trace(
            records=sort_stream_records(records),
            objects=fields["objects"],
            threads=fields["threads"],
            meta=dict(fields["meta"]),
        )
        with self._lock:
            session.state = FINALIZED
        return session, trace

    def retire(self, session: StreamSession) -> None:
        """Durably delete a finalized session's files and let it go; call
        it only once its trace is stored, so a crash before then loses
        nothing.  Only its status record stays, bounded by :data:`MAX_RETIRED`.
        """
        session.spool_path.unlink(missing_ok=True)
        self._ckpt_path(session.id).unlink(missing_ok=True)
        fsync_path(self.root)
        with self._lock:
            self._sessions.pop(session.id, None)
            self._retired[session.id] = session.to_dict()
            while len(self._retired) > MAX_RETIRED:
                self._retired.popitem(last=False)

    def _live(self, sid: str) -> StreamSession:
        """Caller holds ``self._lock``."""
        session = self._sessions.get(sid)
        if session is not None:
            return session
        if sid in self._retired:
            raise ServiceError(f"stream {sid} is {FINALIZED}", status=409)
        raise ServiceError(f"no such stream session: {sid}", status=404)

    # -- checkpoint persistence ------------------------------------------------

    def _ckpt_path(self, sid: str) -> Path:
        return self.root / f"{sid}.ckpt.json"

    def _write_checkpoint(
        self, session: StreamSession, chunks: int, offset: int, events: int
    ) -> None:
        """Durably persist a session's bookkeeping at ``chunks`` chunks."""
        blob = json.dumps(session.checkpoint_blob(chunks, offset, events)).encode("utf-8")
        write_atomic(self._ckpt_path(session.id), blob)

    def _recover(self) -> int:
        """Rebuild open sessions from checkpoints left by a dead server.

        For each ``<sid>.ckpt.json``: truncate the spool to the
        checkpointed offset (a crash mid-spill leaves a torn tail past
        it — those events were never acknowledged as durable) and
        re-open the session at ``next_chunk = chunks-on-disk`` so the
        producer's next append resumes exactly after the last durable
        chunk.  The spool is not read: a snapshot reads it on request.
        """
        recovered = 0
        for ckpt in sorted(self.root.glob("*.ckpt.json")):
            try:
                blob = json.loads(ckpt.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                log.warning("stream recovery: unreadable checkpoint %s", ckpt)
                continue
            sid = str(blob.get("id") or ckpt.name[: -len(".ckpt.json")])
            spool = self.root / f"{sid}.spool"
            session = StreamSession(
                sid,
                name=str(blob.get("name", "")),
                meta=dict(blob.get("meta") or {}),
                spool_path=spool,
                max_pending=int(blob.get("max_pending") or self.max_pending_chunks),
            )
            session.created_at = float(blob.get("created_at", session.created_at))
            offset = int(blob.get("spool_offset", 0))
            have = spool.stat().st_size if spool.exists() else 0
            if have < offset:
                # The spool lost acknowledged bytes (filesystem damage,
                # manual truncation): chunk boundaries are unknowable, so
                # restart the session from zero rather than serve a lie.
                log.warning(
                    "stream recovery: %s spool has %d bytes, checkpoint "
                    "says %d; restarting session from chunk 0", sid, have, offset,
                )
                offset = 0
                blob["chunks"] = 0
                blob["events"] = 0
                blob["bytes"] = 0
            # Torn tail from a crash mid-spill: drop it. Those events
            # were never checkpointed, so the producer re-sends them.
            with open(spool, "ab") as fh:
                fh.truncate(offset)
            session.spool_offset = offset
            session.next_chunk = session.ingested_chunks = int(blob.get("chunks", 0))
            session.spooled_events = session.events = int(blob.get("events", 0))
            session.bytes = int(blob.get("bytes", 0))
            session.resumed = True
            self._sessions[sid] = session
            recovered += 1
            log.info(
                "stream recovery: resumed session %s at chunk %d (%d events)",
                sid, session.next_chunk, session.events,
            )
        return recovered

    # -- the ingest thread ------------------------------------------------------

    def _ingest_loop(self) -> None:
        while True:
            with self._lock:
                session, group = self._next_pending()
                while session is None:
                    if self._closed:
                        return
                    self._work.wait(self._retry_wait())
                    session, group = self._next_pending()
            # Spool + checkpoint outside the lock: ingestion cost must not
            # block producers posting to *other* sessions' queues.
            try:
                self._commit(session, group)
            except OSError:
                log.exception(
                    "stream %s: committing %d chunks failed; they stay pending, "
                    "retry in %gs", session.id, len(group), RETRY_DELAY,
                )
                with self._lock:
                    session.retry_at = time.monotonic() + RETRY_DELAY

    def _commit(self, session: StreamSession, group: list[np.ndarray]) -> None:
        """Spool one group with one fsync, checkpoint it once, then ack it."""
        if session.retry_at is not None:
            # A failed try may have spooled the group before its checkpoint
            # failed: cut back to the checkpoint, so it lands only once.
            os.truncate(session.spool_path, session.spool_offset)
        blocks = [record_bytes(records) for records in group]
        append_durable(session.spool_path, *blocks)
        offset = session.spool_offset + sum(block.nbytes for block in blocks)
        events = session.spooled_events + sum(len(records) for records in group)
        done = session.ingested_chunks + len(group)
        # Spool, then checkpoint, then ack: the checkpoint never claims
        # bytes the spool lacks, an ack never a chunk a restart drops.
        self._write_checkpoint(session, done, offset, events)
        with self._lock:
            for _ in group:
                session.pending.popleft()
            session.ingested_chunks = done
            session.spool_offset = offset
            session.spooled_events = events
            session.retry_at = None
            if not session.pending:
                self._drained.notify_all()

    def _next_pending(self) -> tuple[StreamSession | None, list[np.ndarray]]:
        """The first session with pending chunks not waiting out a retry,
        and all of them (at most its ``max_pending``).  Caller holds
        ``self._lock``."""
        if self._paused and not self._closed:
            return None, []
        now = time.monotonic()
        for session in self._sessions.values():
            if session.pending and (session.retry_at is None or session.retry_at <= now):
                return session, list(session.pending)
        return None, []

    def _retry_wait(self) -> float | None:
        """Seconds until the next failed session is due again, or ``None``
        (wait for new work).  Caller holds ``self._lock``."""
        due = [s.retry_at for s in self._sessions.values()
               if s.pending and s.retry_at is not None]
        return max(0.0, min(due) - time.monotonic()) if due else None
