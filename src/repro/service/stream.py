"""Streaming trace ingestion: chunked-append sessions for the service.

The batch pipeline uploads a complete trace and analyzes it post-mortem;
this module lets a *running* instrumented program ship its trace in
framed chunks (:mod:`repro.trace.framing`) and be diagnosed live:

* chunks land in a bounded per-session **pending queue** — when the
  producer outruns ingestion the service answers 429 (backpressure)
  instead of buffering without limit;
* a single **ingest thread** drains the queues, spools raw records to
  disk (service memory stays O(chunk), not O(trace)) and feeds the
  incremental estimator (:class:`repro.core.online.OnlineAnalyzer`),
  whose rolling snapshot is served while the stream is still open;
* chunk ids are **sequential per session**: the next expected id is
  accepted, anything already ingested is an idempotent duplicate (safe
  retries), and a gap is a hard 409 — the analyzer must never see a
  reordered stream silently;
* **finalize** drains the queue, assembles the spooled records into a
  canonical :class:`~repro.trace.Trace` (same sort + renumber as the
  batch path, so the digest and every downstream analysis are identical
  to a whole-file upload) and hands it to the caller.

Sessions are **checkpointed**: after every durably spooled chunk the
ingest thread rewrites ``<sid>.ckpt.json`` (tmp-then-replace, after an
fsync of the spool) recording the session identity, the number of
chunks on disk and the exact spool byte offset.  A restarted server
rebuilds every open session from its checkpoint — truncating any torn
spool tail past the checkpointed offset and replaying the spool through
a fresh :class:`OnlineAnalyzer` — so producers ``GET /streams/<sid>``,
see the durable ``next_chunk``, and resume from the last acknowledged
chunk instead of getting 404s and losing the stream.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.online import OnlineAnalyzer
from repro.errors import ServiceError, TraceFormatError
from repro.trace.framing import iter_frames, sort_stream_records
from repro.trace.schema import EVENT_DTYPE, known_etypes
from repro.trace.trace import Trace
from repro.trace.writer import objects_from_header

__all__ = ["StreamSession", "StreamStore"]

log = logging.getLogger("repro.service")

# Stream lifecycle states.
OPEN = "open"
FINALIZING = "finalizing"
FINALIZED = "finalized"

#: Records per block when replaying a spool at recovery (bounds memory).
_REPLAY_BLOCK = 1 << 18


class StreamSession:
    """One chunked-append ingestion session (bookkeeping only)."""

    __slots__ = (
        "id", "name", "meta", "created_at", "state", "next_chunk",
        "ingested_chunks", "events", "bytes", "duplicates", "rejected_429",
        "pending", "analyzer", "alock", "spool_path", "digest", "max_pending",
        "spool_offset", "spooled_events", "resumed",
    )

    def __init__(self, sid: str, name: str, meta: dict, spool_path: Path,
                 max_pending: int):
        self.id = sid
        self.name = name
        self.meta = meta
        self.created_at = time.time()
        self.state = OPEN
        self.next_chunk = 0            # next expected chunk id
        self.ingested_chunks = 0       # chunks fully spooled + estimated
        self.events = 0
        self.bytes = 0
        self.duplicates = 0
        self.rejected_429 = 0
        self.pending: deque[np.ndarray] = deque()
        self.analyzer = OnlineAnalyzer()
        self.alock = threading.Lock()  # guards analyzer reads vs ingest writes
        self.spool_path = spool_path
        self.digest: str | None = None
        self.max_pending = max_pending
        self.spool_offset = 0          # durable bytes in the spool file
        self.spooled_events = 0        # events durably on disk
        self.resumed = False           # rebuilt from a checkpoint?

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

    def checkpoint_blob(self) -> dict[str, Any]:
        """Durable bookkeeping: everything needed to resume this session.

        Only *ingested* progress is recorded — chunks still in the
        pending queue are not durable and the producer re-sends them
        after a restart (the ack contract makes that an idempotent
        duplicate at worst, never a double-ingest).
        """
        return {
            "version": 1,
            "id": self.id,
            "name": self.name,
            "meta": self.meta,
            "created_at": self.created_at,
            "chunks": self.ingested_chunks,
            "spool_offset": self.spool_offset,
            "events": self.spooled_events,
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
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # chunks pending
        self._drained = threading.Condition(self._lock)  # a queue emptied
        self._closed = False
        self._paused = False  # test hook: freeze ingestion to force 429s
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
        self._ingester.join(timeout=5.0)
        # Open sessions keep their spool + checkpoint on disk — that is
        # the restart contract.  Only retired sessions are swept.
        for session in list(self._sessions.values()):
            if session.state == FINALIZED:
                session.spool_path.unlink(missing_ok=True)
                self._ckpt_path(session.id).unlink(missing_ok=True)

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
        self._write_checkpoint(session)
        with self._lock:
            self._sessions[sid] = session
        return session

    def get(self, sid: str) -> StreamSession:
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise ServiceError(f"no such stream session: {sid}", status=404)
        return session

    def list(self) -> list[StreamSession]:
        with self._lock:
            return sorted(self._sessions.values(), key=lambda s: s.created_at)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            open_sessions = [s for s in self._sessions.values() if s.state == OPEN]
            return {
                "sessions": len(self._sessions),
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
            session = self._sessions.get(sid)
            if session is None:
                raise ServiceError(f"no such stream session: {sid}", status=404)
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

    def snapshot(self, sid: str, top: int | None = None) -> dict[str, Any]:
        """The incremental estimator's rolling view of one session."""
        session = self.get(sid)
        with session.alock:
            snap = session.analyzer.snapshot(top=top)
        snap["session"] = session.id
        snap["state"] = session.state
        snap["pending_chunks"] = len(session.pending)
        return snap

    def render_snapshot(self, sid: str, top: int = 8) -> str:
        session = self.get(sid)
        with session.alock:
            return session.analyzer.render(top)

    # -- finalize --------------------------------------------------------------

    def finalize(
        self, sid: str, header: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> tuple[StreamSession, Trace]:
        """Drain, assemble and retire a session; returns the full trace.

        ``header`` is the producer's JSON trace header (objects, thread
        names, meta).  The assembled records get the canonical
        normalization (stable sort by (time, seq) + dense renumber), so
        the resulting trace — and its content digest — is identical to
        the same events uploaded as one batch file.
        """
        header = header or {}
        deadline = time.monotonic() + (
            self.drain_timeout if timeout is None else timeout
        )
        with self._lock:
            session = self._sessions.get(sid)
            if session is None:
                raise ServiceError(f"no such stream session: {sid}", status=404)
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
        records = np.fromfile(session.spool_path, dtype=EVENT_DTYPE)
        trace = Trace(
            records=sort_stream_records(records),
            objects=objects_from_header(header),
            threads={
                int(t): name for t, name in header.get("threads", {}).items()
            },
            meta=dict(header.get("meta", {})),
        )
        with self._lock:
            session.state = FINALIZED
        session.spool_path.unlink(missing_ok=True)
        self._ckpt_path(sid).unlink(missing_ok=True)
        return session, trace

    def forget(self, sid: str) -> None:
        """Drop a finalized session from the listing."""
        with self._lock:
            self._sessions.pop(sid, None)

    # -- checkpoint persistence ------------------------------------------------

    def _ckpt_path(self, sid: str) -> Path:
        return self.root / f"{sid}.ckpt.json"

    def _write_checkpoint(self, session: StreamSession) -> None:
        """Atomically persist a session's durable bookkeeping."""
        blob = json.dumps(session.checkpoint_blob()).encode("utf-8")
        tmp = self.root / f".ckpt-{uuid.uuid4().hex}.tmp"
        tmp.write_bytes(blob)
        os.replace(tmp, self._ckpt_path(session.id))

    def _recover(self) -> int:
        """Rebuild open sessions from checkpoints left by a dead server.

        For each ``<sid>.ckpt.json``: truncate the spool to the
        checkpointed offset (a crash mid-spill leaves a torn tail past
        it — those events were never acknowledged as durable), replay
        the surviving spool through a fresh analyzer, and re-open the
        session at ``next_chunk = chunks-on-disk`` so the producer's
        next append resumes exactly after the last durable chunk.
        """
        for stale in self.root.glob(".ckpt-*.tmp"):
            stale.unlink(missing_ok=True)
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
            if have != offset:
                # Torn tail from a crash mid-spill: drop it. Those events
                # were never checkpointed, so the producer re-sends them.
                with open(spool, "ab") as fh:
                    fh.truncate(offset)
            else:
                spool.touch()
            session.spool_offset = offset
            session.next_chunk = session.ingested_chunks = int(blob.get("chunks", 0))
            session.spooled_events = session.events = int(blob.get("events", 0))
            session.bytes = int(blob.get("bytes", 0))
            session.resumed = True
            self._replay_spool(session)
            self._sessions[sid] = session
            recovered += 1
            log.info(
                "stream recovery: resumed session %s at chunk %d "
                "(%d events replayed)", sid, session.next_chunk, session.events,
            )
        return recovered

    def _replay_spool(self, session: StreamSession) -> None:
        """Rebuild the incremental estimator from the durable spool."""
        with open(session.spool_path, "rb") as fh:
            while True:
                block = np.fromfile(fh, dtype=EVENT_DTYPE, count=_REPLAY_BLOCK)
                if len(block) == 0:
                    break
                session.analyzer.observe_batch(block)

    # -- the ingest thread ------------------------------------------------------

    def _ingest_loop(self) -> None:
        while True:
            with self._lock:
                session, records = self._next_pending()
                while session is None:
                    if self._closed:
                        return
                    self._work.wait()
                    session, records = self._next_pending()
            # Spool + estimate outside the lock: ingestion cost must not
            # block producers posting to *other* sessions' queues.
            with open(session.spool_path, "ab") as fh:
                fh.write(records.tobytes())
                fh.flush()
                os.fsync(fh.fileno())
                offset = fh.tell()
            with session.alock:
                session.analyzer.observe_batch(records)
            with self._lock:
                session.pending.popleft()
                session.ingested_chunks += 1
                session.spool_offset = offset
                session.spooled_events += len(records)
                if not session.pending:
                    self._drained.notify_all()
            # Checkpoint *after* the spool is durable (fsync above): the
            # checkpoint never claims bytes the spool does not have.
            self._write_checkpoint(session)

    def _next_pending(self) -> tuple[StreamSession | None, np.ndarray | None]:
        if self._paused and not self._closed:
            return None, None
        for session in self._sessions.values():
            if session.pending:
                return session, session.pending[0]
        return None, None
