"""Crash-recovery suite: kill the service at the worst moments, restart,
and assert nothing is lost, leaked, or silently wrong.

Every crash here is a power cut: the :func:`power_loss` fixture rolls
the data directory back to what was fsynced (unsynced bytes and
directory entries are lost), which is harsher than a process kill.

Three crash sites, per the durability contract:

* **mid-upload** — staging files and half-written store entries must be
  reaped on restart, never served and never leaked;
* **mid-spill** — a torn result-cache entry must read as a miss;
* **mid-stream** — an open chunked-append session must be rebuilt from
  its checkpoint; the producer resumes from the last acknowledged chunk
  and the finalized digest is byte-identical to a batch upload.

"Kill" here means dropping every in-memory object, cutting the power,
and re-opening the same data directory, after mutilating the on-disk
state exactly the way an untimely crash would have left it.
"""

import ast
import builtins
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro._durable
import repro.fleet.aggregate as aggregate
import repro.service.stream
from repro.fleet import FleetAggregator
from repro.service.api import ServiceAPI
from repro.service.cache import ResultCache
from repro.service.store import TraceStore
from repro.service.stream import StreamStore
from repro.trace import read_trace, trace_digest, write_trace
from repro.trace.framing import encode_records_frame, split_records
from repro.trace.schema import EVENT_DTYPE
from repro.trace.writer import header_dict

from tests.conftest import make_micro_program
from tests.fleet.fleethelpers import seeded_aggregator, synth_report

SRC = Path(repro._durable.__file__).parent


@pytest.fixture(scope="module")
def micro():
    return make_micro_program().run().trace


# ---------------------------------------------------------------------------
# The power-loss model.
# ---------------------------------------------------------------------------


class PowerLoss:
    """What survives a power cut under ``root``, as POSIX promises it.

    * A file's bytes survive as of its last fsync; a file never synced
      comes back empty.
    * A directory entry (a create, a rename or an unlink) survives only
      if its directory was fsynced after it.

    The model sees the service's I/O through the calls it makes:
    ``os.open``/``os.fsync``/``os.replace`` in :mod:`repro._durable` and
    the spool's ``open``/``os.fsync`` in :mod:`repro.service.stream`.
    Directories themselves are not modelled: each one created under
    ``root`` survives.
    """

    def __init__(self, root: Path):
        self.root = root
        self._lock = threading.RLock()
        self._fds: dict[int, Path] = {}  # open descriptor -> path
        self._ids: dict[Path, object] = {}  # path -> file identity (follows renames)
        self._synced: dict[object, bytes] = {}  # identity -> bytes at last fsync
        self._entries: dict[Path, dict[str, object]] = {}  # dir -> synced entries
        self._settle()

    def _identity(self, path: Path) -> object:
        return self._ids.setdefault(path, object())

    def _dirs(self) -> list[Path]:
        return [self.root, *(p for p in self.root.rglob("*") if p.is_dir())]

    def _settle(self) -> None:
        """Everything on disk now is durable (at the start, after a cut)."""
        self._ids.clear()
        self._synced.clear()
        self._entries.clear()
        for directory in self._dirs():
            self._entries[directory] = {}
            for f in directory.iterdir():
                if f.is_file():
                    ident = self._entries[directory][f.name] = self._identity(f)
                    self._synced[ident] = f.read_bytes()

    # -- the observed calls ---------------------------------------------------

    def opened(self, path, fd: int) -> None:
        with self._lock:
            self._fds[fd] = Path(path)

    def fsync(self, fd: int) -> None:
        with self._lock:
            os.fsync(fd)
            path = self._fds[fd]
            if path.is_dir():
                self._entries[path] = {
                    f.name: self._identity(f) for f in path.iterdir() if f.is_file()
                }
            else:
                self._synced[self._identity(path)] = path.read_bytes()

    def replace(self, src, dst) -> None:
        with self._lock:
            os.replace(src, dst)
            self._ids[Path(dst)] = self._ids.pop(Path(src), None) or object()

    # -- the cut --------------------------------------------------------------

    def cut(self) -> None:
        """Power off and on: roll ``root`` back to what was synced."""
        with self._lock:
            for directory in self._dirs():
                entries = self._entries.get(directory, {})
                for f in directory.iterdir():
                    if f.is_file() and f.name not in entries:
                        f.unlink()
                for name, ident in entries.items():
                    data = self._synced.get(ident, b"")
                    f = directory / name
                    if not f.is_file() or f.read_bytes() != data:
                        f.write_bytes(data)
            self._settle()


class _ObservedOS:
    """``os`` for one module, with the calls the model needs routed."""

    def __init__(self, model: PowerLoss):
        self._model = model

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *args):
        fd = os.open(path, flags, *args)
        self._model.opened(path, fd)
        return fd

    def fsync(self, fd):
        self._model.fsync(fd)

    def replace(self, src, dst):
        self._model.replace(src, dst)


@pytest.fixture
def power_loss(tmp_path, monkeypatch):
    model = PowerLoss(tmp_path)
    observed = _ObservedOS(model)

    def spool_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        model.opened(file, fh.fileno())
        return fh

    monkeypatch.setattr(repro._durable, "os", observed)
    monkeypatch.setattr(repro.service.stream, "os", observed)
    monkeypatch.setattr(repro.service.stream, "open", spool_open, raising=False)
    return model


def test_power_loss_keeps_only_what_was_synced(tmp_path, power_loss):
    """The model itself: an unsynced create, an unsynced append and a
    rename with no directory fsync after it are all lost."""
    state = tmp_path / "state"
    repro._durable.write_atomic(state, b"old")
    (tmp_path / "unsynced").write_bytes(b"lost")
    staging = tmp_path / ".state.tmp"
    staging.write_bytes(b"new")
    fd = os.open(staging, os.O_RDONLY)
    power_loss.opened(staging, fd)
    power_loss.fsync(fd)
    os.close(fd)
    power_loss.replace(staging, state)
    with open(state, "ab") as fh:
        fh.write(b" and appended")
    power_loss.cut()
    assert [p.name for p in tmp_path.iterdir()] == ["state"]
    assert state.read_bytes() == b"old"


# ---------------------------------------------------------------------------
# Mid-upload crashes (trace store).
# ---------------------------------------------------------------------------


class TestUploadCrash:
    def test_stale_staging_files_reaped(self, tmp_path, micro, power_loss):
        store = TraceStore(tmp_path)
        store.put_trace(micro)
        power_loss.cut()
        # A crashed put_bytes/put_trace leaves unique staging files.
        (tmp_path / ".upload-deadc0de.tmp").write_bytes(b"half an upload")
        (tmp_path / ".stage-deadc0de.tmp").write_bytes(b"half a store write")
        reopened = TraceStore(tmp_path)
        assert len(reopened) == 1
        assert not list(tmp_path.glob(".upload-*.tmp"))
        assert not list(tmp_path.glob(".stage-*.tmp"))

    def test_orphan_body_without_sidecar_reaped(self, tmp_path, micro, power_loss):
        store = TraceStore(tmp_path)
        entry = store.put_trace(micro)
        power_loss.cut()
        # Crash between the body write and the sidecar write: a valid
        # .clt with no .meta.json. Pre-fix this was skipped forever.
        orphan = tmp_path / f"{'a' * 64}.clt"
        orphan.write_bytes(entry.path.read_bytes())
        reopened = TraceStore(tmp_path)
        assert len(reopened) == 1
        assert not orphan.exists()

    def test_torn_body_never_visible(self, tmp_path, micro, power_loss):
        """put_trace stages then os.replace()s: at no point can a
        half-written .clt sit at its final path.  Simulate the old
        failure (torn file at the final path, sidecar landed) and show
        the sidecar-after-body ordering makes it unreachable."""
        store = TraceStore(tmp_path)
        entry = store.put_trace(micro)
        power_loss.cut()
        # the sidecar is written after the body, so a torn body implies
        # no sidecar -> orphan -> reaped. A torn body *with* a sidecar
        # would need the crash to reorder writes we issue sequentially.
        assert json.loads(
            (tmp_path / f"{entry.digest}.meta.json").read_text()
        )["digest"] == entry.digest

    def test_concurrent_upload_staging_never_collides(self, tmp_path, micro, power_loss):
        """Unique staging names: a leftover from a crashed upload cannot
        be clobbered or adopted by an unrelated concurrent upload."""
        store = TraceStore(tmp_path)
        leftover = tmp_path / ".upload-00000000000000000000000000000000.tmp"
        leftover.write_bytes(b"crashed upload residue")
        data = write_trace(micro, tmp_path / "up.clt").read_bytes()
        entry = store.put_bytes(data)
        assert leftover.read_bytes() == b"crashed upload residue"
        assert entry.digest == trace_digest(micro)
        (tmp_path / "up.clt").unlink()

    def test_returned_upload_survives_power_loss(self, tmp_path, micro, power_loss):
        entry = TraceStore(tmp_path).put_trace(micro)
        power_loss.cut()
        reopened = TraceStore(tmp_path)
        assert [e.digest for e in reopened.list()] == [entry.digest]
        [path] = reopened.resolve([entry.digest])
        assert trace_digest(read_trace(path)) == entry.digest

    def test_body_staging_file_reaped(self, tmp_path, micro):
        TraceStore(tmp_path).put_trace(micro)
        leftover = tmp_path / f".{'a' * 64}.clt.{'0' * 32}.tmp"
        leftover.write_bytes(b"half a body")
        TraceStore(tmp_path)
        assert not leftover.exists()


# ---------------------------------------------------------------------------
# Mid-spill crashes (result cache).
# ---------------------------------------------------------------------------


class TestSpillCrash:
    def test_torn_spill_is_a_miss_after_restart(self, tmp_path, power_loss):
        cache = ResultCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})  # spills 'a'
        power_loss.cut()
        # Crash mid-spill of 'c': torn JSON at the final path.
        (tmp_path / "c.json").write_text('{"n": ')
        reopened = ResultCache(capacity=1, disk_dir=tmp_path)
        assert reopened.get("c") is None  # miss, not an exception
        assert reopened.get("a") == {"n": 1}  # healthy entries unaffected
        assert reopened.stats()["misses"] == 1

    def test_tier_order_self_heals_after_torn_entry(self, tmp_path, power_loss):
        cache = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=4)
        power_loss.cut()
        (tmp_path / "torn.json").write_text("{")
        reopened = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=4)
        assert reopened.get("torn") is None
        # The unreadable key is dropped from the trim order, not kept
        # forever as a phantom entry.
        assert reopened.stats()["disk_entries"] == 0

    def test_spill_staging_file_reaped(self, tmp_path):
        cache = ResultCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        # What a spill killed before its rename leaves in the tier dir.
        (tmp_path / ".stage-deadc0de.tmp").write_text('{"n": ')
        ResultCache(capacity=1, disk_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


# ---------------------------------------------------------------------------
# Mid-stream crashes (checkpointed sessions). The acceptance test.
# ---------------------------------------------------------------------------


def _chunks(trace, chunk_events=7):
    return list(split_records(trace.records, chunk_events))


def _send(api, sid, chunks, start=0):
    for cid, block in enumerate(chunks[start:], start=start):
        status, ack = api.handle(
            "POST", f"/traces/{sid}/chunks", encode_records_frame(block, cid)
        )
        assert status == 202, ack
    return ack


def _wait_drained(api, sid, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = api.handle("GET", f"/streams/{sid}")
        if status["pending_chunks"] == 0:
            return status
        time.sleep(0.01)
    raise AssertionError(f"ingest never drained: {status}")


class TestStreamCrash:
    def test_restart_resumes_from_last_acked_chunk(self, tmp_path, micro, power_loss):
        """Server killed mid-stream; restarted; producer resumes from the
        durable chunk; finalize digest == batch-upload digest."""
        chunks = _chunks(micro)
        assert len(chunks) >= 4
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle(
            "POST", "/streams", json.dumps({"name": "crashy"}).encode()
        )
        sid = session["id"]
        half = len(chunks) // 2
        _send(api, sid, chunks[:half])
        _wait_drained(api, sid)
        api.close()  # crash stand-in: no finalize, no cleanup
        power_loss.cut()

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        status, resumed = api2.handle("GET", f"/streams/{sid}")
        assert status == 200, "restarted server must not 404 an open session"
        assert resumed["resumed"] is True
        assert resumed["chunks"] == half  # next expected = last durable + 1

        # Producer resumes; overlapping re-sends are idempotent duplicates.
        _send(api2, sid, chunks, start=max(0, half - 1))
        _wait_drained(api2, sid)
        status, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert status == 200, out
        assert out["trace"]["digest"] == trace_digest(micro)
        assert out["stream"]["events"] == len(micro)
        api2.close()

    def test_torn_spool_tail_truncated(self, tmp_path, micro, power_loss):
        """Crash mid-spill leaves a partial chunk past the checkpoint;
        recovery drops it and the producer re-sends that chunk."""
        chunks = _chunks(micro)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks[:2])
        _wait_drained(api, sid)
        api.close()
        power_loss.cut()

        spool = tmp_path / "svc" / "streams" / f"{sid}.spool"
        durable = spool.stat().st_size
        with open(spool, "ab") as fh:
            fh.write(b"\x01" * (EVENT_DTYPE.itemsize + 3))  # torn tail

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        assert spool.stat().st_size == durable  # tail gone
        _, resumed = api2.handle("GET", f"/streams/{sid}")
        assert resumed["chunks"] == 2
        _send(api2, sid, chunks, start=2)
        _wait_drained(api2, sid)
        _, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        api2.close()

    def test_lost_spool_restarts_session_from_zero(self, tmp_path, micro, power_loss):
        chunks = _chunks(micro)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks[:3])
        _wait_drained(api, sid)
        api.close()
        power_loss.cut()

        (tmp_path / "svc" / "streams" / f"{sid}.spool").unlink()
        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        _, resumed = api2.handle("GET", f"/streams/{sid}")
        assert resumed["chunks"] == 0  # honest: nothing durable survived
        _send(api2, sid, chunks)
        _wait_drained(api2, sid)
        _, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        api2.close()

    def test_rebuilt_analyzer_matches_uninterrupted_snapshot(
        self, tmp_path, micro, power_loss
    ):
        """A restarted server replays nothing, and its first snapshot equals
        the one taken before the crash and an uninterrupted server's."""
        chunks = _chunks(micro)
        half = len(chunks) // 2

        api = ServiceAPI(tmp_path / "a", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks[:half])
        _wait_drained(api, sid)
        _, before_snap = api.handle("GET", f"/streams/{sid}/snapshot")
        api.close()
        power_loss.cut()
        api2 = ServiceAPI(tmp_path / "a", workers=0)
        assert api2.streams.get(sid).snapshot_cache is None  # nothing replayed
        _, resumed_snap = api2.handle("GET", f"/streams/{sid}/snapshot")

        ref = ServiceAPI(tmp_path / "b", workers=0)
        _, rsession = ref.handle("POST", "/streams", b"{}")
        _send(ref, rsession["id"], chunks[:half])
        _wait_drained(ref, rsession["id"])
        _, ref_snap = ref.handle("GET", f"/streams/{rsession['id']}/snapshot")

        for snap in (before_snap, resumed_snap, ref_snap):
            snap.pop("session")
        assert resumed_snap == before_snap == ref_snap
        ref.close()
        api2.close()

    def test_finalized_sessions_not_recovered(self, tmp_path, micro, power_loss):
        chunks = _chunks(micro)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks)
        _wait_drained(api, sid)
        _, out = api.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        api.close()
        power_loss.cut()

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        assert api2.streams.recovered_sessions == 0
        status, _ = api2.handle("GET", f"/streams/{sid}")
        assert status == 404
        api2.close()

    def test_recovery_is_crash_safe_itself(self, tmp_path, micro, power_loss):
        """A corrupt checkpoint (torn tmp rename is impossible, but disk
        rot is not) is skipped with a warning, not a boot failure."""
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        api.close()
        power_loss.cut()
        streams = tmp_path / "svc" / "streams"
        (streams / "deadbeef.ckpt.json").write_text("{torn")
        (streams / ".ckpt-junk.tmp").write_text("{}")
        api2 = ServiceAPI(tmp_path / "svc", workers=0)  # boots
        assert api2.streams.recovered_sessions == 1  # the healthy one
        assert not (streams / ".ckpt-junk.tmp").exists()
        api2.close()

    def test_spooled_counts_survive_restart(self, tmp_path, micro, power_loss):
        chunks = _chunks(micro)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        ack = _send(api, sid, chunks[:3])
        _wait_drained(api, sid)
        assert ack["durable_chunk"] <= 3
        api.close()
        power_loss.cut()
        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        _, resumed = api2.handle("GET", f"/streams/{sid}")
        expected_events = sum(len(c) for c in chunks[:3])
        assert resumed["events"] == expected_events
        assert np.fromfile(
            tmp_path / "svc" / "streams" / f"{sid}.spool", dtype=EVENT_DTYPE
        ).shape[0] == expected_events
        api2.close()

    def test_checkpoint_staging_file_reaped(self, tmp_path):
        streams = tmp_path / "streams"
        StreamStore(streams).close()
        leftover = streams / f".deadbeef.ckpt.json.{'0' * 32}.tmp"
        leftover.write_text("{")
        StreamStore(streams).close()
        assert not leftover.exists()

    def test_ack_never_runs_ahead_of_the_checkpoint(self, tmp_path, micro, monkeypatch):
        """While a chunk's checkpoint is being written, an ack must not
        call that chunk durable: a crash then would drop it."""
        store = StreamStore(tmp_path / "streams")
        session = store.open()
        entered, release = threading.Event(), threading.Event()
        write_checkpoint = store._write_checkpoint

        def held(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            write_checkpoint(*args, **kwargs)

        monkeypatch.setattr(store, "_write_checkpoint", held)
        frame = encode_records_frame(micro.records[:5], 0)
        try:
            store.append_chunks(session.id, frame)
            assert entered.wait(10)
            ack = store.append_chunks(session.id, frame)  # a duplicate
            assert (ack["duplicates"], ack["durable_chunk"]) == (1, 0)
            release.set()
            store.finalize(session.id, header=header_dict(micro), timeout=10)
        finally:
            release.set()
            store.close()
        assert session.ingested_chunks == 1

    def test_crash_between_group_spool_and_checkpoint(
        self, tmp_path, micro, power_loss, monkeypatch
    ):
        """Power fails after a multi-chunk group reached the spool but
        before its one checkpoint: the restart resumes at the group's
        first chunk, and re-sending it gives the batch digest."""
        chunks = _chunks(micro, chunk_events=5)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks[:2])
        _wait_drained(api, sid)
        spool = tmp_path / "svc" / "streams" / f"{sid}.spool"
        checkpointed = spool.stat().st_size

        claimed, crashed = [], threading.Event()

        def power_cut(session, chunks, *rest):  # the checkpoint never lands
            claimed.append((chunks, spool.stat().st_size))
            crashed.set()

        monkeypatch.setattr(api.streams, "_write_checkpoint", power_cut)
        api.streams.pause_ingest()
        _send(api, sid, chunks[:6], start=2)
        api.streams.resume_ingest()
        assert crashed.wait(10)
        assert claimed == [(6, sum(c.nbytes for c in chunks[:6]))]
        api.close()
        power_loss.cut()

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        _, resumed = api2.handle("GET", f"/streams/{sid}")
        assert resumed["chunks"] == 2  # the group's first chunk
        assert spool.stat().st_size == checkpointed
        _send(api2, sid, chunks, start=2)
        _wait_drained(api2, sid)
        _, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        assert out["stream"]["events"] == len(micro)
        api2.close()

    def test_acked_durable_chunk_survives_power_loss(self, tmp_path, micro, power_loss):
        chunks = _chunks(micro)
        half = len(chunks) // 2
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks[:half])
        _wait_drained(api, sid)
        # Re-sending an applied chunk returns a fresh ack of the durable
        # progress without changing anything.
        ack = _send(api, sid, chunks[:half], start=half - 1)
        assert ack["durable_chunk"] == half
        api.close()
        power_loss.cut()

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        status, resumed = api2.handle("GET", f"/streams/{sid}")
        assert status == 200
        assert resumed["chunks"] >= ack["durable_chunk"]
        _send(api2, sid, chunks, start=resumed["chunks"])
        _wait_drained(api2, sid)
        _, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        api2.close()

    def test_failed_finalize_leaves_the_stream_recoverable(
        self, tmp_path, micro, power_loss, monkeypatch
    ):
        """A session's files go only once its trace is stored: a finalize
        that fails to store leaves the stream to finalize again."""
        chunks = _chunks(micro)
        api = ServiceAPI(tmp_path / "svc", workers=0)
        _, session = api.handle("POST", "/streams", b"{}")
        sid = session["id"]
        _send(api, sid, chunks)
        _wait_drained(api, sid)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(api.store, "put_trace", disk_full)
        with pytest.raises(OSError):
            api.handle(
                "POST", f"/traces/{sid}/finalize",
                json.dumps({"header": header_dict(micro)}).encode(),
            )
        api.close()
        power_loss.cut()

        api2 = ServiceAPI(tmp_path / "svc", workers=0)
        _, resumed = api2.handle("GET", f"/streams/{sid}")
        assert resumed["chunks"] == len(chunks)
        _, out = api2.handle(
            "POST", f"/traces/{sid}/finalize",
            json.dumps({"header": header_dict(micro)}).encode(),
        )
        assert out["trace"]["digest"] == trace_digest(micro)
        api2.close()


    @pytest.mark.parametrize("fail", ["spool", "checkpoint"])
    def test_failed_commit_keeps_the_ingest_thread_alive(
        self, tmp_path, micro, monkeypatch, caplog, fail
    ):
        """A spool or checkpoint write that fails leaves its group pending
        and unacknowledged, logs the session, lets other sessions ingest,
        and a retry spools the group exactly once."""
        from repro.service import stream

        monkeypatch.setattr(stream, "RETRY_DELAY", 0.05)
        store = StreamStore(tmp_path / "streams")
        broken, healthy = store.open(), store.open()
        failures = []
        real_append, real_checkpoint = stream.append_durable, store._write_checkpoint

        def flaky_append(path, *blocks):
            if fail == "spool" and path == broken.spool_path and not failures:
                failures.append(path)
                raise OSError(28, "No space left on device")
            real_append(path, *blocks)

        def flaky_checkpoint(session, *args):
            if fail == "checkpoint" and session is broken and not failures:
                failures.append(session)
                raise OSError(5, "Input/output error")
            real_checkpoint(session, *args)

        monkeypatch.setattr(stream, "append_durable", flaky_append)
        monkeypatch.setattr(store, "_write_checkpoint", flaky_checkpoint)
        frames = [encode_records_frame(block, cid) for cid, block in enumerate(_chunks(micro))]
        try:
            store.pause_ingest()
            for frame in frames:
                store.append_chunks(broken.id, frame)
            store.resume_ingest()
            deadline = time.monotonic() + 10
            while not failures and time.monotonic() < deadline:
                time.sleep(0.001)
            ack = store.append_chunks(broken.id, frames[0])  # a duplicate
            assert ack["durable_chunk"] == 0 or failures == []
            for frame in frames:  # another session ingests meanwhile
                store.append_chunks(healthy.id, frame)
            _, trace = store.finalize(healthy.id, header=header_dict(micro), timeout=10)
            assert trace_digest(trace) == trace_digest(micro)
            _, trace = store.finalize(broken.id, header=header_dict(micro), timeout=10)
            assert trace_digest(trace) == trace_digest(micro)
            assert broken.spool_path.stat().st_size == micro.records.nbytes
            assert failures
            assert any(broken.id in r.getMessage() for r in caplog.records)
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Fleet state.
# ---------------------------------------------------------------------------


def test_fleet_state_keeps_every_saved_observation(tmp_path, power_loss):
    saved = seeded_aggregator(tmp_path / "fleet", runs=3)
    power_loss.cut()
    reloaded = FleetAggregator(tmp_path / "fleet")
    assert reloaded.summary() == saved.summary()
    assert all(reloaded.has(f"run-{i}") for i in range(3))


def _upload_variants(api, tmp_path, n):
    for i in range(n):
        trace = make_micro_program(cs2=2.5 + 0.001 * i).run().trace
        data = write_trace(trace, tmp_path / f"f{i}.clt").read_bytes()
        api.handle("POST", "/traces", data, {"name": "micro"})
        assert api.flush_fleet(timeout=30)


@pytest.mark.parametrize("cut_at", ["idle", "compaction"])
def test_counted_fleet_observations_survive_power_loss(
    tmp_path, power_loss, monkeypatch, cut_at
):
    """Every observation ``/metrics`` counts as observed survives a cut,
    also one between a compaction's checkpoint write and its new log."""
    cuts = []
    if cut_at == "compaction":
        # Trim at 2, so the third observation's commit compacts.
        monkeypatch.setattr(aggregate, "_MAX_OBSERVATIONS", 2)
        monkeypatch.setattr(aggregate, "_COMPACT_MIN_LINES", 0)
        write_atomic = aggregate.write_atomic

        def write_then_cut(dest, data):
            write_atomic(dest, data)
            power_loss.cut()  # the old log is still there, no new one yet
            cuts.append(sorted(p.name for p in dest.parent.iterdir()))
            raise OSError("power cut")

        monkeypatch.setattr(aggregate, "write_atomic", write_then_cut)
    api = ServiceAPI(tmp_path / "svc", workers=0)
    try:
        _upload_variants(api, tmp_path, 3)
        _, metrics = api.handle("GET", "/metrics")
        live = api.fleet.summary()
    finally:
        api.close()
    if cut_at == "idle":
        power_loss.cut()
    assert cuts == ([] if cut_at == "idle" else [["fleet.0.log", "fleet.json"]])
    assert metrics["fleet"]["observed"] == 3
    reopened = FleetAggregator(tmp_path / "svc" / "fleet")
    assert reopened.version == 3
    assert reopened.summary() == live


@pytest.mark.parametrize(
    "crash", ["restart", "cut_before_next_commit", "cut_after_next_commit"]
)
def test_compaction_with_a_failed_dir_fsync_loses_no_commit(
    tmp_path, power_loss, monkeypatch, crash
):
    """A compaction replaces the checkpoint but cannot fsync its
    directory, so the rename may or may not survive a cut.  Every
    commit before it and after it survives a restart or a cut."""
    agg = seeded_aggregator(tmp_path / "fleet", runs=3)
    fsync_path = repro._durable.fsync_path

    def fsync_files_only(path):
        if path.is_dir():
            raise OSError("directory fsync failed")
        fsync_path(path)

    with monkeypatch.context() as m:
        m.setattr(repro._durable, "fsync_path", fsync_files_only)
        with pytest.raises(OSError):
            agg.compact()
    assert (tmp_path / "fleet" / "fleet.json").exists()
    committed = ["run-0", "run-1", "run-2"]
    if crash != "cut_before_next_commit":
        agg.observe(synth_report({"L2": 0.6}), digest="run-3", workload="micro")
        committed.append("run-3")
    live = agg.summary()
    if crash != "restart":
        power_loss.cut()
    reopened = FleetAggregator(tmp_path / "fleet")
    assert all(reopened.has(d) for d in committed)
    assert reopened.summary() == live


# ---------------------------------------------------------------------------
# One durable write.
# ---------------------------------------------------------------------------


def test_no_rename_outside_the_durable_write():
    """Every rename in the service and the fleet goes through
    ``repro._durable.write_atomic``, which fsyncs around it."""
    found = []
    for package in ("service", "fleet"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                attr, owner = node.func.attr, node.func.value
                on_os = isinstance(owner, ast.Name) and owner.id == "os"
                # str.replace takes two arguments; Path.replace takes one.
                if (
                    attr in ("rename", "renames")
                    or (attr == "replace" and (on_os or len(node.args) == 1))
                ):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
