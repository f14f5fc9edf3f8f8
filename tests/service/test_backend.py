"""Storage contract suite.

The service keeps its durable state in directories, each either private
to one service (under ``--data-dir``) or shared by every node of a ring
(``--shared-dir``).  The parametrized fixtures run one behavioral spec
over both kinds: the directory class itself, the trace store and the
result cache's spill tier.  Where the two kinds differ (a shared
directory is never reaped and its cache writes through), the tests say
so.
"""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service.api import ServiceAPI
from repro.service.backend import BackendMissing, LocalDiskBackend
from repro.service.cache import ResultCache
from repro.service.store import TraceStore
from repro.trace import trace_digest, write_trace

from tests.conftest import make_micro_program

# How a test opens a storage directory.  The case ids are the ones this
# suite gave its storage kinds before they all became directories, so a
# case keeps its name: ``local`` is a private directory,
# ``object-directory`` a shared one opened by its own path, and
# ``object-memory`` a shared one that every opener reaches through a
# path of its own (a symlink, as ring nodes mounting the directory at
# different places do).  Nothing stored may depend on the path it was
# written through.
KINDS = ["local", "object-directory", "object-memory"]


def _open(kind, root):
    """``(path, shared)`` for one more opener of directory ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    if kind != "object-memory":
        return root, kind != "local"
    peers = len(list(root.parent.glob(f"{root.name}-peer*")))
    peer = root.with_name(f"{root.name}-peer{peers}")
    peer.symlink_to(root, target_is_directory=True)
    return peer, True


@pytest.fixture(params=KINDS)
def backend(request, tmp_path):
    return LocalDiskBackend(*_open(request.param, tmp_path / "store"))


class TestBackendContract:
    def test_put_get_roundtrip(self, backend):
        backend.put("k1", b"hello")
        assert backend.get("k1") == b"hello"

    def test_overwrite(self, backend):
        backend.put("k", b"old")
        backend.put("k", b"new")
        assert backend.get("k") == b"new"

    def test_missing_key_raises(self, backend):
        with pytest.raises(BackendMissing):
            backend.get("nope")

    def test_exists_and_delete(self, backend):
        assert not backend.exists("k")
        backend.put("k", b"x")
        assert backend.exists("k")
        backend.delete("k")
        assert not backend.exists("k")
        backend.delete("k")  # idempotent

    def test_keys_prefix(self, backend):
        backend.put("a.clt", b"1")
        backend.put("a.meta.json", b"2")
        backend.put("b.clt", b"3")
        assert backend.keys() == ["a.clt", "a.meta.json", "b.clt"]
        assert backend.keys("a") == ["a.clt", "a.meta.json"]
        assert backend.keys("zzz") == []

    def test_binary_safe(self, backend):
        blob = bytes(range(256)) * 17
        backend.put("bin", blob)
        assert backend.get("bin") == blob


class TestLocalDiskBackend:
    def test_layout_matches_store_format(self, tmp_path):
        """The local backend writes keys as plain files — the original
        on-disk layout, byte for byte."""
        backend = LocalDiskBackend(tmp_path)
        backend.put("deadbeef.meta.json", b"{}")
        assert (tmp_path / "deadbeef.meta.json").read_bytes() == b"{}"

    def test_dotfiles_invisible(self, tmp_path):
        backend = LocalDiskBackend(tmp_path)
        (tmp_path / ".upload-x.tmp").write_bytes(b"junk")
        backend.put("real", b"x")
        assert backend.keys() == ["real"]

    def test_traversal_rejected(self, tmp_path):
        backend = LocalDiskBackend(tmp_path / "root")
        with pytest.raises(ServiceError):
            backend.put("../escape", b"x")

    def test_keys_oldest_first_tracks_mtime(self, tmp_path):
        import os

        backend = LocalDiskBackend(tmp_path)
        backend.put("newer", b"x")
        backend.put("older", b"x")
        os.utime(tmp_path / "older", (1, 1))
        assert backend.keys_oldest_first() == ["older", "newer"]

    def test_failed_put_leaves_no_staging_file(self, tmp_path, monkeypatch):
        backend = LocalDiskBackend(tmp_path)

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError):
            backend.put("k", b"x")
        assert list(tmp_path.iterdir()) == []


    def test_shared_between_instances(self, tmp_path):
        a = LocalDiskBackend(tmp_path, shared=True)
        b = LocalDiskBackend(tmp_path, shared=True)
        a.put("k", b"written-by-a")
        assert b.get("k") == b"written-by-a"

    def test_only_a_private_open_reaps_staging_files(self, tmp_path):
        """A dotted staging file in a shared directory may be a peer's
        write in flight: opening the directory shared keeps it."""
        staging = tmp_path / ".k.0123.tmp"
        staging.write_bytes(b"half an entry")
        LocalDiskBackend(tmp_path, shared=True)
        assert staging.exists()
        LocalDiskBackend(tmp_path)
        assert not staging.exists()


# ---------------------------------------------------------------------------
# TraceStore over both kinds of directory: one contract, parametrized.
# ---------------------------------------------------------------------------


@pytest.fixture(params=KINDS)
def store_factory(request, tmp_path):
    """Factory building a TraceStore over one kind of directory; calling
    it again simulates a process restart (or a peer) over the same one."""

    def build():
        return TraceStore(*_open(request.param, tmp_path / "traces"))

    return build


class TestTraceStoreContract:
    def test_put_get_roundtrip(self, store_factory, micro_trace):
        store = store_factory()
        entry = store.put_trace(micro_trace, name="m")
        assert entry.digest == trace_digest(micro_trace)
        assert store.get(entry.digest) == entry
        assert len(store) == 1

    def test_put_deduplicates(self, store_factory, micro_trace):
        store = store_factory()
        first = store.put_trace(micro_trace)
        second = store.put_trace(micro_trace)
        assert first is second
        assert len(store) == 1

    def test_resolve_returns_readable_file(self, store_factory, micro_trace):
        from repro.trace.reader import read_trace

        store = store_factory()
        entry = store.put_trace(micro_trace)
        [path] = store.resolve([entry.digest])
        assert path == str(entry.path)  # the stored file itself, no copy
        got = read_trace(path)
        assert trace_digest(got) == entry.digest

    def test_index_survives_restart(self, store_factory, micro_trace):
        digest = store_factory().put_trace(micro_trace, name="m").digest
        reopened = store_factory()
        assert reopened.get(digest).name == "m"
        [path] = reopened.resolve([digest])
        assert Path(path).stat().st_size > 0

    def test_orphan_body_reaped_on_restart(self, store_factory, micro_trace):
        """A crash between the body write and the sidecar write leaves an
        orphan body.  A private store reaps it on the next open.  A shared
        one cannot tell it from a peer's upload in flight, so it keeps
        it, unlisted, until an upload of that digest rewrites it."""
        store = store_factory()
        entry = store.put_trace(micro_trace)
        orphan = store.root / f"{'f' * 64}.clt"
        orphan.write_bytes(entry.path.read_bytes())
        reopened = store_factory()
        assert len(reopened) == 1
        assert orphan.exists() is store.shared

    def test_schema_mismatched_sidecar_skipped(self, store_factory, micro_trace):
        """A sidecar written by an older/newer build (missing or extra
        keys) must not crash startup."""
        store = store_factory()
        good = store.put_trace(micro_trace)
        bad_digest = "e" * 64
        (store.root / f"{bad_digest}.clt").write_bytes(good.path.read_bytes())
        (store.root / f"{bad_digest}.meta.json").write_text(
            json.dumps({"digest": bad_digest, "name": "old", "surprise": 1})
        )
        reopened = store_factory()  # must boot
        assert reopened.get(good.digest).digest == good.digest
        with pytest.raises(ServiceError, match="no such trace"):
            reopened.get(bad_digest)

    def test_corrupt_sidecar_skipped(self, store_factory, micro_trace):
        store = store_factory()
        good = store.put_trace(micro_trace)
        (store.root / f"{'d' * 64}.meta.json").write_bytes(b"{torn")
        reopened = store_factory()
        assert len(reopened) == 1
        assert reopened.get(good.digest)

    def test_stats_name_backend(self, store_factory, micro_trace):
        """The stats say which kind of directory holds the traces."""
        store = store_factory()
        store.put_trace(micro_trace)
        stats = store.stats()
        assert stats["count"] == 1
        assert stats["bytes"] > 0
        assert stats["shared"] is store.shared


def test_local_store_layout_unchanged(tmp_path, micro_trace):
    """The default backend keeps the original on-disk format: both files
    directly under the root, sidecar content identical to to_dict()."""
    store = TraceStore(tmp_path)
    entry = store.put_trace(micro_trace, name="m")
    assert (tmp_path / f"{entry.digest}.clt").is_file()
    sidecar = tmp_path / f"{entry.digest}.meta.json"
    assert json.loads(sidecar.read_text()) == entry.to_dict()
    assert entry.path == tmp_path / f"{entry.digest}.clt"


class _SidecarHook(TraceStore):
    """A store that runs ``hook(entry)`` between a put's body write and
    its sidecar write: the window a crash or a peer can fall into."""

    hook = staticmethod(lambda entry: None)

    def _write_sidecar(self, entry):
        self.hook(entry)
        super()._write_sidecar(entry)


def test_opening_a_shared_store_keeps_a_peers_upload_in_flight(
    tmp_path, micro_trace
):
    """A peer that opens the shared directory while an upload sits
    between its body and its sidecar must not reap the body: the upload
    returns, so every node must then resolve it."""
    root = tmp_path / "shared" / "traces"
    writer = _SidecarHook(root, shared=True)
    writer.hook = lambda entry: TraceStore(root, shared=True)
    entry = writer.put_trace(micro_trace)
    third = TraceStore(root, shared=True)
    [path] = third.resolve([entry.digest])
    assert Path(path).read_bytes() == entry.path.read_bytes()


def test_shared_store_adopts_only_names_in_its_directory(tmp_path, micro_trace):
    """A lookup key comes from a request: one that names a path outside
    the shared directory is an unknown trace, not a file to adopt."""
    outside = TraceStore(tmp_path / "elsewhere").put_trace(micro_trace)
    store = TraceStore(tmp_path / "shared" / "traces", shared=True)
    with pytest.raises(ServiceError, match="no such trace"):
        store.get(f"../../elsewhere/{outside.digest}")


def test_opening_shared_storage_deletes_nothing(tmp_path):
    """Staging files in a shared directory may be peers' writes in
    flight; a node starting up over the directory leaves them alone."""
    shared = tmp_path / "shared"
    for sub in ("traces", "cache"):
        (shared / sub).mkdir(parents=True)
        (shared / sub / ".peer.0123.tmp").write_bytes(b"a peer's write")
    with ServiceAPI(tmp_path / "node", workers=0, shared_dir=shared):
        pass
    for sub in ("traces", "cache"):
        assert (shared / sub / ".peer.0123.tmp").exists()


# ---------------------------------------------------------------------------
# ResultCache spill tier over both kinds of directory.
# ---------------------------------------------------------------------------


@pytest.fixture(params=["local", "object-memory"])
def cache_backend(request, tmp_path):
    return LocalDiskBackend(*_open(request.param, tmp_path / "cache"))


class TestCacheTierContract:
    def test_spill_and_promote(self, cache_backend):
        cache = ResultCache(capacity=1, disk_dir=cache_backend)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})  # evicts 'a' into the tier
        assert cache.get("a") == {"n": 1}
        assert cache.stats()["disk_hits"] == 1

    def test_write_through_default_for_backends(self, cache_backend):
        """A shared tier writes through: a peer must see the result now,
        not after an eviction.  A private one spills on evict."""
        cache = ResultCache(capacity=8, disk_dir=cache_backend)
        assert cache.write_through is cache_backend.shared
        cache.put("k", {"n": 1})
        assert cache_backend.exists("k.json") is cache_backend.shared

    def test_shared_namespace_between_caches(self, cache_backend):
        """Two caches over one tier (a restart, or a ring peer) read the
        entries each other put there."""
        a = ResultCache(capacity=1, disk_dir=cache_backend)
        b = ResultCache(capacity=1, disk_dir=cache_backend)
        a.put("k", {"answer": 42})
        a.put("other", {"answer": 0})  # a private tier gets 'k' on evict
        assert b.get("k") == {"answer": 42}
        assert b.stats()["disk_hits"] == 1

    def test_tier_capacity_enforced(self, cache_backend):
        cache = ResultCache(capacity=1, disk_dir=cache_backend, disk_capacity=2)
        for i in range(6):
            cache.put(f"k{i}", {"n": i})
        assert len([k for k in cache_backend.keys() if k.endswith(".json")]) <= 2

    def test_local_default_remains_spill_on_evict(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        assert not cache.write_through
        cache.put("k", {"n": 1})
        assert not (tmp_path / "k.json").exists()


def test_shared_tier_writes_through(tmp_path):
    cache = ResultCache(capacity=8, disk_dir=tmp_path, shared=True)
    assert cache.write_through
    cache.put("k", {"n": 1})
    assert (tmp_path / "k.json").is_file()


def test_shared_dir_holds_traces_and_cache_for_every_node(tmp_path, micro_trace):
    """``shared_dir`` moves the trace store and the cache tier out of the
    data dir: a second node (or a restart) over the same shared dir
    lists the trace and answers the analysis from the cache tier."""
    shared = tmp_path / "shared"
    data = write_trace(micro_trace, tmp_path / "up.clt").read_bytes()
    body = json.dumps({"kind": "analyze", "trace": trace_digest(micro_trace)}).encode()
    with ServiceAPI(tmp_path / "a", workers=0, shared_dir=shared) as a:
        assert a.handle("POST", "/traces", data)[0] == 201
        status, job = a.handle("POST", "/jobs", body)
        assert job["state"] == "done"
        result = job["result"]
        assert a.snapshot_metrics()["storage"] == {"shared_dir": str(shared)}
    assert [p.suffix for p in sorted((shared / "traces").iterdir())] == [".clt", ".json"]
    assert len(list((shared / "cache").glob("*.json"))) == 1
    assert not (tmp_path / "a" / "traces").exists()
    assert (tmp_path / "a" / "streams").is_dir()
    with ServiceAPI(tmp_path / "b", workers=0, shared_dir=shared) as b:
        assert [t["digest"] for t in b.handle("GET", "/traces")[1]["traces"]] == [
            trace_digest(micro_trace)
        ]
        status, job = b.handle("POST", "/jobs", body)
        assert job["result"] == result
        assert b.cache.stats()["disk_hits"] == 1


def test_slow_backend_write_does_not_block_other_uploads(tmp_path, micro_trace):
    """The store lock covers only the index: a write stuck on trace A
    must not hold up the upload of trace B."""
    other = make_micro_program(cs1=3.0).run().trace
    stuck_digest = trace_digest(micro_trace)
    stuck, release = threading.Event(), threading.Event()

    def slow_sidecar(entry):
        if entry.digest == stuck_digest:
            stuck.set()
            release.wait(10)

    store = _SidecarHook(tmp_path, shared=True)
    store.hook = slow_sidecar
    first = threading.Thread(target=store.put_trace, args=(micro_trace,))
    first.start()
    try:
        assert stuck.wait(10)
        second = threading.Thread(target=store.put_trace, args=(other,), daemon=True)
        second.start()
        second.join(5)
        assert not second.is_alive()
        assert store.get(trace_digest(other))
    finally:
        release.set()
        first.join(10)
    assert len(store) == 2
