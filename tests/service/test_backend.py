"""Storage-backend contract suite.

Every backend — local disk, object-over-memory, object-over-directory —
must satisfy the same observable contract, and so must the trace store
and result cache running over each of them.  The parametrized fixtures
below are the whole point: one behavioral spec, N implementations.
"""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service.backend import (
    BACKEND_KINDS,
    BackendMissing,
    DirectoryObjectClient,
    LocalDiskBackend,
    MemoryObjectClient,
    ObjectBackend,
    make_backend,
)
from repro.service.cache import ResultCache
from repro.service.store import TraceStore
from repro.trace import trace_digest, write_trace

from tests.conftest import make_micro_program


@pytest.fixture(params=["local", "object-memory", "object-directory"])
def backend(request, tmp_path):
    if request.param == "local":
        return LocalDiskBackend(tmp_path / "store")
    if request.param == "object-memory":
        return ObjectBackend(MemoryObjectClient())
    return ObjectBackend(DirectoryObjectClient(tmp_path / "bucket"))


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

    def test_scoped_namespaces_are_disjoint(self, backend):
        a = backend.scoped("traces")
        b = backend.scoped("cache")
        a.put("k", b"from-a")
        b.put("k", b"from-b")
        assert a.get("k") == b"from-a"
        assert b.get("k") == b"from-b"
        assert a.keys() == ["k"]
        assert b.keys() == ["k"]

    def test_put_path_adopts_file(self, backend, tmp_path):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"body")
        backend.put_path("k", src)
        assert backend.get("k") == b"body"

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


class TestDirectoryObjectClient:
    def test_flat_namespace_with_slashes(self, tmp_path):
        client = DirectoryObjectClient(tmp_path)
        client.put_object("traces/abc.clt", b"x")
        assert client.list_objects() == ["traces/abc.clt"]
        assert client.get_object("traces/abc.clt") == b"x"
        # No hierarchy on disk: one file, percent-encoded.
        assert len([p for p in tmp_path.iterdir() if p.is_file()]) == 1

    def test_shared_between_instances(self, tmp_path):
        a = DirectoryObjectClient(tmp_path)
        b = DirectoryObjectClient(tmp_path)
        a.put_object("k", b"written-by-a")
        assert b.get_object("k") == b"written-by-a"

    def test_crashed_put_staging_reaped(self, tmp_path):
        DirectoryObjectClient(tmp_path).put_object("k", b"x")
        (tmp_path / ".put-deadc0de.tmp").write_bytes(b"half an object")
        DirectoryObjectClient(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["k"]


class TestMakeBackend:
    def test_local_is_none(self, tmp_path):
        assert make_backend("local", tmp_path) is None

    def test_object_defaults_under_data_dir(self, tmp_path):
        backend = make_backend("object", tmp_path)
        backend.put("k", b"x")
        assert (tmp_path / "objects").is_dir()

    def test_object_with_shared_root(self, tmp_path):
        a = make_backend("object", tmp_path / "node-a", object_root=tmp_path / "bucket")
        b = make_backend("object", tmp_path / "node-b", object_root=tmp_path / "bucket")
        a.put("k", b"x")
        assert b.get("k") == b"x"

    def test_memory(self, tmp_path):
        backend = make_backend("memory", tmp_path)
        backend.put("k", b"x")
        assert backend.get("k") == b"x"

    def test_unknown_spec_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown storage backend"):
            make_backend("s3://prod", tmp_path)

    def test_kinds_exported(self):
        assert set(BACKEND_KINDS) == {"local", "object", "memory"}


# ---------------------------------------------------------------------------
# TraceStore over every backend: one contract, parametrized.
# ---------------------------------------------------------------------------


@pytest.fixture(params=["local", "object-memory", "object-directory"])
def store_factory(request, tmp_path):
    """Factory building a TraceStore over one backend *kind*; calling it
    again simulates a process restart over the same durable state."""
    clients = {}

    def build():
        root = tmp_path / "scratch"
        if request.param == "local":
            return TraceStore(root)
        if request.param == "object-memory":
            client = clients.setdefault("c", MemoryObjectClient())
        else:
            client = DirectoryObjectClient(tmp_path / "bucket")
        return TraceStore(root, backend=ObjectBackend(client))

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
        got = read_trace(path)
        assert trace_digest(got) == entry.digest

    def test_index_survives_restart(self, store_factory, micro_trace):
        digest = store_factory().put_trace(micro_trace, name="m").digest
        reopened = store_factory()
        assert reopened.get(digest).name == "m"
        [path] = reopened.resolve([digest])
        assert Path(path).stat().st_size > 0

    def test_restart_rematerializes_missing_scratch(
        self, store_factory, micro_trace, tmp_path
    ):
        """Losing the local scratch copy is harmless: the backend holds
        the durable bytes and resolve() re-materializes on demand."""
        store = store_factory()
        if not store._remote:
            pytest.skip("local backend: the scratch copy IS the durable copy")
        entry = store.put_trace(micro_trace)
        entry.path.unlink()  # scratch gone (disk swap, new box...)
        reopened = store_factory()
        [path] = reopened.resolve([entry.digest])
        from repro.trace.reader import read_trace

        assert trace_digest(read_trace(path)) == entry.digest

    def test_orphan_body_reaped_on_restart(self, store_factory, micro_trace):
        """A crash between the body write and the sidecar write leaves an
        orphan the next rescan must reap — not skip forever."""
        store = store_factory()
        entry = store.put_trace(micro_trace)
        orphan = f"{'f' * 64}.clt"
        store.backend.put(orphan, entry.path.read_bytes())
        reopened = store_factory()
        assert len(reopened) == 1
        assert not reopened.backend.exists(orphan)

    def test_schema_mismatched_sidecar_skipped(self, store_factory, micro_trace):
        """A sidecar written by an older/newer build (missing or extra
        keys) must not crash startup."""
        store = store_factory()
        good = store.put_trace(micro_trace)
        bad_digest = "e" * 64
        store.backend.put(f"{bad_digest}.clt", good.path.read_bytes())
        store.backend.put(
            f"{bad_digest}.meta.json",
            json.dumps({"digest": bad_digest, "name": "old", "surprise": 1}).encode(),
        )
        reopened = store_factory()  # must boot
        assert reopened.get(good.digest).digest == good.digest
        with pytest.raises(ServiceError, match="no such trace"):
            reopened.get(bad_digest)

    def test_corrupt_sidecar_skipped(self, store_factory, micro_trace):
        store = store_factory()
        good = store.put_trace(micro_trace)
        store.backend.put(f"{'d' * 64}.meta.json", b"{torn")
        reopened = store_factory()
        assert len(reopened) == 1
        assert reopened.get(good.digest)

    def test_stats_name_backend(self, store_factory, micro_trace):
        store = store_factory()
        store.put_trace(micro_trace)
        stats = store.stats()
        assert stats["count"] == 1
        assert stats["bytes"] > 0
        assert stats["backend"]


def test_local_store_layout_unchanged(tmp_path, micro_trace):
    """The default backend keeps the original on-disk format: both files
    directly under the root, sidecar content identical to to_dict()."""
    store = TraceStore(tmp_path)
    entry = store.put_trace(micro_trace, name="m")
    assert (tmp_path / f"{entry.digest}.clt").is_file()
    sidecar = tmp_path / f"{entry.digest}.meta.json"
    assert json.loads(sidecar.read_text()) == entry.to_dict()
    assert entry.path == tmp_path / f"{entry.digest}.clt"


# ---------------------------------------------------------------------------
# ResultCache spill tier over every backend.
# ---------------------------------------------------------------------------


@pytest.fixture(params=["local", "object-memory"])
def cache_backend(request, tmp_path):
    if request.param == "local":
        return LocalDiskBackend(tmp_path / "cache")
    return ObjectBackend(MemoryObjectClient())


class TestCacheTierContract:
    def test_spill_and_promote(self, cache_backend):
        cache = ResultCache(capacity=1, backend=cache_backend)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})  # evicts 'a' into the tier
        assert cache.get("a") == {"n": 1}
        assert cache.stats()["disk_hits"] == 1

    def test_write_through_default_for_backends(self, cache_backend):
        cache = ResultCache(capacity=8, backend=cache_backend)
        assert cache.write_through
        cache.put("k", {"n": 1})
        assert cache_backend.exists("k.json")

    def test_shared_namespace_between_caches(self, cache_backend):
        a = ResultCache(capacity=8, backend=cache_backend)
        b = ResultCache(capacity=8, backend=cache_backend)
        a.put("k", {"answer": 42})
        assert b.get("k") == {"answer": 42}
        assert b.stats()["disk_hits"] == 1

    def test_tier_capacity_enforced(self, cache_backend):
        cache = ResultCache(capacity=1, backend=cache_backend, disk_capacity=2)
        for i in range(6):
            cache.put(f"k{i}", {"n": i})
        assert len([k for k in cache_backend.keys() if k.endswith(".json")]) <= 2

    def test_local_default_remains_spill_on_evict(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        assert not cache.write_through
        cache.put("k", {"n": 1})
        assert not (tmp_path / "k.json").exists()


def test_slow_backend_write_does_not_block_other_uploads(tmp_path, micro_trace):
    """The store lock covers only the index: a backend write stuck on
    trace A must not hold up the upload of trace B."""
    other = make_micro_program(cs1=3.0).run().trace
    stuck_key = trace_digest(micro_trace)
    stuck, release = threading.Event(), threading.Event()
    client = MemoryObjectClient()
    put_object = client.put_object

    def slow_put(key, data):
        if stuck_key in key:
            stuck.set()
            release.wait(10)
        put_object(key, data)

    client.put_object = slow_put
    store = TraceStore(tmp_path, backend=ObjectBackend(client))
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
