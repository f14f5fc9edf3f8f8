"""Result cache: LRU semantics, disk spill, stats."""

import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.backend import LocalDiskBackend
from repro.service.cache import ResultCache


def test_put_get_roundtrip():
    cache = ResultCache(capacity=4)
    cache.put("k1", {"x": 1})
    assert cache.get("k1") == {"x": 1}
    assert cache.get("missing") is None


def test_hit_miss_counters():
    cache = ResultCache(capacity=4)
    cache.put("k", {"v": 0})
    cache.get("k")
    cache.get("k")
    cache.get("nope")
    stats = cache.stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(2 / 3)


def test_lru_eviction_order():
    cache = ResultCache(capacity=2)
    cache.put("a", {"n": 1})
    cache.put("b", {"n": 2})
    cache.get("a")  # 'a' is now most recently used
    cache.put("c", {"n": 3})  # evicts 'b'
    assert len(cache) == 2
    assert cache.get("a") == {"n": 1}
    assert cache.get("b") is None  # no disk tier: gone
    assert cache.stats()["evictions"] == 1


def test_disk_spill_and_promote(tmp_path):
    cache = ResultCache(capacity=1, disk_dir=tmp_path)
    cache.put("a", {"n": 1})
    cache.put("b", {"n": 2})  # evicts 'a' to disk
    assert (tmp_path / "a.json").exists()
    assert cache.get("a") == {"n": 1}  # disk hit, promoted back
    stats = cache.stats()
    assert stats["disk_hits"] == 1
    assert stats["hits"] == 1


def test_disk_capacity_bound(tmp_path):
    cache = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=2)
    for i in range(6):
        cache.put(f"k{i}", {"n": i})
    assert len(list(tmp_path.glob("*.json"))) <= 2
    assert cache.stats()["disk_entries"] <= 2


def test_disk_trim_drops_oldest_spill_first(tmp_path):
    cache = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=2)
    for key in ("a", "b", "c", "d"):
        cache.put(key, {"k": key})
    # memory holds 'd'; spills were a, b, c — the 2-entry tier keeps the
    # two newest spills and dropped 'a' first.
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["b", "c"]


def test_trim_order_seeded_from_existing_tier(tmp_path):
    first = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=3)
    for key in ("a", "b", "c", "d"):  # spills a, b, c (d stays in memory)
        first.put(key, {"k": key})
    # A fresh cache over the same directory inherits the tier and its
    # oldest-first trim order: the next spill evicts 'a'.
    second = ResultCache(capacity=1, disk_dir=tmp_path, disk_capacity=3)
    assert second.stats()["disk_entries"] == 3
    second.put("e", {"k": "e"})
    second.put("f", {"k": "f"})  # evicts 'e' from memory -> tier trims 'a'
    assert not (tmp_path / "a.json").exists()
    assert second.get("b") == {"k": "b"}


def test_torn_disk_entry_reads_as_miss(tmp_path):
    cache = ResultCache(capacity=1, disk_dir=tmp_path)
    (tmp_path / "bad.json").write_text("{truncated")
    assert cache.get("bad") is None


def test_invalid_capacity_rejected():
    with pytest.raises(ServiceError, match="capacity"):
        ResultCache(capacity=0)


def test_get_does_not_wait_on_a_slow_spill(tmp_path):
    writing, release = threading.Event(), threading.Event()

    class SlowDisk(LocalDiskBackend):
        def put(self, key, data):
            writing.set()
            assert release.wait(10)
            super().put(key, data)

    cache = ResultCache(capacity=1, disk_dir=SlowDisk(tmp_path))
    cache.put("a", {"n": 1})
    spiller = threading.Thread(target=cache.put, args=("b", {"n": 2}))
    spiller.start()  # evicts 'a'; its spill blocks in the backend
    try:
        assert writing.wait(5)
        t0 = time.monotonic()
        assert cache.get("b") == {"n": 2}
        assert cache.get("a") == {"n": 1}  # evicted, not yet on disk
        assert cache.get("c") is None
        assert "a" in cache
        assert time.monotonic() - t0 < 1.0
    finally:
        release.set()
        spiller.join(timeout=10)
    # The spill landed; promoting 'a' evicted 'b', whose write the
    # running flush picked up too.
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["a", "b"]
    assert cache.stats()["evictions"] == 2


def test_failed_spill_is_dropped_not_retried(tmp_path):
    class FullDisk(LocalDiskBackend):
        def put(self, key, data):
            raise OSError(28, "No space left on device")

    cache = ResultCache(capacity=1, disk_dir=FullDisk(tmp_path))
    cache.put("a", {"n": 1})
    with pytest.raises(OSError):
        cache.put("b", {"n": 2})
    assert cache.get("a") is None  # lost from the cache, never half-kept
    assert cache.get("b") == {"n": 2}


def test_concurrent_puts_and_gets_lose_nothing(tmp_path):
    # Every key put must stay findable, in memory, owed or on disk, while
    # threads evict, spill and promote each other's entries.
    cache = ResultCache(capacity=3, disk_dir=tmp_path, disk_capacity=10_000)
    errors: list[str] = []

    def work(n):
        for i in range(25):
            key = f"{n}-{i}"
            cache.put(key, {"k": key})
            for probe in (key, f"{n}-{i // 2}"):
                if cache.get(probe) != {"k": probe}:
                    errors.append(probe)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for n in range(6):
        for i in range(25):
            assert cache.get(f"{n}-{i}") == {"k": f"{n}-{i}"}
