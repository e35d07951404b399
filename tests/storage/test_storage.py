"""Unit tests for the storage service and shuffle manager."""

import contextlib

import numpy as np
import pytest

from repro.cluster import ClusterState
from repro.config import Config
from repro.errors import StorageKeyError, WorkerOutOfMemory
from repro.storage import ShuffleManager, StorageLevel, StorageService


def make_service(memory_limit=10_000, spill=True, n_workers=2):
    cfg = Config()
    cfg.cluster.n_workers = n_workers
    cfg.cluster.memory_limit = memory_limit
    cfg.spill_to_disk = spill
    cluster = ClusterState(cfg)
    return StorageService(cluster, cfg), cluster


def force_spill(service, worker):
    """Ask ``worker`` for its whole budget, the way an admission asks for
    room: LRU spill moves every unpinned resident to disk, and a pinned
    one (or no disk tier) leaves the request short, which raises.
    Returns the bytes moved to disk."""
    before = service.disk_bytes(worker)
    with contextlib.suppress(WorkerOutOfMemory):
        service.ensure_free(worker, service.cluster.memory[worker].limit)
    return service.disk_bytes(worker) - before


class TestPutGet:
    def test_roundtrip_local(self):
        service, _ = make_service()
        value = np.arange(10)
        service.put("k1", value, "worker-0")
        info = service.get("k1", "worker-0")
        assert np.array_equal(info.value, value)
        assert info.transferred_bytes == 0

    def test_remote_get_charges_transfer(self):
        service, _ = make_service()
        service.put("k1", np.arange(100), "worker-0")
        info = service.get("k1", "worker-1")
        assert info.transferred_bytes == info.nbytes > 0
        assert service.transferred_bytes() == info.nbytes

    def test_missing_key(self):
        service, _ = make_service()
        with pytest.raises(StorageKeyError):
            service.get("nope", "worker-0")

    def test_put_charges_memory(self):
        service, cluster = make_service()
        service.put("k1", np.arange(100), "worker-0")
        assert cluster.memory["worker-0"].used > 0

    def test_delete_releases_memory(self):
        service, cluster = make_service()
        service.put("k1", np.arange(100), "worker-0")
        service.delete("k1")
        assert cluster.memory["worker-0"].used == 0
        assert not service.contains("k1")

    def test_overwrite_replaces(self):
        service, cluster = make_service()
        service.put("k1", np.arange(100), "worker-0")
        used1 = cluster.memory["worker-0"].used
        service.put("k1", np.arange(10), "worker-0")
        assert cluster.memory["worker-0"].used < used1

    def test_location_of(self):
        service, _ = make_service()
        service.put("k1", 1, "worker-1")
        assert service.location_of("k1") == ("worker-1", StorageLevel.MEMORY)

    def test_delete_missing_is_noop(self):
        service, _ = make_service()
        service.delete("nope")  # must not raise


class TestSpill:
    def test_spill_moves_lru_to_disk(self):
        service, cluster = make_service(memory_limit=2000)
        a = np.zeros(100)  # 800 bytes
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.put("new", a, "worker-0")  # must evict "old"
        assert service.location_of("old") == ("worker-0", StorageLevel.DISK)
        assert service.location_of("new") == ("worker-0", StorageLevel.MEMORY)
        assert service.spilled_bytes() >= a.nbytes

    def test_spilled_read_has_penalty(self):
        service, _ = make_service(memory_limit=2000)
        a = np.zeros(100)
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.put("new", a, "worker-0")
        info = service.get("old", "worker-0")
        assert info.tier_penalty > 1.0
        assert np.array_equal(info.value, a)

    def test_get_refreshes_lru(self):
        service, _ = make_service(memory_limit=2000)
        a = np.zeros(100)
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.get("old", "worker-0")  # touch → "mid" becomes LRU
        service.put("new", a, "worker-0")
        assert service.location_of("mid")[1] == StorageLevel.DISK
        assert service.location_of("old")[1] == StorageLevel.MEMORY

    def test_peek_does_not_refresh_lru(self):
        """``peek`` is a read-only observation (driver fetch, diagnostics):
        it must not promote its key in the LRU and thereby change which
        chunk the next allocation spills."""
        service, _ = make_service(memory_limit=2000)
        a = np.zeros(100)
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.peek("old")  # no touch → "old" stays LRU
        service.put("new", a, "worker-0")
        assert service.location_of("old")[1] == StorageLevel.DISK
        assert service.location_of("mid")[1] == StorageLevel.MEMORY

    def test_force_spill_evicts_unpinned_residents(self):
        service, cluster = make_service(memory_limit=10_000)
        a = np.zeros(100)
        service.put("keep", a, "worker-0")
        service.put("drop", a, "worker-0")
        service.pin(["keep"])
        freed = force_spill(service, "worker-0")
        assert freed == a.nbytes
        assert service.location_of("keep")[1] == StorageLevel.MEMORY
        assert service.location_of("drop")[1] == StorageLevel.DISK
        # the pin left the request short: the spill bought no admission.
        assert service.failed_admission_spill_bytes() == freed
        assert service.spilled_bytes() == 0
        assert cluster.memory["worker-0"].used == a.nbytes
        service.unpin(["keep"])

    def test_force_spill_without_disk_frees_nothing(self):
        service, _ = make_service(memory_limit=10_000, spill=False)
        service.put("a", np.zeros(100), "worker-0")
        with pytest.raises(WorkerOutOfMemory):
            service.ensure_free("worker-0", 10_000)
        assert force_spill(service, "worker-0") == 0
        assert service.location_of("a")[1] == StorageLevel.MEMORY

    def test_no_spill_raises_oom(self):
        service, _ = make_service(memory_limit=1000, spill=False)
        service.put("a", np.zeros(100), "worker-0")
        with pytest.raises(WorkerOutOfMemory):
            service.put("b", np.zeros(100), "worker-0")

    def test_oversized_value_oom_even_with_spill(self):
        service, _ = make_service(memory_limit=1000, spill=True)
        with pytest.raises(WorkerOutOfMemory):
            service.put("huge", np.zeros(1000), "worker-0")

    def test_ensure_free(self):
        service, cluster = make_service(memory_limit=2000)
        service.put("a", np.zeros(100), "worker-0")
        service.put("b", np.zeros(100), "worker-0")
        service.ensure_free("worker-0", 1800)
        assert cluster.memory["worker-0"].available >= 1800


class TestShuffle:
    def test_write_and_gather(self):
        service, _ = make_service()
        shuffle = ShuffleManager(service)
        shuffle.write_partition("s1", mapper=0, reducer=0, data=[1, 2], worker="worker-0")
        shuffle.write_partition("s1", mapper=1, reducer=0, data=[3], worker="worker-1")
        shuffle.write_partition("s1", mapper=0, reducer=1, data=[9], worker="worker-0")
        values, transferred, penalty = shuffle.gather("s1", 0, "worker-0")
        assert values == [[1, 2], [3]]
        assert transferred > 0  # mapper 1's partition crossed workers
        assert shuffle.mapper_count("s1") == 2

    def test_gather_local_no_transfer(self):
        service, _ = make_service()
        shuffle = ShuffleManager(service)
        shuffle.write_partition("s1", 0, 0, [1], "worker-0")
        _, transferred, _ = shuffle.gather("s1", 0, "worker-0")
        assert transferred == 0

    def test_cleanup_frees_storage(self):
        service, cluster = make_service()
        shuffle = ShuffleManager(service)
        shuffle.write_partition("s1", 0, 0, np.zeros(100), "worker-0")
        assert cluster.memory["worker-0"].used > 0
        shuffle.cleanup("s1")
        assert cluster.memory["worker-0"].used == 0

    def test_gather_unknown_shuffle(self):
        service, _ = make_service()
        shuffle = ShuffleManager(service)
        values, transferred, _ = shuffle.gather("nope", 0, "worker-0")
        assert values == [] and transferred == 0

    def test_live_bytes(self):
        service, _ = make_service()
        shuffle = ShuffleManager(service)
        shuffle.write_partition("s1", 0, 0, np.zeros(10), "worker-0")
        assert shuffle.live_bytes("s1") > 0
        shuffle.cleanup("s1")
        assert shuffle.live_bytes("s1") == 0


class TestAccountingInvariants:
    """Observation must never change accounting (result-cache satellite).

    The result cache validates hits with ``contains`` and the planner
    observes values with ``peek``/``peek_values``; none of these may
    perturb LRU order (spill victim selection) or pin state, or cache
    lookups would change which chunk spills next.
    """

    def _lru_order(self, service, worker="worker-0"):
        return list(service._workers[worker].memory)

    def test_peek_does_not_touch_lru(self):
        service, _ = make_service(memory_limit=100_000)
        for key in ("a", "b", "c"):
            service.put(key, np.zeros(100), "worker-0")
        before = self._lru_order(service)
        service.peek("a")
        service.peek_value("a")
        service.peek_values(["a", "b"])
        assert self._lru_order(service) == before == ["a", "b", "c"]

    def test_get_does_touch_lru(self):
        # the control: a charged read must refresh recency, so the two
        # paths are genuinely different in the victim ordering.
        service, _ = make_service(memory_limit=100_000)
        for key in ("a", "b", "c"):
            service.put(key, np.zeros(100), "worker-0")
        service.get("a", "worker-0")
        assert self._lru_order(service) == ["b", "c", "a"]

    def test_peeked_chunk_still_first_spill_victim(self):
        service, _ = make_service(memory_limit=2_000)
        a = np.zeros(100)  # 800 bytes
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.peek("old")  # observation must not rescue "old"
        service.put("new", a, "worker-0")  # needs a spill
        assert service.location_of("old") == ("worker-0", StorageLevel.DISK)
        assert service.location_of("mid") == ("worker-0", StorageLevel.MEMORY)

    def test_contains_does_not_touch_lru(self):
        service, _ = make_service(memory_limit=100_000)
        for key in ("a", "b", "c"):
            service.put(key, np.zeros(100), "worker-0")
        before = self._lru_order(service)
        assert service.contains("a")
        assert not service.contains("nope")
        assert self._lru_order(service) == before

    def test_force_spill_exempts_pinned(self):
        service, _ = make_service(memory_limit=100_000)
        a = np.zeros(100)
        service.put("pinned", a, "worker-0")
        service.put("loose1", a, "worker-0")
        service.put("loose2", a, "worker-0")
        service.pin(["pinned"])
        moved = force_spill(service, "worker-0")
        assert moved == 2 * a.nbytes
        assert service.location_of("pinned") == (
            "worker-0", StorageLevel.MEMORY)
        assert service.location_of("loose1") == (
            "worker-0", StorageLevel.DISK)
        assert service.location_of("loose2") == (
            "worker-0", StorageLevel.DISK)
        service.unpin(["pinned"])
        assert force_spill(service, "worker-0") == a.nbytes

    def test_failed_acquire_many_leaves_nothing_pinned(self):
        """A fetch that raises must release the pins it took: the
        executor calls ``acquire_many`` outside its ``try/finally``, so
        a leaked pin would exempt the chunk from spill for good."""
        service, _ = make_service(memory_limit=100_000)
        a = np.zeros(100)
        service.put("present", a, "worker-0")
        with pytest.raises(StorageKeyError):
            service.acquire_many(["present", "absent"], "worker-0")
        assert service.pinned_keys() == []
        assert force_spill(service, "worker-0") == a.nbytes
        assert service.location_of("present") == (
            "worker-0", StorageLevel.DISK)
        # the successful path still pins until the caller unpins.
        service.acquire_many(["present"], "worker-0")
        assert service.pinned_keys() == ["present"]
        service.unpin(["present"])
        assert service.pinned_keys() == []

    def test_lru_spill_skips_pinned(self):
        service, _ = make_service(memory_limit=2_000)
        a = np.zeros(100)  # 800 bytes
        service.put("old", a, "worker-0")
        service.put("mid", a, "worker-0")
        service.pin(["old"])
        service.put("new", a, "worker-0")  # budget spill must skip "old"
        assert service.location_of("old") == (
            "worker-0", StorageLevel.MEMORY)
        assert service.location_of("mid") == ("worker-0", StorageLevel.DISK)

    def test_pins_follow_the_key_through_delete_and_reput(self):
        """A pin protects a key wherever it is stored next: a chunk
        deleted and recomputed on another worker while a reader still
        holds it stays out of that worker's spill victims, and the pins
        balance level by level."""
        service, _ = make_service(memory_limit=100_000)
        a = np.zeros(100)
        service.put("k", a, "worker-0")
        service.pin(["k"])
        service.pin(["k"])
        service.delete("k")
        service.put("k", a, "worker-1")
        service.put("loose", a, "worker-1")
        assert force_spill(service, "worker-1") == a.nbytes
        assert service.location_of("k") == ("worker-1", StorageLevel.MEMORY)
        service.unpin(["k"])
        assert service.pinned_keys() == ["k"]
        assert force_spill(service, "worker-1") == 0
        service.unpin(["k"])
        assert service.pinned_keys() == []
        assert force_spill(service, "worker-1") == a.nbytes
        assert service.location_of("k") == ("worker-1", StorageLevel.DISK)
