"""Worker-local storage: one worker's memory/disk tiers and spill policy.

The cluster-wide :class:`~repro.storage.service.StorageService` used to
hold every worker's backends, LRU rings and pin counts in global maps.
The service plane partitions that keyspace by owner worker: each
:class:`WorkerStorage` owns exactly one worker's tiers, makes its own
spill/pin/quota decisions against its own :class:`MemoryTracker`, and is
fronted by a per-worker actor (``worker/<w>/storage``) in the
deployment.  The supervisor-side router only keeps the key -> owner
index.

Every method here is part of the worker storage *message interface*:
callers (the router) never reach into the backends directly, and no
method returns internal mutable state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..errors import StorageKeyError, WorkerOutOfMemory
from .base import StorageLevel, StoredItem
from .disk import DiskBackend
from .memory import MemoryBackend


class WorkerStorage:
    """One worker's tiered chunk store with local memory accounting."""

    def __init__(self, worker: str, tracker, config):
        self.worker = worker
        #: the worker's :class:`MemoryTracker` (shared with the cluster
        #: state so the simulation's peak accounting sees every byte).
        self.tracker = tracker
        self.config = config
        self._memory = MemoryBackend()
        self._disk = DiskBackend()
        self._lru: OrderedDict[str, None] = OrderedDict()
        #: key -> pin count; pinned chunks are never spill victims.
        #: Pins may outlive the chunk's residency (the router balances
        #: pin/unpin regardless of deletes in between), matching the old
        #: global pin table.
        self._pins: dict[str, int] = {}
        self._spilled_bytes = 0
        self._failed_admission_spill_bytes = 0
        self._forced_spill_bytes = 0

    # -- writes -----------------------------------------------------------
    def put_local(self, key: str, value: Any, nbytes: int,
                  level: StorageLevel = StorageLevel.MEMORY) -> int:
        """Store one chunk on this worker; spill-or-raise on a full tier."""
        if level == StorageLevel.DISK:
            self._disk.put(StoredItem(key, value, nbytes, level, self.worker))
            return nbytes
        if not self.tracker.can_fit(nbytes):
            if self.config.spill_to_disk:
                self._spill_until_fits(nbytes)
            # retry; raises WorkerOutOfMemory if still too large
        self.tracker.allocate(nbytes)
        self._memory.put(
            StoredItem(key, value, nbytes, StorageLevel.MEMORY, self.worker)
        )
        self._lru[key] = None
        return nbytes

    def ensure_free_local(self, nbytes: int) -> None:
        """Spill until ``nbytes`` can be allocated here (or raise)."""
        self._spill_until_fits(nbytes)

    def _spill_until_fits(self, nbytes: int) -> None:
        """Move least-recently-used *unpinned* chunks to disk.

        If the budget still cannot fit after spilling every candidate,
        the partial spill is charged to the failed-admission counter
        instead of the successful-spill one and
        :class:`WorkerOutOfMemory` propagates.
        """
        spilled_now = 0
        for victim_key in list(self._lru):
            if self.tracker.can_fit(nbytes):
                break
            if self._pins.get(victim_key):
                continue
            del self._lru[victim_key]
            item = self._memory.delete(victim_key)
            self.tracker.release(item.nbytes)
            item.level = StorageLevel.DISK
            self._disk.put(item)
            spilled_now += item.nbytes
        if self.tracker.can_fit(nbytes):
            self._spilled_bytes += spilled_now
        else:
            self._failed_admission_spill_bytes += spilled_now
            raise WorkerOutOfMemory(self.worker, nbytes, self.tracker.limit,
                                    self.tracker.used)

    def force_spill_local(self) -> int:
        """Evict every unpinned memory-resident chunk to disk.

        The OOM recovery ladder's first rung; returns the bytes moved
        (charged to the forced-spill counter, not the LRU one).
        """
        if not self.config.spill_to_disk:
            return 0
        spilled = 0
        for victim_key in list(self._lru):
            if self._pins.get(victim_key):
                continue
            del self._lru[victim_key]
            item = self._memory.delete(victim_key)
            self.tracker.release(item.nbytes)
            item.level = StorageLevel.DISK
            self._disk.put(item)
            spilled += item.nbytes
        self._forced_spill_bytes += spilled
        return spilled

    # -- reads ------------------------------------------------------------
    def get_local(self, key: str,
                  touch_lru: bool = True) -> tuple[Any, int, StorageLevel]:
        """Fetch ``(value, nbytes, level)``; the router charges transfers."""
        item = self._memory.get(key) if key in self._lru else None
        if item is not None:
            if touch_lru:
                self._lru.move_to_end(key)
            return item.value, item.nbytes, StorageLevel.MEMORY
        try:
            item = self._disk.get(key)
        except KeyError:
            raise StorageKeyError(key) from None
        return item.value, item.nbytes, StorageLevel.DISK

    def get_local_many(self, keys) -> list[tuple[Any, int, StorageLevel]]:
        """Batched :meth:`get_local`: one message per owner-run of keys.

        LRU touches happen in key order, matching the per-key calls the
        router's grouped ``get_many`` replaces.
        """
        return [self.get_local(key) for key in keys]

    def value_of(self, key: str) -> Any:
        """Accounting-free read: no LRU touch, no transfer charge."""
        return self.get_local(key, touch_lru=False)[0]

    def level_of(self, key: str) -> StorageLevel:
        if key in self._lru:
            return StorageLevel.MEMORY
        if key in set(self._disk.keys()):
            return StorageLevel.DISK
        raise StorageKeyError(key)

    def nbytes_of_local(self, key: str) -> int:
        return self.get_local(key, touch_lru=False)[1]

    # -- deletes ----------------------------------------------------------
    def delete_local(self, key: str) -> None:
        if key in self._lru:
            item = self._memory.delete(key)
            self.tracker.release(item.nbytes)
            self._lru.pop(key, None)
            return
        try:
            self._disk.delete(key)
        except KeyError:
            pass

    # -- pinning ----------------------------------------------------------
    def pin_local(self, keys) -> None:
        for key in keys:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin_local(self, keys) -> None:
        for key in keys:
            count = self._pins.get(key)
            if count is None:
                continue
            if count <= 1:
                del self._pins[key]
            else:
                self._pins[key] = count - 1

    def drop_pins_local(self, key: str) -> int:
        """Remove every pin level on ``key`` (pin migration); returns count."""
        return self._pins.pop(key, 0)

    def set_pin_count_local(self, key: str, count: int) -> None:
        """Set ``key``'s pin count outright (pin migration on re-put)."""
        if count <= 0:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count

    def is_pinned_local(self, key: str) -> bool:
        return bool(self._pins.get(key))

    def pinned_local(self) -> list[str]:
        return [key for key, count in self._pins.items() if count > 0]

    def clear_pins_local(self) -> None:
        self._pins.clear()

    # -- bookkeeping ------------------------------------------------------
    def keys_local(self) -> list[str]:
        return self._memory.keys() + self._disk.keys()

    def memory_bytes_local(self) -> int:
        return self._memory.total_bytes()

    def disk_bytes_local(self) -> int:
        return self._disk.total_bytes()

    def spilled_bytes(self) -> int:
        return self._spilled_bytes

    def failed_admission_spill_bytes(self) -> int:
        return self._failed_admission_spill_bytes

    def forced_spill_bytes(self) -> int:
        return self._forced_spill_bytes
