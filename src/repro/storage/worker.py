"""One worker's storage: its memory and disk tiers and its spill policy.

A :class:`WorkerStorage` holds exactly one worker's chunks and makes that
worker's spill decisions against its own :class:`MemoryTracker`.  The
memory tier is one ``OrderedDict`` kept in LRU order (least recently used
first); the disk tier is a plain ``dict``.  It is plain state of the
:class:`~repro.storage.service.StorageService`, which calls it directly
under the service's lock, so it needs no locking of its own.  Pins are
the service's per-key counts: a unit reads them only to skip pinned spill
victims.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..errors import StorageKeyError, WorkerOutOfMemory
from .base import StorageLevel, StoredItem


class WorkerStorage:
    """One worker's tiered chunk store with local memory accounting."""

    def __init__(self, worker: str, tracker, config, pins: dict[str, int]):
        self.worker = worker
        #: the worker's :class:`MemoryTracker` (shared with the cluster
        #: state so the simulation's peak accounting sees every byte).
        self.tracker = tracker
        self.config = config
        #: key -> item, least recently used first.
        self.memory: OrderedDict[str, StoredItem] = OrderedDict()
        self.disk: dict[str, StoredItem] = {}
        #: the service's key -> pin count; pinned chunks never spill.
        self._pins = pins
        #: LRU spill bytes that bought an admission.
        self.spilled_bytes = 0
        #: bytes spilled by admissions that still ended out-of-memory.
        self.failed_admission_spill_bytes = 0

    def put(self, key: str, value: Any, nbytes: int,
            level: StorageLevel = StorageLevel.MEMORY) -> None:
        """Store one chunk on this worker; spill-or-raise on a full tier."""
        if level == StorageLevel.DISK:
            self.disk[key] = StoredItem(value, nbytes)
            return
        if not self.tracker.can_fit(nbytes):
            self.ensure_free(nbytes)
        self.tracker.allocate(nbytes)
        self.memory[key] = StoredItem(value, nbytes)

    def ensure_free(self, nbytes: int) -> None:
        """Move least-recently-used *unpinned* chunks to disk until
        ``nbytes`` fit (with ``spill_to_disk`` off, none move).

        If the budget still cannot fit after spilling every candidate,
        the partial spill is charged to the failed-admission counter
        instead of the successful-spill one and
        :class:`WorkerOutOfMemory` propagates.
        """
        spilled_now = 0
        victims = list(self.memory) if self.config.spill_to_disk else []
        for key in victims:
            if self.tracker.can_fit(nbytes):
                break
            if key not in self._pins:
                spilled_now += self._spill(key)
        if self.tracker.can_fit(nbytes):
            self.spilled_bytes += spilled_now
        else:
            self.failed_admission_spill_bytes += spilled_now
            raise WorkerOutOfMemory(self.worker, nbytes, self.tracker.limit,
                                    self.tracker.used)

    def _spill(self, key: str) -> int:
        item = self.disk[key] = self.memory.pop(key)
        self.tracker.release(item.nbytes)
        return item.nbytes

    def get(self, key: str,
            touch_lru: bool = True) -> tuple[Any, int, StorageLevel]:
        """Fetch ``(value, nbytes, level)``; the service charges transfers."""
        item = self.memory.get(key)
        if item is not None:
            if touch_lru:
                self.memory.move_to_end(key)
            return item.value, item.nbytes, StorageLevel.MEMORY
        item = self.disk.get(key)
        if item is None:
            raise StorageKeyError(key)
        return item.value, item.nbytes, StorageLevel.DISK

    def level_of(self, key: str) -> StorageLevel:
        if key in self.memory:
            return StorageLevel.MEMORY
        if key in self.disk:
            return StorageLevel.DISK
        raise StorageKeyError(key)

    def delete(self, key: str) -> None:
        item = self.memory.pop(key, None)
        if item is not None:
            self.tracker.release(item.nbytes)
        else:
            self.disk.pop(key, None)
