"""The storage service: every worker's tiers behind one actor.

Responsibilities (Section V-C):

- hold every intermediate chunk produced by subtask execution;
- charge each worker's memory budget, spilling least-recently-used chunks
  to disk when allowed (``config.spill_to_disk``) or raising
  :class:`WorkerOutOfMemory` when not;
- answer ``get`` from any worker, reporting how many bytes crossed the
  network and which tier served the read, so the simulation can charge
  transfer and disk penalties;
- track data location by key so shuffles and locality-aware scheduling
  know where chunks live.

Each worker's tiers and spill policy live in a
:class:`~repro.storage.worker.WorkerStorage` unit, which is plain state
of this class: the deployment fronts the whole service with one actor
(``service/storage``) and every tier operation is a direct call on the
owning worker's unit.  This class owns the key -> owner-worker index,
the per-key pin counts and the transfer ledger.
"""

from __future__ import annotations

import threading
from typing import Any

from ..cluster.cluster import ClusterState
from ..config import Config
from ..errors import StorageKeyError
from ..utils import sizeof
from .base import DISK_PENALTY, AccessInfo, StorageLevel
from .worker import WorkerStorage


class StorageService:
    """Cluster-wide chunk store over worker-local tiers."""

    def __init__(self, cluster: ClusterState, config: Config | None = None):
        self.cluster = cluster
        self.config = config if config is not None else cluster.config
        #: guards every mutation and makes each public operation atomic:
        #: the accounting walk owns all *charged* accesses, but the
        #: parallel band runner's compute phase peeks values concurrently
        #: (and a spill may move the peeked item between tiers mid-read).
        #: The worker units are only ever called under this lock.
        self._lock = threading.RLock()
        #: key -> pin count; pinned chunks are never spill victims.  Pins
        #: are per key, not per stored copy: nested pins (a chunk read by
        #: two in-flight subtasks) survive the first unpin, and a pinned
        #: key deleted and re-put on any worker is still protected.
        self._pins: dict[str, int] = {}
        self._workers: dict[str, WorkerStorage] = {
            worker.name: WorkerStorage(worker.name, cluster.memory[worker.name],
                                       self.config, self._pins)
            for worker in cluster.workers
        }
        #: key -> owner worker name.
        self._locations: dict[str, str] = {}
        self._transferred_bytes = 0

    # -- writes -----------------------------------------------------------
    def put(self, key: str, value: Any, worker: str,
            level: StorageLevel = StorageLevel.MEMORY,
            nbytes: int | None = None) -> int:
        """Store ``value`` under ``key`` on ``worker``; returns its size.

        A put to MEMORY that does not fit triggers LRU spill-to-disk when
        enabled, otherwise the worker's OOM error propagates. Callers
        that already sized the value pass ``nbytes`` to skip the
        recursive ``sizeof``.
        """
        with self._lock:
            if key in self._locations:
                self.delete(key)
            if nbytes is None:
                nbytes = sizeof(value)
            self._workers[worker].put(key, value, nbytes, level)
            self._locations[key] = worker
            return nbytes

    def ensure_free(self, worker: str, nbytes: int) -> None:
        """Spill until ``nbytes`` can be allocated on ``worker``.

        Raises :class:`WorkerOutOfMemory` when spilling cannot make room.
        """
        with self._lock:
            self._workers[worker].ensure_free(nbytes)

    # -- reads ------------------------------------------------------------
    def get(self, key: str, requesting_worker: str) -> AccessInfo:
        """Fetch a chunk from wherever it lives.

        The returned :class:`AccessInfo` carries the bytes transferred over
        the network (zero for a local read) and the tier penalty
        (``DISK_PENALTY`` for a spilled chunk).
        """
        with self._lock:
            return self._get_locked(key, requesting_worker)

    def get_many(self, keys, requesting_worker: str) -> list[AccessInfo]:
        """Batched :meth:`get`: one lock acquisition for a whole fetch set.

        Subtask input gathering and shuffle reducers read many keys at
        once. Keys are charged and LRU-touched in order, and a missing
        key raises at its position, exactly as the per-key calls would.
        """
        with self._lock:
            return [self._get_locked(key, requesting_worker) for key in keys]

    def acquire_many(self, keys, requesting_worker: str) -> list[AccessInfo]:
        """Pin + fetch a subtask's whole input set in one critical section.

        On success every key holds one pin, which the caller releases
        with ``unpin(keys)`` once it is done reading. A fetch that raises
        (a key lost since the caller's check) leaves nothing pinned: the
        pins taken here are released before the error propagates.
        """
        keys = list(keys)
        with self._lock:
            self.pin(keys)
            try:
                return [self._get_locked(key, requesting_worker)
                        for key in keys]
            except BaseException:
                self.unpin(keys)
                raise

    def _owner(self, key: str) -> str:
        owner = self._locations.get(key)
        if owner is None:
            raise StorageKeyError(key)
        return owner

    def _get_locked(self, key: str, requesting_worker: str,
                    touch_lru: bool = True) -> AccessInfo:
        owner = self._owner(key)
        value, nbytes, level = self._workers[owner].get(key, touch_lru)
        transferred = nbytes if owner != requesting_worker else 0
        self._transferred_bytes += transferred
        return AccessInfo(
            value, nbytes, transferred_bytes=transferred,
            tier_penalty=DISK_PENALTY if level == StorageLevel.DISK else 1.0,
            source_worker=owner)

    def peek(self, key: str) -> Any:
        """Driver-side fetch: charged as a transfer from the owner worker.

        Read-only on the LRU: observing a chunk (``__repr__``,
        ``TileContext.peek``) must not change which chunk gets spilled
        next, or spill victim selection would depend on observation.
        """
        with self._lock:
            return self._get_locked(
                key, requesting_worker="<driver>", touch_lru=False
            ).value

    def peek_value(self, key: str) -> Any:
        """Accounting-free read: no transfer charge, no LRU touch.

        The parallel band runner's compute phase uses this — the charged
        ``get`` for the same key happens later, on the accounting thread,
        in deterministic order.
        """
        with self._lock:
            return self._peek_value_locked(key)

    def _peek_value_locked(self, key: str) -> Any:
        return self._workers[self._owner(key)].get(key, touch_lru=False)[0]

    def peek_values(self, keys) -> dict[str, Any]:
        """Batched :meth:`peek_value`: one message for a whole input set.

        The band runners' compute phase gathers every stage-external
        input through this — accounting-free, LRU-untouched.
        """
        with self._lock:
            return {key: self._peek_value_locked(key) for key in keys}

    # -- pinning ------------------------------------------------------------
    def pin(self, keys) -> None:
        """Protect ``keys`` from spill while a subtask reads them: one pin
        level per key, whether and wherever the key is stored."""
        with self._lock:
            for key in keys:
                self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, keys) -> None:
        """Release one pin level on each of ``keys``."""
        with self._lock:
            for key in keys:
                count = self._pins.get(key, 0)
                if count > 1:
                    self._pins[key] = count - 1
                elif count:
                    del self._pins[key]

    def is_pinned(self, key: str) -> bool:
        with self._lock:
            return key in self._pins

    def pinned_keys(self) -> list[str]:
        """Keys currently pin-protected (empty between subtasks)."""
        with self._lock:
            return list(self._pins)

    # -- bookkeeping --------------------------------------------------------
    def contains(self, key: str) -> bool:
        return key in self._locations

    def missing_keys(self, keys) -> list[str]:
        """The subset of ``keys`` not stored anywhere, in input order.

        One message where the pending-scan / fault pre-check loops used
        to send one ``contains`` per key.
        """
        with self._lock:
            return [key for key in keys if key not in self._locations]

    def put_many(self, entries, worker: str) -> list[int]:
        """Batched :meth:`put`: ``entries`` is ``(key, value, nbytes)``.

        One message stores a subtask's whole output set; each entry goes
        through the same put path (delete-if-exists, spill-or-raise) in
        order, so worker state after the batch is exactly what the
        per-key puts would leave.
        """
        with self._lock:
            return [
                self.put(key, value, worker, nbytes=nbytes)
                for key, value, nbytes in entries
            ]

    def delete_many(self, keys) -> None:
        """Batched :meth:`delete` (refcount frees arrive in bulk)."""
        with self._lock:
            for key in keys:
                self.delete(key)

    def location_of(self, key: str) -> tuple[str, StorageLevel]:
        with self._lock:
            owner = self._owner(key)
            return owner, self._workers[owner].level_of(key)

    def nbytes_of(self, key: str) -> int:
        with self._lock:
            return self._workers[self._owner(key)].get(key, touch_lru=False)[1]

    def delete(self, key: str) -> None:
        with self._lock:
            owner = self._locations.pop(key, None)
            if owner is not None:
                self._workers[owner].delete(key)

    # -- counters -----------------------------------------------------------
    def transferred_bytes(self) -> int:
        """Bytes that crossed the network."""
        with self._lock:
            return self._transferred_bytes

    def spilled_bytes(self) -> int:
        """LRU spill bytes that bought an admission, across workers."""
        with self._lock:
            return sum(unit.spilled_bytes for unit in self._workers.values())

    def failed_admission_spill_bytes(self) -> int:
        """Bytes spilled by admissions that still ended out-of-memory."""
        with self._lock:
            return sum(unit.failed_admission_spill_bytes
                       for unit in self._workers.values())

    def memory_bytes(self, worker: str) -> int:
        with self._lock:
            return sum(item.nbytes
                       for item in self._workers[worker].memory.values())

    def disk_bytes(self, worker: str) -> int:
        with self._lock:
            return sum(item.nbytes
                       for item in self._workers[worker].disk.values())

    def keys_on(self, worker: str) -> list[str]:
        with self._lock:
            unit = self._workers[worker]
            return [*unit.memory, *unit.disk]

    def all_keys(self) -> list[str]:
        """Every stored key across workers and tiers (re-tile snapshots)."""
        with self._lock:
            return list(self._locations)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._locations):
                self.delete(key)
            self._pins.clear()
