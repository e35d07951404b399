"""The storage service: a supervisor-side router over per-worker stores.

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

The service plane splits this into two layers.  Each worker's tiers,
LRU ring, pins and spill counters live in a
:class:`~repro.storage.worker.WorkerStorage` unit — fronted by a
per-worker actor (``worker/<w>/storage``) in the deployment.  This
class is the supervisor-side *router*: it owns only the key -> owner-worker index,
the transfer ledger, and pin routing; every tier
operation is delegated to the owning worker's unit through its message
interface.  Units are duck-typed — a plain :class:`WorkerStorage` or an
``ActorRef`` to its actor both work, since the router only ever
calls methods on them.
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
    """Cluster-wide chunk routing over worker-local tiered stores."""

    def __init__(self, cluster: ClusterState, config: Config | None = None):
        self.cluster = cluster
        self.config = config if config is not None else cluster.config
        #: guards every location/route mutation and makes each public
        #: operation atomic: the accounting walk owns all *charged*
        #: accesses, but the parallel band runner's compute phase peeks
        #: values concurrently (and a spill may move the peeked item
        #: between tiers mid-read).  Worker units are only ever invoked
        #: under this lock, so they need no locking of their own.
        self._lock = threading.RLock()
        #: worker name -> worker storage handle (plain unit or actor ref).
        self._workers: dict[str, Any] = {
            worker.name: WorkerStorage(worker.name, cluster.memory[worker.name],
                                       self.config)
            for worker in cluster.workers
        }
        #: key -> owner worker name. Tier level is worker-local state;
        #: ask the owner when needed.
        self._locations: dict[str, str] = {}
        #: key -> pin route stack: one entry per outstanding pin, naming
        #: the worker the pin was routed to (None when the key was not
        #: stored anywhere at pin time).  Pins are counted, so nested
        #: pins (a chunk read by two in-flight subtasks) survive the
        #: first unpin; and they survive delete/re-put — the route stack
        #: is migrated to the new owner so unpin always balances.
        self._pin_routes: dict[str, list[str | None]] = {}
        self._transferred_bytes = 0

    def use_worker_handles(self, handles: dict[str, Any]) -> None:
        """Swap worker units for actor refs (the service deployment).

        ``handles`` maps worker name -> handle fronting that worker's
        existing :class:`WorkerStorage` state.
        """
        with self._lock:
            unknown = set(handles) - set(self._workers)
            if unknown:
                raise KeyError(f"unknown workers: {sorted(unknown)}")
            self._workers.update(handles)

    def worker_unit(self, worker: str) -> Any:
        """The storage handle owning ``worker``'s tiers."""
        return self._workers[worker]

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
            self._workers[worker].put_local(key, value, nbytes, level)
            self._locations[key] = worker
            self._migrate_pins(key, worker)
            return nbytes

    def ensure_free(self, worker: str, nbytes: int) -> None:
        """Spill until ``nbytes`` can be allocated on ``worker``.

        Raises :class:`WorkerOutOfMemory` when spilling cannot make room.
        """
        with self._lock:
            self._workers[worker].ensure_free_local(nbytes)

    def force_spill(self, worker: str) -> int:
        """Evict every unpinned memory-resident chunk of ``worker`` to disk.

        The OOM recovery ladder's first rung: empties the worker's memory
        tier (minus in-flight pins) so the failing subtask can retry in
        place. Returns the bytes moved; the worker charges them to its
        forced-spill counter, not the LRU spill metric.
        """
        with self._lock:
            return self._workers[worker].force_spill_local()

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
        once; fetching them under a single critical section skips the
        per-key lock round-trips without changing any charged number.
        """
        with self._lock:
            return self._get_many_locked(list(keys), requesting_worker)

    def _get_many_locked(self, keys: list[str],
                         requesting_worker: str) -> list[AccessInfo]:
        """Grouped fetch: consecutive same-owner keys become one unit call.

        Runs are *consecutive* on purpose: per-key charging order, the
        owner's LRU touch order, and the exact position a missing key
        raises at all match the per-key loop this replaces — only the
        number of worker-unit messages changes.
        """
        infos: list[AccessInfo] = []
        i, n = 0, len(keys)
        while i < n:
            owner = self._locations.get(keys[i])
            if owner is None:
                infos.append(self._get_locked(keys[i], requesting_worker))
                i += 1
                continue
            j = i + 1
            while j < n and self._locations.get(keys[j]) == owner:
                j += 1
            run = keys[i:j]
            for key, (value, nbytes, level) in zip(
                run, self._workers[owner].get_local_many(run)
            ):
                transferred = nbytes if owner != requesting_worker else 0
                self._transferred_bytes += transferred
                infos.append(AccessInfo(
                    value, nbytes, transferred_bytes=transferred,
                    tier_penalty=(DISK_PENALTY if level == StorageLevel.DISK
                                  else 1.0),
                    source_worker=owner,
                ))
            i = j
        return infos

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
                return self._get_many_locked(keys, requesting_worker)
            except BaseException:
                self.unpin(keys)
                raise

    def _get_locked(self, key: str, requesting_worker: str,
                    touch_lru: bool = True) -> AccessInfo:
        owner = self._locations.get(key)
        if owner is None:
            raise StorageKeyError(key)
        value, nbytes, level = self._workers[owner].get_local(key, touch_lru)
        transferred = nbytes if owner != requesting_worker else 0
        self._transferred_bytes += transferred
        if level == StorageLevel.DISK:
            return AccessInfo(value, nbytes, transferred_bytes=transferred,
                              tier_penalty=DISK_PENALTY,
                              source_worker=owner)
        return AccessInfo(value, nbytes, transferred_bytes=transferred,
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
        owner = self._locations.get(key)
        if owner is None:
            raise StorageKeyError(key)
        return self._workers[owner].value_of(key)

    def peek_values(self, keys) -> dict[str, Any]:
        """Batched :meth:`peek_value`: one message for a whole input set.

        The band runners' compute phase gathers every stage-external
        input through this — accounting-free, LRU-untouched.
        """
        with self._lock:
            return {key: self._peek_value_locked(key) for key in keys}

    # -- pinning ------------------------------------------------------------
    def pin(self, keys) -> None:
        """Protect ``keys`` from LRU spill while a subtask reads them.

        Each pin is routed to the key's current owner worker, which keeps
        the chunk out of its spill victim set; the route is remembered so
        the matching unpin reaches the same worker.
        """
        with self._lock:
            by_worker: dict[str, list[str]] = {}
            for key in keys:
                worker = self._locations.get(key)
                if worker is not None:
                    by_worker.setdefault(worker, []).append(key)
                self._pin_routes.setdefault(key, []).append(worker)
            # pins are counters, so one grouped message per owner worker
            # is state-identical to the per-key calls it replaces.
            for worker, worker_keys in by_worker.items():
                self._workers[worker].pin_local(worker_keys)

    def unpin(self, keys) -> None:
        """Release one pin level on each of ``keys``."""
        with self._lock:
            by_worker: dict[str, list[str]] = {}
            for key in keys:
                routes = self._pin_routes.get(key)
                if not routes:
                    continue
                worker = routes.pop()
                if not routes:
                    del self._pin_routes[key]
                if worker is not None:
                    by_worker.setdefault(worker, []).append(key)
            for worker, worker_keys in by_worker.items():
                self._workers[worker].unpin_local(worker_keys)

    def _migrate_pins(self, key: str, new_worker: str | None) -> None:
        """Re-route ``key``'s outstanding pins after a (re-)put.

        A pinned chunk can be deleted and recreated on a different worker
        (recovery recompute, overwrite); the global pin contract says it
        stays protected wherever it lands, so move the worker-local pin
        counts to the new owner and rewrite the route stack.
        """
        routes = self._pin_routes.get(key)
        if not routes:
            return
        for old in set(routes):
            if old is not None and old != new_worker:
                self._workers[old].drop_pins_local(key)
        if new_worker is not None:
            self._workers[new_worker].set_pin_count_local(key, len(routes))
        self._pin_routes[key] = [new_worker] * len(routes)

    def is_pinned(self, key: str) -> bool:
        with self._lock:
            return bool(self._pin_routes.get(key))

    def pinned_keys(self) -> list[str]:
        """Keys currently pin-protected (empty between subtasks)."""
        with self._lock:
            return [key for key, routes in self._pin_routes.items() if routes]

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
        through the same put path (delete-if-exists, spill-or-raise, pin
        migration) in order, so worker state after the batch is exactly
        what the per-key puts would leave.
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
            owner = self._locations.get(key)
            if owner is None:
                raise StorageKeyError(key)
            return (owner, self._workers[owner].level_of(key))

    def nbytes_of(self, key: str) -> int:
        with self._lock:
            owner = self._locations.get(key)
            if owner is None:
                raise StorageKeyError(key)
            return self._workers[owner].nbytes_of_local(key)

    def delete(self, key: str) -> None:
        with self._lock:
            owner = self._locations.pop(key, None)
            if owner is not None:
                self._workers[owner].delete_local(key)

    # -- counters -----------------------------------------------------------
    def transferred_bytes(self) -> int:
        """Bytes that crossed the network (router-charged)."""
        with self._lock:
            return self._transferred_bytes

    def spilled_bytes(self) -> int:
        """LRU spill bytes that bought an admission, across workers."""
        with self._lock:
            return sum(unit.spilled_bytes() for unit in self._workers.values())

    def failed_admission_spill_bytes(self) -> int:
        """Bytes spilled by admissions that still ended out-of-memory."""
        with self._lock:
            return sum(unit.failed_admission_spill_bytes()
                       for unit in self._workers.values())

    def forced_spill_bytes(self) -> int:
        """Bytes evicted by the OOM ladder's force-spill rung."""
        with self._lock:
            return sum(unit.forced_spill_bytes()
                       for unit in self._workers.values())

    def memory_bytes(self, worker: str) -> int:
        return self._workers[worker].memory_bytes_local()

    def disk_bytes(self, worker: str) -> int:
        return self._workers[worker].disk_bytes_local()

    def keys_on(self, worker: str) -> list[str]:
        return self._workers[worker].keys_local()

    def all_keys(self) -> list[str]:
        """Every stored key across workers and tiers (re-tile snapshots)."""
        with self._lock:
            return list(self._locations)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._locations):
                self.delete(key)
            self._pin_routes.clear()
            for unit in self._workers.values():
                unit.clear_pins_local()
