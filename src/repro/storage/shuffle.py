"""Shuffle support on top of the storage service.

Mappers write one partition per reducer into storage under structured
keys; reducers gather all partitions addressed to them. Transfers between
workers are aggregated per (source, destination) pair, modelling the
paper's "aggregating all the shuffling data together to reduce data
transfer overheads" optimization.

Partitions are indexed by ``(shuffle_id, reducer)``: a reducer's gather
touches exactly its own mapper list — O(M) for M mappers — instead of
scanning every ``(mapper, reducer)`` entry of the dataset, and the
storage reads for one gather happen as a single batched
:meth:`StorageService.get_many` call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from .base import StorageLevel
from .service import StorageService


def shuffle_key(shuffle_id: str, mapper: int, reducer: int) -> str:
    return f"shuffle:{shuffle_id}:{mapper}:{reducer}"


class ShuffleManager:
    """Tracks one session's shuffle datasets, indexed by reducer."""

    def __init__(self, storage: StorageService):
        self.storage = storage
        #: shuffle_id -> reducer -> [(mapper, key, worker, nbytes), ...]
        self._by_reducer: dict[str, dict[int, list[tuple[int, str, str, int]]]] = {}
        #: shuffle_id -> set of mapper ids that registered a partition.
        self._mappers: dict[str, set[int]] = {}
        #: storage key -> (shuffle_id, reducer), for O(1) forget on free.
        self._key_index: dict[str, tuple[str, int]] = {}
        self.total_shuffle_bytes = 0
        #: diagnostics: partition entries examined across all gathers.
        #: Reducer indexing keeps this at sum(M) instead of sum(M x R).
        self.gather_scanned = 0
        #: diagnostics: storage reads issued by gathers (== scanned).
        self.gather_fetches = 0
        #: diagnostics: partitions registered again under a key that was
        #: already indexed — i.e. mapper re-execution during fault
        #: recovery replacing a stale entry.
        self.reregistered_partitions = 0

    # -- mapper side ------------------------------------------------------
    def register_partition(self, shuffle_id: str, mapper: int, reducer: int,
                           key: str, worker: str, nbytes: int) -> None:
        """Index an already-stored chunk as one shuffle partition.

        The executor calls this for every shuffle-map output chunk it
        stores; re-registering a key (chunk re-execution) replaces the
        stale entry.
        """
        if key in self._key_index:
            self.reregistered_partitions += 1
            self.forget_key(key)
        parts = self._by_reducer.setdefault(shuffle_id, {}).setdefault(
            reducer, []
        )
        parts.append((mapper, key, worker, nbytes))
        self._mappers.setdefault(shuffle_id, set()).add(mapper)
        self._key_index[key] = (shuffle_id, reducer)
        self.total_shuffle_bytes += nbytes

    def register_partitions(self, entries) -> None:
        """Batched :meth:`register_partition`.

        ``entries`` is ``(shuffle_id, mapper, reducer, key, worker,
        nbytes)`` tuples — a subtask's shuffle-map outputs index in one
        message.
        """
        for shuffle_id, mapper, reducer, key, worker, nbytes in entries:
            self.register_partition(
                shuffle_id, mapper, reducer, key, worker, nbytes
            )

    def write_partition(self, shuffle_id: str, mapper: int, reducer: int,
                        data: Any, worker: str) -> int:
        """A mapper stores the slice of its output addressed to ``reducer``."""
        key = shuffle_key(shuffle_id, mapper, reducer)
        nbytes = self.storage.put(key, data, worker, level=StorageLevel.MEMORY)
        self.register_partition(shuffle_id, mapper, reducer, key, worker, nbytes)
        return nbytes

    def mapper_count(self, shuffle_id: str) -> int:
        return len(self._mappers.get(shuffle_id, ()))

    # -- reducer side -----------------------------------------------------
    def gather(self, shuffle_id: str, reducer: int,
               requesting_worker: str) -> tuple[list[Any], int, float]:
        """Collect every partition addressed to ``reducer``, mapper order.

        Returns ``(values, transferred_bytes, tier_penalty_factor)``.
        Transfers from the same source worker are aggregated: the per-pair
        fixed overhead is paid once, captured by returning the number of
        distinct source workers alongside raw bytes.
        """
        if shuffle_id not in self._by_reducer:
            return [], 0, 0.0
        parts = sorted(self._by_reducer[shuffle_id].get(reducer, ()))
        self.gather_scanned += len(parts)
        if not parts:
            return [], 0, 1.0
        infos = self.storage.get_many(
            [key for _, key, __, ___ in parts], requesting_worker
        )
        self.gather_fetches += len(infos)
        values: list[Any] = []
        by_source: dict[str, int] = defaultdict(int)
        max_penalty = 1.0
        for info in infos:
            values.append(info.value)
            if info.transferred_bytes:
                by_source[info.source_worker] += info.transferred_bytes
            max_penalty = max(max_penalty, info.tier_penalty)
        transferred = sum(by_source.values())
        return values, transferred, max_penalty

    # -- lifecycle --------------------------------------------------------
    def forget_key(self, key: str) -> None:
        """Drop one partition from the index (its chunk was freed)."""
        location = self._key_index.pop(key, None)
        if location is None:
            return
        shuffle_id, reducer = location
        reducers = self._by_reducer.get(shuffle_id)
        if reducers is None:
            return
        parts = reducers.get(reducer)
        if parts:
            reducers[reducer] = [p for p in parts if p[1] != key]

    def forget_keys(self, keys) -> None:
        """Batched :meth:`forget_key` (refcount frees arrive in bulk)."""
        for key in keys:
            self.forget_key(key)

    def cleanup(self, shuffle_id: str) -> None:
        """Delete every partition of a finished shuffle."""
        reducers = self._by_reducer.pop(shuffle_id, None)
        self._mappers.pop(shuffle_id, None)
        if not reducers:
            return
        for parts in reducers.values():
            for _, key, __, ___ in parts:
                self._key_index.pop(key, None)
                self.storage.delete(key)

    # -- counters (methods, so actor refs can read them) -------------------
    def shuffle_bytes_total(self) -> int:
        return self.total_shuffle_bytes

    def gather_scanned_count(self) -> int:
        return self.gather_scanned

    def gather_fetch_count(self) -> int:
        return self.gather_fetches

    def reregistered_count(self) -> int:
        return self.reregistered_partitions

    def index_size(self) -> int:
        """Partitions currently indexed (0 after a clean run)."""
        return len(self._key_index)

    def live_bytes(self, shuffle_id: str) -> int:
        reducers = self._by_reducer.get(shuffle_id, {})
        return sum(
            nbytes
            for parts in reducers.values()
            for _, __, ___, nbytes in parts
        )
