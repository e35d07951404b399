"""The result cache service: stored results, addressed by expression.

One directory, keyed by the result-cache key of a tileable
(:mod:`repro.graph.identity`): what it computes — operators, the source
columns they read, the session configuration — never where or when.
An entry is a result's layout: its ``nsplits`` and the specs of its
stored chunks. A run looks every untiled tileable of its pruned plan up
in one message and binds the ones that hit to their cached chunks, so a
repeated query is answered without tiling or executing anything, and a
query built on an earlier one's result runs only its own tail
(xorq-style: the declarative expression is the key).

The cache never owns bytes — values live in ordinary storage tiers and
participate in spill/pin accounting. What the cache owns is the
directory plus an LRU byte budget of its own: when recorded entries
exceed ``config.result_cache_budget`` the least-recently-hit
non-explicit entries are dropped and their now-unprotected chunks become
ordinary freeable intermediates.

An entry goes when any of its bytes do: budget *eviction*,
*invalidation* (a chunk was lost, freed or re-tiled away), or a lookup
that finds a chunk gone from storage. Entries computed from it stay —
their values are materialized under their own keys, and content
addressing means a changed source can only ever produce new keys, never
hit an old one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class CacheEntry:
    """One cached result: its layout and what its chunks weigh."""

    nsplits: tuple
    #: one spec per chunk; each spec's first item is the chunk key.
    specs: tuple
    nbytes: int
    explicit: bool   # from .cache(): never budget-evicted
    session: str

    @property
    def chunk_keys(self) -> list[str]:
        return [spec[0] for spec in self.specs]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    bytes_reused: int = 0
    per_session: dict = field(default_factory=dict)


class ResultCacheService:
    """Key → stored-result directory with an LRU byte budget."""

    def __init__(self, storage, config=None):
        self._storage = storage
        self._config = config
        #: key -> entry, in least-recently-hit-first order.
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: chunk key -> the keys whose entry holds it (for invalidation).
        self._by_chunk: dict[str, set[str]] = {}
        self._bytes = 0
        self.stats = CacheStats()

    # -- configuration -----------------------------------------------------
    def _budget(self) -> Optional[int]:
        if self._config is None:
            return None
        budget = getattr(self._config, "result_cache_budget", 0)
        return int(budget) if budget else None

    def _count(self, session: str, hits: int, misses: int,
               nbytes: int) -> None:
        sess = self.stats.per_session.setdefault(
            session, {"hits": 0, "misses": 0, "bytes_reused": 0})
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.bytes_reused += nbytes
        sess["hits"] += hits
        sess["misses"] += misses
        sess["bytes_reused"] += nbytes

    # -- planning-time lookup ----------------------------------------------
    def lookup_many(self, keys: Iterable[str],
                    session: str) -> dict[str, tuple[tuple, tuple, int]]:
        """Hit test a plan's keys against live storage.

        Returns ``{key: (nsplits, chunk specs, nbytes)}`` for every key
        with a live entry. An entry one of whose chunks is no longer in
        storage (freed outside the cache's sight) is dropped rather than
        returned. Hits refresh LRU order and count into the stats;
        misses count too.
        """
        keys = list(dict.fromkeys(keys))
        found = {key: self._entries[key] for key in keys
                 if key in self._entries}
        missing = set(self._storage.missing_keys(
            [chunk for entry in found.values() for chunk in entry.chunk_keys]
        )) if found else set()
        hits: dict[str, tuple[tuple, tuple, int]] = {}
        for key, entry in found.items():
            if missing.intersection(entry.chunk_keys):
                self._forget(key)
                continue
            self._entries.move_to_end(key)
            hits[key] = (entry.nsplits, entry.specs, entry.nbytes)
        self._count(session, len(hits), len(keys) - len(hits),
                    sum(nbytes for _, _, nbytes in hits.values()))
        return hits

    # -- recording ---------------------------------------------------------
    def record_many(self, entries: Iterable[tuple],
                    session: str) -> list[str]:
        """Answer each key from its result's layout from now on.

        ``entries`` holds ``(key, nsplits, chunk specs, nbytes,
        explicit)`` tuples. Returns the chunk keys no entry holds any
        more (a replaced entry's, or those evicted for budget): the
        caller (lifecycle) unprotects them — the directory never frees.
        """
        dropped: list[str] = []
        for key, nsplits, specs, nbytes, explicit in entries:
            dropped += self._forget(key)
            entry = CacheEntry(tuple(nsplits), tuple(specs), int(nbytes),
                               bool(explicit), session)
            self._entries[key] = entry
            for chunk in entry.chunk_keys:
                self._by_chunk.setdefault(chunk, set()).add(key)
            self._bytes += entry.nbytes
        budget = self._budget()
        if budget is not None:
            dropped += self._evict_to(budget)
        return self._orphans(dropped)

    def _evict_to(self, budget: int) -> list[str]:
        evicted: list[str] = []
        for key in list(self._entries):
            if self._bytes <= budget:
                break
            if self._entries[key].explicit:
                continue
            evicted += self._forget(key)
            self.stats.evictions += 1
        return evicted

    def _forget(self, key: str) -> list[str]:
        """Drop ``key``'s entry; returns its chunk keys."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return []
        self._bytes -= entry.nbytes
        for chunk in entry.chunk_keys:
            owners = self._by_chunk.get(chunk)
            if owners is not None:
                owners.discard(key)
                if not owners:
                    del self._by_chunk[chunk]
        return entry.chunk_keys

    def _orphans(self, chunk_keys: list[str]) -> list[str]:
        """Those of ``chunk_keys`` that no entry holds."""
        return [chunk for chunk in dict.fromkeys(chunk_keys)
                if chunk not in self._by_chunk]

    # -- invalidation ------------------------------------------------------
    def invalidate_chunks(self, chunk_keys: Iterable[str]) -> list[str]:
        """The bytes of ``chunk_keys`` were lost, freed or re-tiled away:
        drop every entry holding one of them. Returns the chunk keys no
        entry holds any more, so lifecycle can unprotect them."""
        dropped: list[str] = []
        for chunk in chunk_keys:
            for key in list(self._by_chunk.get(chunk, ())):
                dropped += self._forget(key)
                self.stats.invalidations += 1
        return self._orphans(dropped)

    def drop_session(self, session: str) -> None:
        """A tenant left: forget its stats (its entries stay, shared)."""
        self.stats.per_session.pop(session, None)

    # -- introspection -----------------------------------------------------
    def cached_chunk_keys(self) -> list[str]:
        return list(self._by_chunk)

    def entry_identities(self) -> list[str]:
        """Sorted keys of all live entries (stability tests)."""
        return sorted(self._entries)

    def stats_snapshot(self) -> dict:
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "invalidations": self.stats.invalidations,
            "evictions": self.stats.evictions,
            "bytes_reused": self.stats.bytes_reused,
            "entries": len(self._entries),
            "bytes_cached": self._bytes,
            "per_session": {k: dict(v)
                            for k, v in self.stats.per_session.items()},
        }
