"""The result cache service: content-addressed reuse of stored chunks.

Two directories over live stored chunk values, both keyed by structural
identities (:mod:`repro.graph.identity`):

- **chunk entries** (identity → chunk key): a re-run of a subgraph whose
  identity matches an earlier run is pruned from the execution graph
  and its consumers are rewired to the cached chunks (xorq-style content
  addressing);
- **query entries** (query-level key → the result's chunk keys and
  ``nsplits``): a repeated query is answered from its expression alone,
  without tiling or executing anything. A query entry stands on the
  chunk entries of its result chunks: it is recorded only while all of
  them are live, and dropped with the first of them to go.

The cache never owns bytes — values live in ordinary storage tiers and
participate in spill/pin accounting. What the cache owns is the
directory plus an LRU byte budget of its own: when recorded chunk
entries exceed ``config.result_cache_budget`` the least-recently-hit
non-explicit entries are dropped and their now-unprotected chunks become
ordinary freeable intermediates.

An entry goes when its own bytes do: budget *eviction*, *invalidation*
(the chunk was lost, freed or re-tiled away), or a lookup that finds the
chunk gone from storage. Entries computed from it stay — their values
are materialized under their own keys, and content addressing means a
changed source can only ever produce new identities, never hit an old
one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class CacheEntry:
    """One cached chunk: where its value lives."""

    ident: str
    chunk_key: str
    nbytes: int
    explicit: bool   # from .cache(): never budget-evicted
    session: str


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    bytes_reused: int = 0
    per_session: dict = field(default_factory=dict)


class ResultCacheService:
    """Identity → stored-chunk directory with an LRU byte budget, plus
    the query-level entries that stand on it."""

    def __init__(self, storage, config=None):
        self._storage = storage
        self._config = config
        #: identity -> entry, in least-recently-hit-first order.
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: chunk key -> identity (reverse index for invalidation).
        self._by_chunk: dict[str, str] = {}
        #: query-level key -> ``(nsplits, chunk specs)`` of its result;
        #: each spec is a tuple whose first item is the chunk key.
        self._queries: dict[str, tuple] = {}
        #: chunk key -> the query-level keys whose result holds it.
        self._queries_on: dict[str, set[str]] = {}
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

    # -- planning-time lookups ---------------------------------------------
    def lookup_many(self, idents: Iterable[str],
                    session: str) -> dict[str, tuple[str, int]]:
        """Hit test a batch of identities against live storage.

        Returns ``{identity: (chunk_key, nbytes)}`` for every hit. An
        entry whose chunk no longer sits in storage (freed outside the
        cache's sight) is dropped rather than returned. Hits refresh LRU
        order and count into the stats; misses count too.
        """
        hits: dict[str, tuple[str, int]] = {}
        misses = 0
        for ident in idents:
            entry = self._entries.get(ident)
            if entry is not None and not self._storage.contains(
                    entry.chunk_key):
                self._forget(ident)
                entry = None
            if entry is None:
                misses += 1
                continue
            self._entries.move_to_end(ident)
            hits[ident] = (entry.chunk_key, entry.nbytes)
        self._count(session, len(hits), misses,
                    sum(nbytes for _, nbytes in hits.values()))
        return hits

    def lookup_query(self, ident: str,
                     session: str) -> Optional[tuple[tuple, int]]:
        """The ``(layout, nbytes)`` a query-level key was recorded with,
        or ``None``. A hit is a hit on each of the result's chunk
        entries (stats, LRU order); an entry one of whose chunks has
        left storage is dropped instead."""
        layout = self._queries.get(ident)
        if layout is not None:
            keys = [spec[0] for spec in layout[1]]
            if self._storage.missing_keys(keys):
                self._forget_query(ident)
                layout = None
        if layout is None:
            self._count(session, 0, 1, 0)
            return None
        nbytes = 0
        for key in keys:
            chunk_ident = self._by_chunk[key]
            self._entries.move_to_end(chunk_ident)
            nbytes += self._entries[chunk_ident].nbytes
        self._count(session, len(keys), 0, nbytes)
        return layout, nbytes

    # -- recording ---------------------------------------------------------
    def record_many(self, entries: Iterable[tuple],
                    session: str) -> list[str]:
        """Insert executed results; returns chunk keys evicted for budget.

        ``entries`` holds ``(ident, chunk_key, nbytes, explicit)``
        tuples. The caller (lifecycle) unpins/frees the returned chunk
        keys — eviction here only updates the directory.
        """
        evicted: list[str] = []
        for ident, chunk_key, nbytes, explicit in entries:
            self._forget(ident)
            entry = CacheEntry(ident, chunk_key, int(nbytes), bool(explicit),
                               session)
            self._entries[ident] = entry
            self._by_chunk[chunk_key] = ident
            self._bytes += entry.nbytes
        budget = self._budget()
        if budget is not None:
            evicted.extend(self._evict_to(budget))
        return evicted

    def record_query(self, ident: str, layout: tuple) -> bool:
        """Answer query-level key ``ident`` with ``layout`` — ``(nsplits,
        chunk specs)`` — from now on. Refused (``False``) unless every
        result chunk has a live chunk entry: the query entry must go
        when any of them does."""
        keys = [spec[0] for spec in layout[1]]
        if not all(key in self._by_chunk for key in keys):
            return False
        self._forget_query(ident)
        self._queries[ident] = layout
        for key in keys:
            self._queries_on.setdefault(key, set()).add(ident)
        return True

    def _evict_to(self, budget: int) -> list[str]:
        evicted: list[str] = []
        if self._bytes <= budget:
            return evicted
        for ident in list(self._entries):
            if self._bytes <= budget:
                break
            entry = self._entries[ident]
            if entry.explicit:
                continue
            evicted.append(entry.chunk_key)
            self._forget(ident)
            self.stats.evictions += 1
        return evicted

    def _forget(self, ident: str) -> None:
        entry = self._entries.pop(ident, None)
        if entry is None:
            return
        self._bytes -= entry.nbytes
        key = entry.chunk_key
        if self._by_chunk.get(key) == ident:
            del self._by_chunk[key]
            for query in list(self._queries_on.get(key, ())):
                self._forget_query(query)

    def _forget_query(self, ident: str) -> None:
        layout = self._queries.pop(ident, None)
        if layout is None:
            return
        for spec in layout[1]:
            owners = self._queries_on.get(spec[0])
            if owners is not None:
                owners.discard(ident)
                if not owners:
                    del self._queries_on[spec[0]]

    # -- invalidation ------------------------------------------------------
    def invalidate_chunks(self, chunk_keys: Iterable[str]) -> list[str]:
        """The bytes of ``chunk_keys`` were lost, freed or re-tiled away:
        drop the entries pointing at them, and every query entry whose
        result holds one. Returns the chunk keys of the dropped entries
        so lifecycle can unprotect them."""
        dropped: list[str] = []
        for key in chunk_keys:
            ident = self._by_chunk.get(key)
            if ident is None:
                continue
            self._forget(ident)
            self.stats.invalidations += 1
            dropped.append(key)
        return dropped

    # -- introspection -----------------------------------------------------
    def cached_chunk_keys(self) -> list[str]:
        return list(self._by_chunk)

    def entry_identities(self) -> list[str]:
        """Sorted identities of all live entries (stability tests)."""
        return sorted(self._entries)

    def stats_snapshot(self) -> dict:
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "invalidations": self.stats.invalidations,
            "evictions": self.stats.evictions,
            "bytes_reused": self.stats.bytes_reused,
            "entries": len(self._entries),
            "queries": len(self._queries),
            "bytes_cached": self._bytes,
            "per_session": {k: dict(v)
                            for k, v in self.stats.per_session.items()},
        }

    def clear(self) -> list[str]:
        """Drop every entry; returns the previously protected chunk keys."""
        dropped = list(self._by_chunk)
        self._entries.clear()
        self._by_chunk.clear()
        self._queries.clear()
        self._queries_on.clear()
        self._bytes = 0
        return dropped
