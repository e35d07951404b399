"""The result cache service: content-addressed reuse of stored chunks.

Maps structural identities (:mod:`repro.graph.identity`) to live stored
chunk values, so a re-run of a subgraph whose identity matches an
earlier run is pruned from the execution graph and its consumers are
rewired to the cached chunks (xorq-style content addressing, ROADMAP
item 2).

The cache never owns bytes — values live in ordinary storage tiers and
participate in spill/pin accounting. What the cache owns is the
*directory* (identity → chunk key + size + ancestor identities) plus an
LRU byte budget of its own: when recorded entries exceed
``config.result_cache_budget`` the least-recently-hit non-explicit
entries are dropped and their now-unprotected chunks become ordinary
freeable intermediates.

Two removal paths with different semantics:

- **eviction** (budget pressure) forgets an entry but leaves entries
  built on top of it valid — their values are already materialized and
  correct;
- **invalidation** (chunk lost, source mutated, tileable freed) drops
  the entry *and every entry whose ancestor set contains it* — their
  recorded values descend from data that no longer exists or changed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..utils import DedupLog


@dataclass
class CacheEntry:
    """One cached result: where its value lives and what it depends on."""

    ident: str
    chunk_key: str
    nbytes: int
    deps: frozenset  # ancestor identities (invalidation edges)
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
    """Identity → stored-chunk directory with an LRU byte budget."""

    def __init__(self, storage, config=None):
        self._storage = storage
        self._config = config
        #: identity -> entry, in least-recently-hit-first order.
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: chunk key -> identity (reverse index for invalidation).
        self._by_chunk: dict[str, str] = {}
        #: identity -> ancestor identities for chunks whose values were
        #: *observed* this planning pass but not necessarily cached —
        #: boundary resolution for later passes (dynamic tiling runs
        #: several partial executes per session run).
        self._known: dict[str, tuple[str, frozenset]] = {}
        self._bytes = 0
        self.stats = CacheStats()
        #: memo of applied ``record_many`` tokens (at-least-once).
        self._dedup = DedupLog()

    # -- configuration -----------------------------------------------------
    def _budget(self) -> Optional[int]:
        if self._config is None:
            return None
        budget = getattr(self._config, "result_cache_budget", 0)
        return int(budget) if budget else None

    # -- planning-time lookups ---------------------------------------------
    def known_identities(self, chunk_keys: Iterable[str]) -> dict:
        """Resolve already-identified chunks for a planning pass.

        Returns ``{chunk_key: (identity, ancestor identities)}`` for
        every requested chunk the cache has seen before — the ``known``
        argument of ``compute_chunk_identities``, letting partial
        executes chain identities across tiling yields.
        """
        out = {}
        for key in chunk_keys:
            resolved = self._known.get(key)
            if resolved is not None:
                out[key] = resolved
        return out

    def note_identities(self, triples: Iterable[tuple]) -> None:
        """Remember ``(chunk_key, identity, ancestor idents)`` bindings."""
        for chunk_key, ident, deps in triples:
            self._known[chunk_key] = (ident, frozenset(deps))

    def lookup_many(self, idents: Iterable[str],
                    session: str) -> dict[str, tuple[str, int]]:
        """Hit test a batch of identities against live storage.

        Returns ``{identity: (chunk_key, nbytes)}`` for every hit. An
        entry whose chunk no longer sits in storage (freed outside the
        cache's sight) is dropped rather than returned. Hits refresh LRU
        order and count into the stats; misses count too.
        """
        hits: dict[str, tuple[str, int]] = {}
        sess = self.stats.per_session.setdefault(
            session, {"hits": 0, "misses": 0, "bytes_reused": 0})
        for ident in idents:
            entry = self._entries.get(ident)
            if entry is not None and not self._storage.contains(
                    entry.chunk_key):
                self._forget(ident)
                entry = None
            if entry is None:
                self.stats.misses += 1
                sess["misses"] += 1
                continue
            self._entries.move_to_end(ident)
            self.stats.hits += 1
            self.stats.bytes_reused += entry.nbytes
            sess["hits"] += 1
            sess["bytes_reused"] += entry.nbytes
            hits[ident] = (entry.chunk_key, entry.nbytes)
        return hits

    # -- recording ---------------------------------------------------------
    def record_many(self, entries: Iterable[tuple],
                    session: str, dedup_token=None) -> list[str]:
        """Insert executed results; returns chunk keys evicted for budget.

        ``entries`` holds ``(ident, chunk_key, nbytes, deps, explicit)``
        tuples. The caller (lifecycle) unpins/frees the returned chunk
        keys — eviction here only updates the directory.

        Idempotent under at-least-once delivery: a redelivered batch
        (same ``dedup_token``) returns the memoized evicted list, so
        duplicates never double-count directory bytes or re-run the LRU.
        """
        seen, memo = self._dedup.check(dedup_token)
        if seen:
            return memo
        evicted: list[str] = []
        for ident, chunk_key, nbytes, deps, explicit in entries:
            old = self._entries.get(ident)
            if old is not None:
                self._forget(ident)
            entry = CacheEntry(ident, chunk_key, int(nbytes),
                               frozenset(deps), bool(explicit), session)
            self._entries[ident] = entry
            self._by_chunk[chunk_key] = ident
            self._known[chunk_key] = (ident, entry.deps)
            self._bytes += entry.nbytes
        budget = self._budget()
        if budget is not None:
            evicted.extend(self._evict_to(budget))
        self._dedup.record(dedup_token, evicted)
        return evicted

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
        self._by_chunk.pop(entry.chunk_key, None)

    # -- invalidation ------------------------------------------------------
    def invalidate_chunks(self, chunk_keys: Iterable[str],
                          session: str) -> list[str]:
        """``session`` lost or changed a chunk's bytes: drop dependents too.

        Every entry whose identity *is* one of the lost chunks' — or
        whose ancestor set contains one — is removed. Returns the chunk
        keys of all dropped entries so lifecycle can unprotect them.

        The *transitive* part of the walk is limited to ``session``'s
        own entries: an entry pointing directly at a lost chunk is always
        dropped (its bytes are gone), but downstream dependents belonging
        to other sessions keep their entries — their values are already
        materialized under their own chunk keys, so like budget eviction
        this loses reuse, never correctness.
        """
        lost_keys = set(chunk_keys)
        lost_idents = set()
        for key in lost_keys:
            known = self._known.pop(key, None)
            if known is not None:
                lost_idents.add(known[0])
            ident = self._by_chunk.get(key)
            if ident is not None:
                lost_idents.add(ident)
        if not lost_idents:
            return []
        dropped: list[str] = []
        for ident in list(self._entries):
            entry = self._entries[ident]
            if entry.chunk_key not in lost_keys and entry.session != session:
                continue
            if ident in lost_idents or (entry.deps & lost_idents):
                dropped.append(entry.chunk_key)
                self._forget(ident)
                self.stats.invalidations += 1
        # boundary bindings downstream of the loss are stale too.
        prefix = f"{session}/"
        for key in list(self._known):
            if not key.startswith(prefix):
                continue
            ident, deps = self._known[key]
            if ident in lost_idents or (deps & lost_idents):
                del self._known[key]
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
            "bytes_cached": self._bytes,
            "per_session": {k: dict(v)
                            for k, v in self.stats.per_session.items()},
        }

    def clear(self) -> list[str]:
        """Drop every entry; returns the previously protected chunk keys."""
        dropped = list(self._by_chunk)
        self._entries.clear()
        self._by_chunk.clear()
        self._known.clear()
        self._bytes = 0
        return dropped
