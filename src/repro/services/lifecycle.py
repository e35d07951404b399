"""The lifecycle service: chunk reference counting and lineage.

Owns what used to be inlined in the executor: the per-stage consumer
refcounts that decide when an intermediate chunk is freed, the
terminal-chunk flags that exempt user-visible results from eager
release, and the :class:`~repro.core.recovery.RecoveryManager` lineage
registry.  Frees go out through the service's own storage/shuffle
handles, so the message trace shows ``service/lifecycle ->
service/storage`` for every refcount-driven delete.

Stage state (consumer counts, retained keys) is scoped per session: on a
shared cluster N tenants run interleaved stages, and tenant A's
``begin_stage`` must not clobber tenant B's live refcounts.  The empty
session ``""`` is the private-cluster scope — single-session callers
never notice the scoping.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.recovery import RecoveryManager
from ..utils import DedupLog


class _StageScope:
    """One session's active-stage refcount state."""

    __slots__ = ("consumers", "retain")

    def __init__(self):
        self.consumers: defaultdict[str, int] = defaultdict(int)
        self.retain: set[str] = set()


class LifecycleService:
    """Refcount/forget logic plus the lineage registry."""

    def __init__(self, storage, shuffle, config, cache):
        self._storage = storage
        self._shuffle = shuffle
        self._config = config
        self._cache = cache
        self._recovery = RecoveryManager()
        #: chunk key -> is a tileable-boundary (user-visible) chunk;
        #: persisted across stages like the executor's old field. Keys
        #: are session-prefixed on a shared cluster, so one flat dict is
        #: collision-free.
        self._terminal: dict[str, bool] = {}
        #: session -> that session's active-stage scope.
        self._scopes: dict[str, _StageScope] = {"": _StageScope()}
        #: chunk keys the result cache points at — exempt from
        #: refcount-driven frees until evicted or invalidated.
        self._cache_protected: set[str] = set()
        #: memo of applied ``finish_subtask`` tokens (at-least-once).
        self._dedup = DedupLog()

    def _scope(self, session: str) -> _StageScope:
        scope = self._scopes.get(session)
        if scope is None:
            scope = self._scopes[session] = _StageScope()
        return scope

    def _retained_anywhere(self, key: str) -> bool:
        return any(key in scope.retain for scope in self._scopes.values())

    # -- stage refcounting -------------------------------------------------
    def register_terminals(self, terminal_by_key: dict[str, bool]) -> None:
        self._terminal.update(terminal_by_key)

    def is_terminal(self, key: str) -> bool:
        return self._terminal.get(key, False)

    def begin_stage(self, consumers: dict[str, int], retain,
                    session: str = "") -> None:
        """Install one stage's consumer counts and protected keys."""
        scope = self._scope(session)
        scope.consumers = defaultdict(int, consumers)
        scope.retain = set(retain)

    def release_consumed(self, input_keys, session: str = "") -> list[str]:
        """One subtask consumed ``input_keys``; free what dropped to zero.

        Eager engines (``eager_release=False``) pin user-visible
        intermediate frames (terminal chunks) but still free internal
        stage chunks (map partials, shuffle partitions), like Ray's
        reference counting.  Returns the freed keys.
        """
        eager = self._config.eager_release
        scope = self._scope(session)
        freed: list[str] = []
        for key in input_keys:
            scope.consumers[key] -= 1
            if scope.consumers[key] <= 0 and key not in scope.retain:
                if key in self._cache_protected:
                    continue
                if eager or not self._terminal.get(key, False):
                    freed.append(key)
        # frees go out batched, but still storage first then shuffle —
        # the LIFECYCLE -> STORAGE / -> SHUFFLE trace edges survive.
        if freed:
            self._storage.delete_many(freed)
            self._shuffle.forget_keys(freed)
        return freed

    def finish_subtask(self, subtask, session: str = "",
                       dedup_token=None) -> list[str]:
        """One message for a subtask's whole lifecycle epilogue.

        Releases the consumer refcounts its inputs held (freeing what
        dropped to zero) and records its lineage; returns the freed
        keys.

        Idempotent under at-least-once delivery: a redelivered message
        (same ``dedup_token``) returns the memoized freed list without
        decrementing refcounts a second time.
        """
        seen, memo = self._dedup.check(dedup_token)
        if seen:
            return memo
        freed = self.release_consumed(subtask.input_keys, session)
        self._recovery.record(subtask)
        self._dedup.record(dedup_token, freed)
        return freed

    def drop_session(self, session: str) -> None:
        """A tenant closed: discard its stage scope and terminal flags."""
        if not session:
            return
        self._scopes.pop(session, None)
        prefix = f"{session}/"
        for key in [k for k in self._terminal if k.startswith(prefix)]:
            del self._terminal[key]

    # -- result cache ------------------------------------------------------
    def cache_record(self, entries, session_id: str = "",
                     dedup_token=None) -> list[str]:
        """Register executed results with the cache; handle evictions.

        ``entries`` holds ``(ident, chunk_key, nbytes, deps, explicit)``
        tuples. Newly cached chunks become protected from refcount
        frees; chunks the cache evicted for budget lose protection and
        — under eager-release semantics — are deleted outright unless
        an active stage still retains them.

        The dedup token guards this hop *and* is forwarded to
        ``record_many``, so a duplicate on either the client->lifecycle
        or the lifecycle->cache edge applies the recording once.
        """
        seen, memo = self._dedup.check(dedup_token)
        if seen:
            return memo
        entries = list(entries)
        evicted = self._cache.record_many(entries, session_id,
                                          dedup_token=dedup_token)
        for _ident, chunk_key, _nbytes, _deps, _explicit in entries:
            self._cache_protected.add(chunk_key)
        result = self._unprotect(evicted)
        self._dedup.record(dedup_token, result)
        return result

    def invalidate_cached(self, chunk_keys, session=None) -> list[str]:
        """Chunk bytes vanished or changed: drop dependent cache entries.

        ``session`` scopes the *transitive* part of the invalidation to
        one tenant's entries (see ``ResultCacheService.invalidate_chunks``)
        — another tenant's still-valid entries survive tenant-local
        chunk loss or ``free()``.  ``None`` keeps the unscoped walk.
        Returns the chunk keys whose entries were dropped (their values,
        where still stored, become ordinary freeable intermediates).
        """
        dropped = self._cache.invalidate_chunks(
            list(chunk_keys), scope_session=session)
        return self._unprotect(dropped)

    def _unprotect(self, chunk_keys) -> list[str]:
        # Under eager-release semantics an unprotected chunk would have
        # been freed by refcounting long ago — drop its bytes now
        # (consumers re-materialize via lineage, as with the cache off).
        eager = self._config.eager_release
        deletable: list[str] = []
        for key in chunk_keys:
            self._cache_protected.discard(key)
            if eager and not self._retained_anywhere(key):
                deletable.append(key)
        if deletable:
            missing = set(self._storage.missing_keys(deletable))
            present = [k for k in deletable if k not in missing]
            if present:
                self._storage.delete_many(present)
        return list(chunk_keys)

    def cache_protected(self) -> set[str]:
        return set(self._cache_protected)

    # -- lineage -----------------------------------------------------------
    def record(self, subtask) -> None:
        self._recovery.record(subtask)

    def producer_of(self, key: str):
        return self._recovery.producer_of(key)

    def plan(self, keys) -> list:
        """Minimal lineage closure whose re-execution restores ``keys``."""
        return self._recovery.plan(keys, self._storage.contains)

    def recovery_manager(self) -> RecoveryManager:
        """The lineage registry itself (tests and tile-context checks)."""
        return self._recovery
