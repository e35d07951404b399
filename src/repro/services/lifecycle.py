"""The lifecycle service: chunk reference counting and lineage.

Owns every decision about when a stored chunk goes — per-stage consumer
refcounts, the plan readers that keep a chunk across the stages of one
``execute()``, the terminal flags that exempt user-visible results from
eager release — and the :class:`~repro.core.recovery.RecoveryManager`
lineage registry.  Frees go out through the service's own storage and
shuffle handles, so the message trace shows ``service/lifecycle ->
service/storage`` for every refcount-driven delete.

The retention rule (DESIGN.md §5, "fusion and retention"): a chunk goes
once the stages of this execute have no consumer waiting for it *and its
plan has no reader left* — the tiler names the readers as the plan takes
shape (``plan_update``).
Held chunks stay unpinned, and unlike ``eager_release=False`` the hold
ends with the last reader.

All of it is scoped per session: on a shared cluster N sessions run
interleaved stages, and session A's ``begin_stage`` must not clobber
session B's live refcounts.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.recovery import RecoveryManager


#: the plan reader standing for the caller of ``execute()``.
PLAN_RESULT = "result"


class _Scope:
    """One session's refcount state, for the span of one execute."""

    __slots__ = ("consumers", "readers")

    def __init__(self):
        #: chunk key -> subtasks yet to consume it, over the stages begun
        #: so far (a finished stage leaves zeros: "read here, none waiting").
        self.consumers: defaultdict[str, int] = defaultdict(int)
        #: chunk key -> plan readers yet to run (operator objects, not
        #: ids: a collected sample operator's id could be reused).
        self.readers: defaultdict[str, set] = defaultdict(set)


class LifecycleService:
    """Refcount/forget logic plus the lineage registry."""

    def __init__(self, storage, shuffle, config, cache):
        self._storage = storage
        self._shuffle = shuffle
        self._config = config
        self._cache = cache
        self._recovery = RecoveryManager()
        #: chunk key -> is a tileable-boundary (user-visible) chunk;
        #: persisted across stages. Keys carry their session's prefix,
        #: so one flat dict is collision-free.
        self._terminal: dict[str, bool] = {}
        #: session -> that session's scope.
        self._scopes: defaultdict[str, _Scope] = defaultdict(_Scope)
        #: chunk keys the result cache points at — exempt from
        #: refcount-driven frees until evicted or invalidated.
        self._cache_protected: set[str] = set()

    # -- stage refcounting -------------------------------------------------
    def register_terminals(self, terminal_by_key: dict[str, bool]) -> None:
        self._terminal.update(terminal_by_key)

    def begin_stage(self, consumers: dict[str, int], session: str) -> None:
        """Add one stage's consumer counts."""
        counts = self._scopes[session].consumers
        for key, n_consumers in consumers.items():
            counts[key] += n_consumers

    def plan_update(self, reads=(), done=(), *, session: str) -> list[str]:
        """The plan grew and/or readers finished: ``reads`` and ``done``
        hold ``(reader, chunk keys)`` pairs — a new reader of those keys,
        one that reads them no more. Returns the keys that frees."""
        scope = self._scopes[session]
        for reader, keys in reads:
            for key in keys:
                scope.readers[key].add(reader)
        return self._stop_reading(scope, done)

    def held(self, keys, running, session: str) -> list[str]:
        """Those of ``keys`` the plan has a reader for besides
        ``running``, the operators of the stage being planned."""
        readers = self._scopes[session].readers
        return [key for key in keys if not readers.get(key, running) <= running]

    def reset_plan(self, stored=(), *, session: str) -> list[str]:
        """An ``execute()`` attempt begins, or the run is over: forget
        the plan. Returns those of ``stored`` — the keys the finished run
        put into storage — that are neither its results nor exempt from
        release; the session drops them."""
        scope = self._scopes[session]
        garbage = [key for key in stored if self._freeable(key)
                   and PLAN_RESULT not in scope.readers.get(key, ())]
        scope.consumers.clear()
        scope.readers.clear()
        return garbage

    def _freeable(self, key: str) -> bool:
        # Eager engines (``eager_release=False``) pin user-visible
        # intermediate frames (terminal chunks) but still free internal
        # stage chunks (map partials, shuffle partitions), like Ray's
        # reference counting.
        return key not in self._cache_protected and (
            self._config.eager_release or not self._terminal.get(key, False))

    def _stop_reading(self, scope: _Scope, done) -> list[str]:
        """Each ``(reader, keys)`` of ``done`` reads those keys no more:
        free the ones a stage of this execute consumed and nobody is
        left to read. Returns the freed keys."""
        unread: dict[str, None] = {}
        for reader, keys in done:
            for key in keys:
                scope.readers[key].discard(reader)
                unread[key] = None
        freed = [key for key in unread
                 if scope.consumers.get(key, 1) <= 0
                 and not scope.readers[key] and self._freeable(key)]
        # frees go out batched, but still storage first then shuffle —
        # the LIFECYCLE -> STORAGE / -> SHUFFLE trace edges survive.
        if freed:
            self._storage.delete_many(freed)
            self._shuffle.forget_keys(freed)
        return freed

    def finish_subtask(self, subtask, session: str) -> list[str]:
        """One message for a subtask's whole lifecycle epilogue.

        Releases the consumer refcounts its inputs held, retires its
        operators as plan readers (freeing what nobody reads any more)
        and records its lineage; returns the freed keys.
        """
        scope = self._scopes[session]
        for key in subtask.input_keys:
            scope.consumers[key] -= 1
        freed = self._stop_reading(scope, [
            (chunk.op, [dep.key for dep in chunk.inputs])
            for chunk in subtask.chunks
        ])
        self._recovery.record(subtask)
        return freed

    def drop_session(self, session: str) -> None:
        """A session closed: discard its stage scope and terminal flags."""
        self._scopes.pop(session, None)
        prefix = f"{session}/"
        for key in [k for k in self._terminal if k.startswith(prefix)]:
            del self._terminal[key]

    # -- result cache ------------------------------------------------------
    def cache_record(self, entries, session_id: str) -> list[str]:
        """Register executed results with the cache; handle evictions.

        ``entries`` holds ``(key, nsplits, chunk specs, nbytes,
        explicit)`` tuples (a spec's first item is its chunk key). The
        result chunks become protected from refcount frees; chunks no
        entry holds any more lose protection and — under eager-release
        semantics — are deleted outright unless a running plan still
        reads them.
        """
        entries = list(entries)
        evicted = self._cache.record_many(entries, session_id)
        self._cache_protected.update(
            spec[0] for _key, _nsplits, specs, _nbytes, _explicit in entries
            for spec in specs)
        return self._unprotect(evicted)

    def invalidate_cached(self, chunk_keys) -> list[str]:
        """Chunk bytes vanished or are about to: drop the cache entries
        holding them.  Returns the chunk keys no entry holds any more
        (their values, where still stored, become ordinary freeable
        intermediates).
        """
        dropped = self._cache.invalidate_chunks(list(chunk_keys))
        return self._unprotect(dropped)

    def _unprotect(self, chunk_keys) -> list[str]:
        # Under eager-release semantics an unprotected chunk would have
        # been freed by refcounting long ago — drop its bytes now
        # (consumers re-materialize via lineage, as with the cache off).
        eager = self._config.eager_release
        deletable: list[str] = []
        for key in chunk_keys:
            self._cache_protected.discard(key)
            if eager and not any(scope.readers.get(key)
                                 for scope in self._scopes.values()):
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
