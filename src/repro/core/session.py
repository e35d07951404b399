"""Sessions: the thin client over one session's deployed service plane.

``Session`` owns only actor refs: every engine service — meta, storage,
shuffle, scheduling, lifecycle, the per-band subtask runners — is an
actor created by :func:`repro.services.deploy_cluster_services` on the
supervisor/worker pools, and a supervisor-side :class:`SessionActor`
coordinates each run (tiling, execution, the memory-aware re-tile loop,
fetch assembly).  User-facing ``repr`` of a distributed DataFrame/Tensor
triggers ``execute`` behind the scenes ("deferred evaluation", Section
IV-C): lazy until looked at.

One session shape: every session is a tenant of a cluster.
``Session(cfg)`` builds a :class:`ClusterState` and is its lone tenant;
``Session(cfg, cluster=shared)`` attaches to one that already runs.
Which of the two decides only lifetime — who builds the cluster, resets
its clock and shuts it down.  Either way the service plane is a set of
cluster-scoped singletons deployed once; each session adds only its own
:class:`SessionActor`, executes under a session key namespace (runtime
chunk/shuffle keys become ``session-N/c-00000042`` so sessions can never
collide in storage or shuffle accounting), holds the cluster's turnstile
lock for every stage it accounts, owns its fault injector
(``session.faults``), and scopes its lifecycle refcounts and cache
invalidation to itself.

Virtual time is the session's own: its stages start at its
``frontier`` — the latest completion of any subtask it accounted,
recovery re-executions included — and ``RunReport.makespan`` is the
frontier's growth over the run.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..actors import Actor
from ..cluster.cluster import SUPERVISOR_ADDRESS, ClusterState
from ..cluster.simulation import counter_growth
from ..config import Config, default_config
from ..engine.local import DataFrame, Series, concat
from ..errors import (
    ActorError,
    SessionError,
    StorageKeyError,
    WorkerOutOfMemory,
)
from ..graph.dag import DAG
from ..graph.entity import ChunkData, TileableData
from ..services import session_actor_uid
from ..services.deploy import ServiceHandles, deploy_cluster_services
from ..utils import key_namespace
from .executor import GraphExecutor
from .memory_control import PEAK_FACTOR
from .pruning import prune_columns
from .recovery import FaultInjector
from .tiler import TilingEngine, build_tileable_graph


def retile_pays(oom: WorkerOutOfMemory, chunk_limit: int) -> bool:
    """Whether halving ``chunk_limit`` can help the run that raised ``oom``.

    Re-tiling shrinks working sets, not the data a worker already holds,
    and a working set only down to chunk size. So it pays while the
    failing request outweighs the worker's residents and overshoots the
    budget by no more than the working set of a subtask that reads one
    chunk at the limit and writes one. Past that the subtask is big from
    fan-in, and smaller chunks only widen the fan-in. A limit of one byte
    cannot halve.
    """
    overshoot = oom.requested + oom.used - oom.limit
    return (1 < chunk_limit and oom.used < oom.requested
            and overshoot <= PEAK_FACTOR * 2 * chunk_limit)


@dataclass
class RunReport:
    """Metrics of one ``Session.execute`` call (virtual time).

    A field named like a summed ``SimReport`` counter is that counter's
    growth over the call, filled by name; ``shuffle_bytes`` is
    ``total_shuffle_bytes``'s, and the rest come from outside the
    executor's report (``SessionActor._totals``, the cluster's peaks).
    ``makespan`` is the growth of the session's frontier: a worker
    restart no subtask of the run waited out is not in it.
    """

    makespan: float = 0.0
    transferred_bytes: int = 0
    shuffle_bytes: int = 0
    combine_dropped_rows: int = 0
    spilled_bytes: int = 0
    n_subtasks: int = 0
    n_graph_nodes: int = 0
    dynamic_yields: int = 0
    #: fault recovery (zero in fault-free runs): failed attempts retried,
    #: lineage re-executions, bytes restored, simulated backoff waited.
    retries: int = 0
    recomputed_subtasks: int = 0
    recovery_bytes: int = 0
    backoff_time: float = 0.0
    #: memory pressure (zero in unconstrained runs): out-of-memory
    #: subtasks retried on another worker, virtual seconds of
    #: admission backpressure, memory-aware re-tiling passes.
    oom_retries: int = 0
    admission_wait_time: float = 0.0
    pressure_splits: int = 0
    #: result cache (zero with ``result_cache`` off): stored chunks the
    #: plan was bound to by a hit, and the bytes they reused.
    cache_hit_chunks: int = 0
    cache_reused_bytes: int = 0
    peak_memory: dict[str, int] = field(default_factory=dict)


class SessionActor(Actor):
    """Supervisor-side coordinator for one session's runs.

    Owns the run machinery the session client must not hold directly:
    the :class:`GraphExecutor` (wired to the deployed service refs), the
    :class:`TilingEngine`, the last run's report and the execution
    record.  Every ``Session.execute`` becomes one ``execute_tileables``
    message to this actor, whose nested service calls (scheduling,
    storage, lifecycle, runners) are attributed to it in the message
    trace.
    """

    def __init__(self, session_id: str, cluster: ClusterState,
                 config: Config, services: ServiceHandles):
        super().__init__()
        self.session_id = session_id
        self.cluster = cluster
        self.config = config
        self.services = services
        # the session's own fault injector: its seeded chaos draws (and
        # losses) never touch a neighbour.
        self.executor = GraphExecutor(
            cluster, services.storage, services.meta, config,
            session_id=session_id, faults=FaultInjector(config.faults),
            scheduling=services.scheduling, shuffle=services.shuffle,
            lifecycle=services.lifecycle, runners=dict(services.runners),
        )
        self.tiler = TilingEngine(self.executor, services.meta, config)
        self.last_report = RunReport()

    # -- bookkeeping ---------------------------------------------------
    def get_executor(self) -> GraphExecutor:
        return self.executor

    def get_tiler(self) -> TilingEngine:
        return self.tiler

    def get_faults(self) -> FaultInjector:
        return self.executor.faults

    def get_last_report(self) -> RunReport:
        return self.last_report

    # -- run coordination ----------------------------------------------
    def execute_tileables(self,
                          tileables: Sequence[TileableData]) -> list[Any]:
        # session key namespace: every runtime key minted while tiling
        # and executing (chunk keys, shuffle ids, subtask keys) carries
        # this session's prefix, so sessions sharing storage/shuffle/LRU
        # state cannot collide. Result-cache keys never contain a
        # runtime key, keeping the shared cache session-stable.
        with key_namespace(f"{self.session_id}/"):
            return self._execute_tileables(tileables)

    def _totals(self) -> dict[str, float]:
        """The running totals a :class:`RunReport` takes from outside
        ``executor.report``, by the field each one's growth fills."""
        storage = self.services.storage
        return {
            "makespan": self.executor.frontier,
            "transferred_bytes": storage.transferred_bytes(),
            "spilled_bytes": storage.spilled_bytes(),
            "dynamic_yields": self.tiler.yield_count,
        }

    def _execute_tileables(self,
                           tileables: Sequence[TileableData]) -> list[Any]:
        tileables = list(tileables)
        # identity memoizes source fingerprints for the span of one run
        # only: data mutated between two executes must hash afresh.
        self.executor.identity.reset()
        totals_before = self._totals()
        report_before = dataclasses.replace(self.executor.report)

        values = None
        try:
            graph = build_tileable_graph(tileables)
            if self.config.column_pruning:
                # may un-tile nodes an earlier query tiled too narrow:
                # ``graph`` grows by their ancestors
                prune_columns(graph, tileables)
            if self.config.result_cache:
                values, graph = self._bind_from_cache(graph, tileables)
            if values is None:
                stored_before = self._tile_and_execute(graph, tileables)
        finally:
            # the memo references every source frame and operator of the
            # run: let go of them with the run.
            self.executor.identity.reset()

        if values is None:
            # fetch before building the report: fetch-time recovery of
            # lost terminal chunks must land in this run's recovery
            # accounting.
            values = [self.fetch_tileable(t) for t in tileables]
            with self.cluster.turnstile:
                if self.config.result_cache:
                    # while the plan still reads its results: an entry
                    # evicted at once must not take their bytes along.
                    self._record(tileables)
                # the plan is done: whatever this run stored that
                # outlived its readers (fetch-time recovery's
                # intermediates, say) goes now — storage keeps results,
                # cache entries and what it held before.
                self._drop(self.services.lifecycle.reset_plan(
                    self._stored_since(stored_before),
                    session=self.session_id))

        totals = self._totals()
        grown = counter_growth(self.executor.report, report_before)
        self.last_report = RunReport(
            shuffle_bytes=grown["total_shuffle_bytes"],
            peak_memory=self.cluster.peak_memory(),
            **{name: total - totals_before[name]
               for name, total in totals.items()},
            **{f.name: grown[f.name] for f in dataclasses.fields(RunReport)
               if f.name in grown},
        )
        return values

    def _bind_from_cache(self, graph: DAG, results: list[TileableData]
                         ) -> tuple[list[Any] | None, DAG]:
        """Bind the pruned plan ``graph`` to what the result cache holds.

        Every tileable is stamped with its key and the untiled ones are
        looked up in one message. Walking back from the results, each
        untiled node with a live entry is bound to its cached chunks, and
        its ancestors are not visited. Returns the results' values when
        every result is bound and still there to fetch — nothing is tiled
        or executed — else ``None`` and the plan left to tile: rebuilt
        when nodes were bound, which makes them its sources."""
        self.executor.query_keys(graph, results)
        keys = [node.ident for node in graph
                if not node.is_tiled and node.ident is not None]
        hits = (self.services.cache.lookup_many(keys, self.session_id)
                if keys else {})
        bound: dict[str, TileableData] = {}
        reused = 0
        stack, seen = list(results), set()
        while stack:
            node = stack.pop()
            if node.key in seen or node.is_tiled:
                continue
            seen.add(node.key)
            hit = hits.get(node.ident)
            if hit is None:
                stack += node.inputs
                continue
            nsplits, specs, nbytes = hit
            node.with_chunks([_chunk_from_spec(s) for s in specs], nsplits)
            bound[node.key] = node
            reused += nbytes
        if not bound:
            return None, graph
        values = None
        if all(t.key in bound for t in results):
            try:
                values = [self._assemble(t) for t in results]
            except StorageKeyError:
                # gone between lookup and fetch (a neighbour's eviction):
                # compute it instead.
                for node in bound.values():
                    node.chunks, node.nsplits = [], ()
                return None, graph
        report = self.executor.report
        report.cache_hit_chunks += sum(len(t.chunks) for t in bound.values())
        report.cache_reused_bytes += reused
        if values is None:
            graph = build_tileable_graph(results)
        return values, graph

    def _record(self, results: list[TileableData]) -> None:
        """Enter every result that has a key into the cache, with the
        bytes its chunks weigh."""
        results = [t for t in results if t.ident is not None]
        if not results:
            return
        metas = self.services.meta.get_many(
            [chunk.key for t in results for chunk in t.chunks])
        self.services.lifecycle.cache_record([
            (t.ident, t.nsplits, tuple(map(_chunk_spec, t.chunks)),
             sum(metas[chunk.key].nbytes for chunk in t.chunks),
             t.cache_requested)
            for t in results], self.session_id)

    def _tile_and_execute(self, graph: DAG,
                          tileables: list[TileableData]) -> set[str]:
        """Tile the pruned plan ``graph`` and run it. Returns the keys
        storage held before."""
        session = self.session_id
        pretiled = {node.key for node in graph.nodes() if node.is_tiled}
        stored_before = set(self.services.storage.all_keys())
        saved_chunk_limit = self.config.chunk_store_limit
        # memory-aware re-tiling: when the executor's retry on another
        # worker OOMs too, halve the chunk limit and re-enter dynamic
        # tiling — smaller chunks mean smaller working sets, the paper's
        # Section IV machinery pointed at robustness instead of
        # performance. Static tiling (the baseline profiles) keeps its
        # chunks and dies of the OOM.
        retiled = False
        try:
            while True:
                self.services.lifecycle.reset_plan(session=session)
                if retiled:
                    graph = build_tileable_graph(tileables)
                try:
                    self.executor.execute(self.tiler.tile(graph, tileables))
                    return stored_before
                except WorkerOutOfMemory as oom:
                    limit = self.config.chunk_store_limit
                    if not (self.config.admission_control
                            and self.config.dynamic_tiling
                            and retile_pays(oom, limit)):
                        raise
                    retiled = True
                    self.executor.report.pressure_splits += 1
                    self._reset_for_retile(graph, pretiled, stored_before)
                    self.config.chunk_store_limit = limit // 2
        finally:
            self.config.chunk_store_limit = saved_chunk_limit

    # ------------------------------------------------------------------
    def _reset_for_retile(self, graph: DAG, pretiled: set[str],
                          stored_before: set[str]) -> None:
        """Undo one failed execute attempt so tiling can start over.

        Every tileable this call tiled is untiled again (chunks cleared),
        and every chunk this attempt stored is dropped from storage,
        shuffle registry and scheduler placement. Tileables that were
        already tiled before the call (prior executes) keep their chunks
        and their stored data — re-tiling must not invalidate them. The
        others lose their cache keys too: the halved chunk limit they
        are tiled with next is not the chunking a key says, and the next
        run of the query would round differently.
        """
        for node in graph.nodes():
            if node.key in pretiled:
                continue
            node.ident = None
            node.chunks = []
            node.nsplits = ()
        dropped = self._stored_since(stored_before)
        with self.cluster.turnstile:
            if dropped and self.config.result_cache:
                # re-tiling regenerates these chunks under new keys: no
                # cache entry may point at the bytes dropped below.
                self.services.lifecycle.invalidate_cached(dropped)
            self._drop(dropped)

    def _stored_since(self, stored_before: set[str]) -> list[str]:
        """The keys this run put into storage (``stored_before`` is the
        snapshot taken when it began). Only this session's keys qualify:
        chunks other sessions stored meanwhile are not "new" to it."""
        prefix = f"{self.session_id}/"
        return [
            key for key in self.services.storage.all_keys()
            if key not in stored_before and key.startswith(prefix)
        ]

    def _drop(self, keys) -> None:
        """Remove ``keys`` from storage, shuffle index and placement."""
        for key in keys:
            self.services.storage.delete(key)
            self.services.shuffle.forget_key(key)
            self.services.scheduling.forget_chunk(key)

    # ------------------------------------------------------------------
    def fetch_tileable(self, tileable: TileableData) -> Any:
        """Assemble a materialized tileable's chunks into one value."""
        if not tileable.is_tiled:
            raise SessionError(
                f"tileable {tileable.key} is not tiled; call execute() first"
            )
        # fetch-time recovery: a fault may have taken terminal chunks
        # after their producing stage completed.
        self.executor.ensure_available(
            [chunk.key for chunk in tileable.chunks]
        )
        return self._assemble(tileable)

    def _assemble(self, tileable: TileableData) -> Any:
        values = {
            chunk.index: self.services.storage.peek(chunk.key)
            for chunk in tileable.chunks
        }
        return assemble(tileable.kind, values)

    def is_materialized(self, tileable: TileableData) -> bool:
        """All of the tileable sits in storage: every chunk, carrying
        every column (an intermediate an earlier query pruned does not
        count, even while the result cache keeps its chunks)."""
        return (
            tileable.is_tiled and tileable.carried_columns is None
            and not self.services.storage.missing_keys(
                [chunk.key for chunk in tileable.chunks])
        )

    def free_tileable(self, tileable: TileableData) -> None:
        """Drop a tileable's cached chunk data (it can be recomputed)."""
        keys = [chunk.key for chunk in tileable.chunks]
        with self.cluster.turnstile:
            if keys and self.config.result_cache:
                self.services.lifecycle.invalidate_cached(keys)
            for key in keys:
                self.services.storage.delete(key)

    def reset_metrics(self) -> None:
        """A fresh frontier and chunk completion times."""
        self.executor.chunk_ready_at.clear()
        self.executor.frontier = 0.0

    def detach(self) -> None:
        """Leave a cluster that keeps running, without touching neighbours.

        Deletes this session's stored chunks — except ones the shared
        result cache points at, which stay behind as warm cross-session
        state — and drops its scoped service state (lifecycle scope,
        cache stats).  Takes the turnstile: a neighbour's stage registers
        terminal flags and stores chunks in the same service state.
        """
        prefix = f"{self.session_id}/"
        with self.cluster.turnstile:
            protected = set(self.services.lifecycle.cache_protected())
            self._drop(
                key for key in self.services.storage.all_keys()
                if key.startswith(prefix) and key not in protected
            )
            self.services.lifecycle.drop_session(self.session_id)
            self.services.cache.drop_session(self.session_id)


class Session:
    """One user session on a (simulated) cluster — a thin client.

    Holds the cluster plus *actor refs only*: ``storage``, ``meta``,
    ``scheduler``, ``shuffle`` and ``lifecycle`` are
    :class:`~repro.actors.ActorRef` handles to the deployed service
    plane, and all run coordination lives in the supervisor-side
    :class:`SessionActor` behind ``_actor_ref``.

    Every session is a tenant of a cluster: ``cluster=`` attaches it to
    one that already runs, and without it the session builds its own
    (and is its lone tenant until it closes it).
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, config: Config | None = None,
                 cluster: ClusterState | None = None):
        self._owns_cluster = cluster is None
        if self._owns_cluster:
            self.config = config if config is not None else default_config()
            self.cluster = ClusterState(self.config)
        else:
            # attaching tenants get a private config copy: the re-tile
            # loop mutates chunk_store_limit, but the cluster shape
            # stays the plane's.
            base = config if config is not None else cluster.config
            self.config = base.copy()
            self.cluster = cluster
        services = deploy_cluster_services(self.cluster)
        self.storage = services.storage
        self.meta = services.meta
        self.scheduler = services.scheduling
        self.shuffle = services.shuffle
        self.lifecycle = services.lifecycle
        self.cache = services.cache
        # atomic id allocation: sessions are created from many threads
        # on a shared cluster, and `session-{N}` ids must never collide
        # (they namespace every runtime key).
        with Session._counter_lock:
            Session._counter += 1
            count = Session._counter
        self.session_id = f"session-{count}"
        self._actor_ref = self.cluster.actor_system.create_actor(
            SUPERVISOR_ADDRESS, SessionActor, self.session_id, self.cluster,
            self.config, services, uid=session_actor_uid(self.session_id),
        )
        self.closed = False
        #: close/execute coordination: close() waits for in-flight runs
        #: instead of destroying the session actor under them.
        self._closing = False
        self._active_calls = 0
        self._state_cond = threading.Condition(threading.Lock())

    # -- in-flight call tracking ----------------------------------------
    def _begin_call(self, what: str) -> None:
        with self._state_cond:
            if self.closed or self._closing:
                raise SessionError(
                    f"session {self.session_id} is closed"
                    if self.closed else
                    f"session {self.session_id} is closing; {what} rejected"
                )
            self._active_calls += 1

    def _end_call(self) -> None:
        with self._state_cond:
            self._active_calls -= 1
            self._state_cond.notify_all()

    # -- coordinator state (read through the session actor) -------------
    @property
    def executor(self) -> GraphExecutor:
        return self._actor_ref.get_executor()

    @property
    def tiler(self) -> TilingEngine:
        return self._actor_ref.get_tiler()

    @property
    def faults(self) -> FaultInjector:
        """This session's fault injector: script or inspect its chaos."""
        return self._actor_ref.get_faults()

    @property
    def last_report(self) -> RunReport:
        return self._actor_ref.get_last_report()

    # ------------------------------------------------------------------
    def execute(self, *tileables: TileableData) -> list[Any]:
        """Materialize the given tileables; returns their full values."""
        if not tileables:
            raise ValueError("nothing to execute")
        self._begin_call("execute")
        try:
            return self._actor_ref.execute_tileables(list(tileables))
        finally:
            self._end_call()

    def fetch(self, tileable: TileableData) -> Any:
        """Assemble a materialized tileable's chunks into one value."""
        self._begin_call("fetch")
        try:
            return self._actor_ref.fetch_tileable(tileable)
        finally:
            self._end_call()

    def is_materialized(self, tileable: TileableData) -> bool:
        return self._actor_ref.is_materialized(tileable)

    def free(self, tileable: TileableData) -> None:
        """Drop a tileable's cached chunk data (it can be recomputed)."""
        self._begin_call("free")
        try:
            self._actor_ref.free_tileable(tileable)
        finally:
            self._end_call()

    def reset_metrics(self) -> None:
        """Fresh virtual clocks and counters (used between benchmark runs).

        A session that built its cluster also resets the cluster's clock
        and the admission grants timed on it; a tenant of a shared
        cluster resets only its own frontier.
        """
        if self._owns_cluster:
            self.cluster.reset_clock()
            self.scheduler.begin_stage(math.inf)
        self._actor_ref.reset_metrics()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the session down — after any in-flight run finishes.

        Waits for active ``execute``/``fetch``/``free`` calls on other
        threads instead of destroying the session actor mid-run; callers
        arriving once closing has begun get a typed
        :class:`SessionError` rather than a dispatcher crash.  Idempotent
        — a second ``close`` (or ``__del__`` after an explicit close) is
        a no-op, and a partially torn-down actor plane never makes close
        raise.  A cluster the session did not build is left running:
        only this session's scoped state and stored chunks (minus shared
        cache entries) go.
        """
        with self._state_cond:
            if self.closed:
                return
            self._closing = True
            while self._active_calls > 0:
                self._state_cond.wait()
            if self.closed:
                return
            self.closed = True
        system = self.cluster.actor_system
        try:
            if self._owns_cluster:
                self.storage.clear()
            else:
                self._actor_ref.detach()
        except ActorError:
            pass  # pools already stopped by an outside shutdown
        try:
            system.destroy_actor(
                SUPERVISOR_ADDRESS, session_actor_uid(self.session_id),
            )
        except ActorError:
            pass
        if self._owns_cluster:
            self.cluster.shutdown()
        # every tileable and chunk is in a cycle with its operator, so the
        # plans this session ran — and the source frames their operators
        # hold — are freed only by the cycle collector. Its next full pass
        # is as far away as the process is frugal with allocations: the
        # fewer subtasks a query needs, the longer its inputs linger.
        gc.collect()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            # interpreter teardown: pools/modules may be half-gone.
            pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _chunk_spec(chunk: ChunkData) -> tuple:
    """What a cache entry keeps of a result chunk: plain values, never
    the chunk — that would pin the plan and its sources."""
    return (chunk.key, chunk.kind, chunk.shape, chunk.index, chunk.dtype,
            chunk.columns, chunk.name)


def _chunk_from_spec(spec: tuple) -> ChunkData:
    """A stored result chunk rebuilt from its :func:`_chunk_spec`."""
    key, kind, shape, index, dtype, columns, name = spec
    chunk = ChunkData(kind, shape, index, dtype=dtype, columns=columns,
                      name=name, key=key)
    chunk.terminal = True
    return chunk


def assemble(kind: str, values: dict[tuple, Any]) -> Any:
    """Glue chunk values back into one pandas-like / NumPy object.

    ``values`` maps chunk index (the distributed index of Fig. 4) to the
    chunk's value.
    """
    if not values:
        raise ValueError("no chunks to assemble")
    if kind == "scalar":
        (value,) = values.values()
        return value
    if kind in ("series", "index"):
        ordered = [values[idx] for idx in sorted(values)]
        if all(isinstance(v, Series) for v in ordered):
            return concat(ordered) if len(ordered) > 1 else ordered[0]
        return np.concatenate([np.atleast_1d(np.asarray(v)) for v in ordered])
    if kind == "dataframe":
        rows = sorted({idx[0] for idx in values})
        cols = sorted({idx[1] if len(idx) > 1 else 0 for idx in values})
        row_frames = []
        for r in rows:
            pieces = [values[(r, c)] for c in cols if (r, c) in values]
            if not pieces and (r,) in values:
                pieces = [values[(r,)]]
            row_frames.append(
                concat(pieces, axis=1) if len(pieces) > 1 else pieces[0]
            )
        return concat(row_frames) if len(row_frames) > 1 else row_frames[0]
    if kind == "tensor":
        ndim = len(next(iter(values)))
        if ndim == 0:
            (value,) = values.values()
            return np.asarray(value)
        if ndim == 1:
            ordered = [np.atleast_1d(values[idx]) for idx in sorted(values)]
            return np.concatenate(ordered)
        rows = sorted({idx[0] for idx in values})
        cols = sorted({idx[1] for idx in values})
        block = [
            [np.atleast_2d(values[(r, c)]) for c in cols if (r, c) in values]
            for r in rows
        ]
        return np.block(block)
    raise ValueError(f"cannot assemble kind {kind!r}")


# ---------------------------------------------------------------------------
# default-session management (what ``repro.init`` installs)
# ---------------------------------------------------------------------------

_default_session: Session | None = None
#: guards the module-global default session against concurrent
#: ``init``/``get``/``stop`` — double-init from two threads must never
#: leak a live actor plane or hand different callers different sessions.
_default_session_lock = threading.Lock()


def init_session(config: Config | None = None, **config_overrides) -> Session:
    """Create and install the process-wide default session.

    Deterministic under repetition and concurrency: the previous default
    (if any) is closed before the replacement is installed, and the
    close-then-replace pair is atomic with respect to other callers.
    """
    global _default_session
    with _default_session_lock:
        if _default_session is not None:
            _default_session.close()
            _default_session = None
        cfg = config if config is not None else default_config()
        if config_overrides:
            cfg = cfg.copy(**config_overrides)
        _default_session = Session(cfg)
        return _default_session


def get_default_session() -> Session:
    global _default_session
    with _default_session_lock:
        if _default_session is None:
            _default_session = Session(default_config())
        return _default_session


def stop_session() -> None:
    global _default_session
    with _default_session_lock:
        if _default_session is not None:
            _default_session.close()
            _default_session = None
