"""The graph executor: fuse → schedule → replay → account.

Takes a chunk graph, produces subtasks via graph-level fusion, assigns
them to bands, then walks the subtask DAG in deterministic topological
order: for each subtask it fetches inputs from the storage service
(charging transfers), *replays* the kernel results its compute phase
produced, writes outputs back (charging memory, possibly spilling),
records metadata in the meta service, and advances the per-band virtual
clocks.

This module never executes a kernel. Every operator runs behind
``repro.services.runner.run_subtask_kernels`` — reached through the
band's runner (inline compute phase), the band dispatcher's worker
processes (``repro.core.dispatch``), or directly when a retry or
lineage recovery needs a fresh record — and the walk only consumes the
resulting ``SubtaskComputation``. Real values are computed in-process;
*time* is simulated (see ``repro.cluster.simulation``), so the simulated
numbers are identical in every execution mode and only wall-clock time
changes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..cluster.cluster import ClusterState
from ..cluster.simulation import SimReport, fold_report
from ..config import Config
from ..engine.base import is_multi_output, unshared
from ..errors import (
    ActorNotFound,
    ChunkLostError,
    ExecutionHang,
    FaultInjected,
    RetriesExhausted,
    StorageKeyError,
    WorkerOutOfMemory,
    WorkerProcessCrash,
)
from ..graph.dag import DAG
from ..graph.entity import ChunkData, TileableData
from ..graph.identity import IdentityContext, compute_chunk_identities
from ..graph.subtask import Subtask, build_subtask_graph
from ..services.runner import run_subtask_kernels
from ..storage.base import DISK_PENALTY
from ..utils import sizeof
from .dispatch import BandDispatcher, SubtaskComputation, should_use_parallel
from .fusion import fusion_groups, singleton_groups
from .memory_control import PEAK_FACTOR, worker_of_band
from .operator import COMBINE_DROPPED_KEY
from .opfusion import plan_subtask, step_io_keys
from .recovery import FaultInjector

#: failures the retry loop re-attempts; anything else (kernel bugs, OOM
#: with spill disabled) propagates unchanged.  A process-pool worker
#: dying mid-kernel is retryable too: the accounting walk simply asks
#: the shared kernel loop for a fresh record of the (pure,
#: deterministic) kernels — same lineage-recovery path as a lost chunk,
#: and no simulated number observes the crash.  A dead runner actor
#: (killed between messages, destroy racing a delivery) is the same
#: shape: its in-flight subtask recomputes on the walk and the
#: supervisor respawns the actor on the next delivery.
_RETRYABLE = (FaultInjected, ChunkLostError, StorageKeyError,
              WorkerProcessCrash, ActorNotFound)


#: per-subtask budget of re-attempts before ``RetriesExhausted``; the
#: first retry waits ``BACKOFF_BASE`` virtual seconds, each later one
#: ``BACKOFF_FACTOR`` times longer.
MAX_RETRIES = 3
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
#: virtual seconds a killed worker's bands are unavailable while the
#: process restarts.
WORKER_RESTART_TIME = 0.25
#: multiplier on bytes for shuffle writes (serialize + hash partition).
SHUFFLE_WRITE_FACTOR = 1.5
#: hang detection: a stage of more subtasks than this is refused.
MAX_STAGE_SUBTASKS = 10_000


def _lost_keys(exc: BaseException) -> list[str]:
    """The chunk keys a retryable failure says are gone (may be empty)."""
    if isinstance(exc, ChunkLostError):
        return list(exc.keys)
    if isinstance(exc, StorageKeyError) and exc.args:
        return [exc.args[0]]
    return []


@dataclass
class _Stage:
    """What one accounting walk shares across its subtasks.

    A recovery walk — lineage re-execution, at fetch time or from inside
    a stage's retry loop — has no subtask graph and charges into the
    report of whoever noticed the loss.
    """

    report: SimReport
    base_time: float
    graph: DAG[Subtask] | None = None
    #: completion virtual time of every subtask accounted so far.
    completion: dict[str, float] = field(default_factory=dict)

    @property
    def recovering(self) -> bool:
        return self.graph is None


class _Env:
    """One subtask attempt's local environment and its working set.

    Every value resident here counts, so a fused chain over one huge
    chunk cannot dodge the memory budget (that is how single-node pandas
    dies: the whole table is one "chunk"). Values leave as soon as their
    last in-subtask reader ran, like any real executor frees
    intermediates. ``sizeof`` is recursive and the same value is sized
    at step-input, step-output, release and output-store time, so sizes
    are cached per key for the lifetime of the attempt (and outlive a
    release: the footprint estimator observes them afterwards).
    """

    def __init__(self, subtask: Subtask, infos: list[Any]):
        self.values: dict[str, Any] = {}
        self.sizes: dict[str, int] = {}
        self.nbytes = 0
        #: input bytes that crossed the network / came off the disk tier.
        self.transferred = 0
        self.disk_bytes = 0
        for key, info in zip(subtask.input_keys, infos):
            self.values[key] = info.value
            self.sizes[key] = info.nbytes
            self.nbytes += info.nbytes
            self.transferred += info.transferred_bytes
            if info.tier_penalty > 1.0:
                self.disk_bytes += info.nbytes
        self.input_bytes = self.peak = self.nbytes
        self._outputs = set(subtask.output_keys)
        #: key -> operators of this subtask that have yet to read it.
        self._readers: dict[str, int] = defaultdict(int)
        counted: set[int] = set()
        for chunk in subtask.chunks:
            op = chunk.op
            if op is None or id(op) in counted:
                continue
            counted.add(id(op))
            for dep in op.inputs:
                self._readers[dep.key] += 1

    def size(self, key: str) -> int:
        nbytes = self.sizes.get(key)
        if nbytes is None:
            nbytes = self.sizes[key] = sizeof(self.values[key])
        return nbytes

    def resident(self, keys) -> int:
        """Bytes of the ``keys`` currently in the environment."""
        return sum(self.size(key) for key in keys if key in self.values)

    def store(self, results: dict[str, Any]) -> None:
        """Enter one operator's results; the peak is sampled after all."""
        for key, value in results.items():
            # overwriting a key must not double-count: release the old
            # value's bytes (and its stale cached size) first.
            if key in self.values:
                self.nbytes -= self.size(key)
                self.sizes.pop(key, None)
            self.values[key] = value
            self.nbytes += self.size(key)
        self.peak = max(self.peak, self.nbytes)

    def release_inputs(self, op) -> None:
        """``op`` ran: drop every input it was the last reader of."""
        for dep in op.inputs:
            self._readers[dep.key] -= 1
            if (self._readers[dep.key] <= 0
                    and dep.key not in self._outputs
                    and dep.key in self.values):
                self.nbytes -= self.size(dep.key)
                del self.values[dep.key]


class GraphExecutor:
    """Executes one session's chunk graphs on a cluster's services.

    Every session is a tenant of its cluster, alone or not: its stages
    hold the cluster's turnstile lock, its service state (lifecycle
    refcounts, cache invalidation, worker kills) is scoped by
    ``session_id``, its faults come from its own ``faults`` injector,
    and its stages start from its own ``frontier``.
    """

    def __init__(self, cluster: ClusterState, storage: Any,
                 meta: Any, config: Config, *, session_id: str,
                 faults: FaultInjector,
                 scheduling: Any, shuffle: Any, lifecycle: Any,
                 runners: dict[str, Any]):
        """Every service argument is a *handle* from the deployed
        service plane (``repro.services.deploy``): the executor only
        calls methods on them, so actor refs and plain service objects
        work identically.
        """
        self.cluster = cluster
        #: scopes this session's service state; runtime keys carry it
        #: as their prefix (``session-3/c-00000042``).
        self.session_id = session_id
        #: this session's deterministic chaos source.
        self.faults = faults
        self.storage = storage
        self.meta = meta
        self.config = config
        #: the shuffle index: shuffle-map output chunks register here as
        #: ``(shuffle_id, reducer)`` partitions when stored.
        self.shuffle = shuffle
        #: the scheduling service: placement, band load, memory admission.
        self.scheduling = scheduling
        #: the lifecycle service: chunk refcounts, terminal flags, lineage.
        self.lifecycle = lifecycle
        #: band name -> subtask runner handle (the compute phase).
        self.runners = runners
        #: completion virtual time of every produced chunk key.
        self.chunk_ready_at: dict[str, float] = {}
        #: failed-attempt counters keyed by the structural identity
        #: ``(stage_index, priority)`` — never reset, so serial and
        #: parallel runs of the same workload draw identical faults.
        self._attempts: dict[tuple[int, int], int] = {}
        self._stage_index = -1
        self.report = SimReport()
        #: sampling annotations produced during execute(), consumed when
        #: the annotated chunk's meta is recorded.
        self._pending_extra: dict[str, dict] = {}
        #: this session's virtual-time frontier: the latest completion
        #: of any subtask it accounted, recovery re-executions included.
        #: Its stages start here, not at the cluster clock, so one
        #: session's stage barrier never delays another's independent
        #: subtasks — stages interleave into band idle time.
        self.frontier = 0.0
        #: identity's execute-scoped memo (source fingerprints, operator
        #: tokens); the session actor resets it when a run starts.
        self.identity = IdentityContext()

    # -- service introspection (diagnostics / tests) --------------------
    @property
    def pressure(self):
        """The scheduling service's memory-pressure subsystem."""
        return self.scheduling.memory_pressure()

    @property
    def recovery(self):
        """The lifecycle service's lineage registry."""
        return self.lifecycle.recovery_manager()

    # ------------------------------------------------------------------
    def execute(self, chunk_graph: DAG[ChunkData]) -> SimReport:
        """Run every not-yet-materialized chunk of ``chunk_graph``.

        What outlives the stage is the lifecycle service's call —
        whatever the plan it was told about still reads.
        """
        with self.cluster.turnstile:
            return self._execute_stage(chunk_graph)

    def _execute_stage(self, chunk_graph: DAG[ChunkData]) -> SimReport:
        """plan → begin → walk (admit, replay, commit per subtask) → fold."""
        report = SimReport()
        subtask_graph = self._plan_stage(chunk_graph, report)
        if subtask_graph is None:
            fold_report(self.report, report)
            return report
        # serial graph-construction/dispatch overhead (auto merge exists to
        # keep this small): charged once, before any subtask starts. The
        # base is this session's own frontier, not the cluster clock —
        # another session's later stage must not become a barrier for
        # this one (band availability still serializes real band time
        # via ``clock.run_subtask``).
        dispatch = (self.config.cost_model.dispatch_overhead
                    * report.n_graph_nodes)
        stage = _Stage(report, self.frontier + dispatch, subtask_graph)
        order = subtask_graph.topological_order()
        self._begin_stage(order, stage)
        # the compute phase: on a process-mode plane a stage that can
        # overlap bands streams its records from the band dispatcher; any
        # other stage computes each subtask through its band's runner
        # just before accounting it. The walk below is the same either
        # way. The pool belongs to the plane, so the plane's config names
        # the mode; a tenant only opts out with ``parallel_execution``.
        dispatcher: BandDispatcher | None = None
        try:
            if (self.config.parallel_execution
                    and self.cluster.config.execution_mode == "process"
                    and should_use_parallel(order)):
                dispatcher = self._start_dispatcher(order, subtask_graph)
            for subtask in order:
                computed: SubtaskComputation | None
                try:
                    if dispatcher is not None:
                        computed = dispatcher.wait_for(subtask.key)
                    else:
                        computed = self.runners[subtask.band].precompute(
                            subtask)
                except _RETRYABLE:
                    # the compute phase raced a fault deletion (or its
                    # runner died): account without a record — the retry
                    # wrapper recovers what is lost and the replay asks
                    # the kernel loop for a fresh one. Storage state at
                    # each accounting position is identical across modes,
                    # so the retry/recovery accounting is too.
                    computed = None
                stage.completion[subtask.key] = (
                    self._run_subtask_with_recovery(subtask, stage, computed))
                if dispatcher is not None:
                    if computed is None:
                        dispatcher.resolve(subtask)
                    else:
                        dispatcher.discard(subtask.key)
        finally:
            if dispatcher is not None:
                dispatcher.shutdown()
            # fold even when a stage dies (RetriesExhausted, an OOM
            # bubbling to the session's re-tile rung): the partial
            # stage's retries/waits/spills must survive into the run
            # report. Identical in every mode — the accounting walk
            # reached the same position either way.
            report.makespan = max(stage.completion.values(),
                                  default=stage.base_time)
            report.n_subtasks = len(stage.completion)
            report.peak_memory = self.cluster.peak_memory()
            report.band_busy = dict(self.cluster.clock.band_busy)
            fold_report(self.report, report)
        return report

    def _plan_stage(self, chunk_graph: DAG[ChunkData],
                    report: SimReport) -> DAG[Subtask] | None:
        """Prune what is stored, fuse the rest into placed subtasks;
        ``None`` when nothing is left to run. Notes the graph size in
        ``report``."""
        order_nodes = chunk_graph.topological_order()
        keys = [node.key for node in order_nodes]
        stored = set(keys).difference(self.storage.missing_keys(keys))
        self.lifecycle.register_terminals({
            node.key: getattr(node, "terminal", False)
            for node in chunk_graph.nodes()
        })
        pending = [node for node in order_nodes if node.key not in stored]
        # a chunk the result cache bound into the plan has no operator
        # here: gone since it was bound, it comes back through lineage.
        lost = [node.key for node in pending if node.op is None]
        if lost:
            self.ensure_available(lost)
            pending = [node for node in pending if node.op is not None]
        if not pending:
            return None
        pending_graph = chunk_graph.subgraph(pending)
        report.n_graph_nodes = len(pending_graph)
        if self.config.graph_fusion:
            groups = fusion_groups(pending_graph)
        else:
            groups = singleton_groups(pending_graph)
        # a chunk the plan reads again after this stage is stored even
        # when every consumer in *this* graph sits in its own subtask.
        held = self.lifecycle.held([node.key for node in pending],
                                   {node.op for node in pending},
                                   self.session_id)
        subtask_graph = build_subtask_graph(pending_graph, groups, set(held))
        self.scheduling.assign(subtask_graph,
                               self._known_nbytes(subtask_graph))
        return subtask_graph

    def _begin_stage(self, order: list[Subtask], stage: _Stage) -> None:
        """Stage-boundary state: structural ids, liveness, ledger, refcounts."""
        # stamp the structural identity fault injection and retry
        # accounting key on: (stage_index, priority) is stable across
        # execution modes and sessions, unlike the process-global keys.
        self._stage_index += 1
        for subtask in order:
            subtask.stage_index = self._stage_index
        if len(order) > MAX_STAGE_SUBTASKS:
            raise ExecutionHang(
                "repro", f"subtask graph of {len(order)} nodes exceeds step budget"
            )
        # stage-boundary liveness sweep: restart anything dead (the kill
        # may have landed between messages, with no delivery to trigger
        # the supervisor). Restarts charge no virtual time.
        self.cluster.supervision.probe()
        # stage boundary: grants that ended by this session's base are
        # pruned (all of its own); other sessions' later grants survive.
        self.scheduling.begin_stage(stage.base_time)
        consumers: dict[str, int] = defaultdict(int)
        for subtask in stage.graph.nodes():
            for key in subtask.input_keys:
                consumers[key] += 1
        self.lifecycle.begin_stage(dict(consumers), self.session_id)

    # -- result cache ---------------------------------------------------
    def query_keys(self, plan: DAG[TileableData],
                   results: list[TileableData]) -> list[str | None]:
        """Stamp the cache key of every tileable of the pruned logical
        ``plan`` — its operators' digests, the source columns they read,
        the session config — and return those of ``results`` (``None`` =
        uncacheable). A tiled node keeps its key only while storage holds
        all of its chunks."""
        order = plan.topological_order()
        chunks = [chunk.key for node in order if node.is_tiled
                  for chunk in node.chunks]
        stored = set(chunks).difference(
            self.storage.missing_keys(chunks)) if chunks else ()
        compute_chunk_identities(order, self.identity, stored, self.config)
        return [tileable.ident for tileable in results]

    # ------------------------------------------------------------------
    def _start_dispatcher(self, order: list[Subtask],
                          graph: DAG[Subtask]) -> BandDispatcher:
        """Start the event-driven compute phase for one stage.

        Pool threads hand subtasks to the per-band runners — and
        through them to the process pool — as dependencies resolve (one
        logical slot per band); the accounting walk drains the records
        in topological order, so every ``SimReport`` field matches the
        inline compute phase.
        """
        # wall-clock admission: pool threads must not actually overlap
        # kernels whose estimated footprints exceed a worker's budget.
        # Estimates are snapshotted here, on the accounting thread, so
        # the gate reads no mutable shared state; it never affects any
        # simulated number (see memory_control.DispatchGate).
        gate = (
            self.scheduling.dispatch_gate(order)
            if self.config.admission_control else None
        )
        system = self.cluster.actor_system

        def compute(subtask: Subtask,
                    inputs: dict[str, Any]) -> SubtaskComputation:
            # pool threads are not actors; label them so runner/storage
            # messages they send carry a real sender in the trace.
            system.set_thread_sender("band-runner")
            return self.runners[subtask.band].compute(subtask, inputs)

        def fetch(keys: list[str]) -> dict[str, Any]:
            system.set_thread_sender("band-runner")
            return self.storage.peek_values(keys)

        dispatcher = BandDispatcher(graph, order, compute, fetch, gate=gate)
        dispatcher.start()
        return dispatcher

    # -- fault recovery -------------------------------------------------
    def _run_subtask_with_recovery(
            self, subtask: Subtask, stage: _Stage,
            computed: SubtaskComputation | None) -> float:
        """Retry loop around the guarded attempt (:meth:`_run_guarded`).

        Runs entirely on the accounting thread in both execution modes,
        so injection draws, retries, backoff and lineage recomputation
        happen in the same deterministic order serially and in parallel.
        Each failed attempt charges exponential backoff to the subtask's
        simulated start time; a retryable failure past the budget raises
        :class:`RetriesExhausted` instead of looping or hanging.
        """
        squeezed = None
        squeezed_limit = 0
        if self.faults.enabled:
            factor = self.faults.squeeze_memory(subtask)
            if factor is not None:
                # transient memory squeeze: the subtask's worker loses
                # part of its budget for the whole admission/OOM-retry
                # span of this subtask, restored afterwards. Applied on
                # the accounting thread, so serial and parallel runs
                # squeeze identically.
                squeezed = self.cluster.memory[worker_of_band(subtask.band)]
                squeezed_limit = squeezed.limit
                squeezed.set_limit(max(1, int(squeezed_limit * factor)))
        try:
            if not self.faults.enabled:
                end = self._run_guarded(subtask, stage, computed)
                self.lifecycle.finish_subtask(subtask, self.session_id)
                return end
            ident = (subtask.stage_index, subtask.priority)
            extra_delay = 0.0
            while True:
                attempt = self._attempts.get(ident, 0)
                try:
                    if self.faults.fail_compute(subtask, attempt):
                        raise FaultInjected("compute", subtask.key)
                    missing = self.storage.missing_keys(subtask.input_keys)
                    if missing:
                        raise ChunkLostError(missing)
                    end = self._run_guarded(subtask, stage, computed,
                                            extra_delay)
                except _RETRYABLE as exc:
                    self._attempts[ident] = attempt + 1
                    if attempt >= MAX_RETRIES:
                        raise RetriesExhausted(
                            subtask.key, attempt + 1, exc
                        ) from exc
                    stage.report.retries += 1
                    backoff = BACKOFF_BASE * BACKOFF_FACTOR ** attempt
                    extra_delay += backoff
                    stage.report.backoff_time += backoff
                    # a compute-phase record may predate the failure: drop
                    # it, so the replay recomputes the (pure, deterministic)
                    # kernels from the recovered inputs.
                    computed = None
                    lost = _lost_keys(exc)
                    if lost:
                        self._recover_lost(lost, stage)
                    continue
                self.lifecycle.finish_subtask(subtask, self.session_id)
                self._inject_post_subtask(subtask)
                return end
        finally:
            if squeezed is not None:
                squeezed.set_limit(squeezed_limit)

    def _run_guarded(self, subtask: Subtask, stage: _Stage,
                     computed: SubtaskComputation | None = None,
                     extra_delay: float = 0.0) -> float:
        """:meth:`_run_subtask`, retried once on another worker.

        On :class:`WorkerOutOfMemory` a first run moves to the freest
        other worker (its earliest-free band) and retries there, counted
        as ``oom_retries``: the failed worker would fail the same way
        again. A second OOM bubbles to ``Session.execute``, which
        re-enters dynamic tiling with a halved chunk limit (memory-aware
        re-tiling, counted as ``pressure_splits``); so does the first
        one on a one-worker cluster, on a recovery re-execution (it
        stays where its lineage put it), or with ``admission_control``
        off.

        The move is decided on the accounting thread from deterministic
        state, so it — and its counter — is bit-identical between serial
        and parallel modes.
        """
        try:
            return self._run_subtask(subtask, stage, computed, extra_delay)
        except WorkerOutOfMemory:
            target = self.scheduling.freest_worker(
                worker_of_band(subtask.band))
            if (not self.config.admission_control or stage.recovering
                    or target is None):
                raise
        stage.report.oom_retries += 1
        bands = [b.name for b in self.cluster.bands if b.worker == target]
        self.scheduling.reassign(subtask, min(
            bands, key=lambda name: (self.cluster.clock.band_free[name], name)
        ))
        return self._run_subtask(subtask, stage, computed, extra_delay)

    def _recover_lost(self, keys: list[str], stage: _Stage) -> None:
        """Re-execute the minimal lineage closure that restores ``keys``.

        The plan walks backwards to producers whose outputs are gone —
        including transitively, e.g. shuffle-map partitions freed by
        refcounting — and re-runs them in (stage, priority) order.
        Recovery re-executions skip refcount cleanup and post-subtask
        injection, so they converge even at 100% loss rates.
        """
        recovery = _Stage(stage.report, stage.base_time)
        for producer in self.lifecycle.plan(keys):
            self._run_guarded(producer, recovery)
            stage.report.recomputed_subtasks += 1

    def _inject_post_subtask(self, subtask: Subtask) -> None:
        """Post-success injection points: chunk drops and worker kills.

        Only first-runs reach this (never recovery re-executions), and
        lineage for the subtask is recorded beforehand, so everything
        lost here is recomputable.
        """
        for out_index, key in enumerate(subtask.output_keys):
            if self.faults.drop_chunk(subtask, out_index, key):
                self._lose_chunk(key)
        if self.faults.kill_worker_after(subtask):
            band = self.cluster.band_by_name(subtask.band)
            self._kill_worker(band.worker)
        for uid in self.faults.actor_kills_after(subtask):
            self._kill_actor(uid)

    def _lose_chunk(self, key: str) -> None:
        # Fault loss deletes the data but keeps any shuffle index entry:
        # metadata outlives data loss, and when lineage recovery re-runs
        # the mapper, ``register_partition`` replaces the stale entry
        # (that is the re-registration path the lifecycle tests pin).
        # Refcount frees, by contrast, forget the index eagerly.
        self.storage.delete(key)
        self.scheduling.forget_chunk(key)
        if self.config.result_cache:
            # no entry may keep pointing at its vanished bytes.
            self.lifecycle.invalidate_cached([key])

    def _kill_actor(self, uid: str) -> None:
        """Crash one service/runner actor (scripted chaos).

        The supervisor respawns it lazily — on the next delivery to the
        uid or at the next stage-boundary probe — replaying state from
        its authoritative source (durable storage unit, long-lived
        service object, or lineage for runner compute). Zero virtual
        time is charged, so reports stay bit-identical.
        """
        self.cluster.supervision.kill(uid)

    def _kill_worker(self, worker: str) -> None:
        """Simulate a worker crash right after a subtask completed.

        Every chunk resident on the worker that has recorded lineage is
        lost (recomputable on demand); chunks without lineage are
        driver-held inputs and survive. The worker's bands sit out
        ``WORKER_RESTART_TIME`` before accepting more work.

        Only this session's chunks are lost — its chaos (its own
        injector) models failures of *its* work, and must never drop a
        neighbour's chunks.
        """
        prefix = f"{self.session_id}/"
        for key in list(self.storage.keys_on(worker)):
            if not key.startswith(prefix):
                continue
            if self.lifecycle.producer_of(key) is None:
                continue
            self._lose_chunk(key)
        for band in self.cluster.bands:
            if band.worker == worker:
                self.cluster.clock.delay_band(band.name, WORKER_RESTART_TIME)

    def ensure_available(self, keys) -> None:
        """Recompute any of ``keys`` missing from storage.

        Fetch-time recovery: a worker kill may take user-visible chunks
        after their producing stage finished; sessions call this before
        assembling results so a fetch never dies on a recoverable loss.
        """
        missing = self.storage.missing_keys(keys)
        if not missing:
            return
        with self.cluster.turnstile:
            stage = _Stage(SimReport(), self.frontier)
            self._recover_lost(missing, stage)
            fold_report(self.report, stage.report)

    # -- one accounting attempt -----------------------------------------
    def _run_subtask(self, subtask: Subtask, stage: _Stage,
                     computed: SubtaskComputation | None = None,
                     extra_delay: float = 0.0) -> float:
        """Account one attempt: gather → replay → admit → store → charge.

        Returns the subtask's completion time on the virtual clock.
        """
        band = self.cluster.band_by_name(subtask.band)
        # pin + fetch the whole input set in one storage message: the
        # pins hold for the whole accounting span — memory admission and
        # output spill must never evict what this subtask is reading
        # (in-flight inputs are not spill victims). A fetch that raises
        # leaves nothing pinned, so the unpin below pairs with success.
        infos = self.storage.acquire_many(subtask.input_keys, band.worker)
        try:
            env = _Env(subtask, infos)
            # failed attempts delay the retry's start: backoff is simulated
            # time the subtask spends waiting, not band busy time.
            ready_time = self._inputs_ready(subtask, stage) + extra_delay
            if computed is None:
                # no compute-phase record (retry after a fault, lineage
                # recovery, a compute phase that raced a deletion): the
                # shared kernel loop produces one from the inputs this
                # attempt just acquired.
                computed = run_subtask_kernels(subtask, env.values,
                                               self.config)
            steps = plan_subtask(subtask, enable=self.config.operator_fusion)
            cpu_bytes = self._replay(steps, computed, env, stage.report)
            decision = self._admit(subtask, stage, env, ready_time)
            if decision is not None:
                ready_time = decision.start
            self._store_outputs(subtask, stage, env)
            duration = self._duration(band, env, cpu_bytes, len(steps))
            end = self.cluster.clock.run_subtask(band, ready_time, duration)
            self.frontier = max(self.frontier, end)
            for key in subtask.output_keys:
                self.chunk_ready_at[key] = end
            if decision is not None:
                # one scheduling message: the grant is committed to span the
                # subtask's virtual execution (later admissions on this
                # worker see it until ``end`` passes), the estimator
                # observes the measured sizes, and the band-load claim is
                # released. The lifecycle epilogue — refcount release plus
                # lineage recording — happens in the retry wrapper, one
                # message too; recovery re-executions skip both: the
                # original run already consumed its inputs' refcounts, and
                # recoveries are never first-class successes.
                self.scheduling.finish_subtask(decision, end, subtask,
                                               env.sizes)
            stage.report.total_compute_seconds += duration
            stage.report.total_transfer_bytes += env.transferred
            return end
        finally:
            self.storage.unpin(subtask.input_keys)

    def _inputs_ready(self, subtask: Subtask, stage: _Stage) -> float:
        """Earliest virtual start: the stage base, every predecessor's
        completion, and every input chunk's."""
        times = [stage.base_time]
        if stage.graph is not None:
            times += [stage.completion[pred.key]
                      for pred in stage.graph.predecessors(subtask)]
        times += [self.chunk_ready_at[key] for key in subtask.input_keys
                  if key in self.chunk_ready_at]
        return max(times)

    def _replay(self, steps: list[list[ChunkData]],
                computed: SubtaskComputation, env: _Env,
                report: SimReport) -> int:
        """Walk the kernel record through ``env``, step by step.

        Returns the bytes the clock charges as compute; shuffle writes
        and combine savings land in ``report``, sampling annotations in
        ``_pending_extra`` until the annotated chunk's meta is recorded.
        """
        cpu_bytes = 0
        replayed: set[int] = set()
        for step in steps:
            step_inputs, step_outputs = step_io_keys(step)
            step_in_bytes = env.resident(step_inputs)
            # a fused step (two or more ops) recorded only its final op's
            # result: the chain's intermediates never enter the
            # environment and never inflate the transient working-set peak.
            fused = len(step) > 1
            if fused:
                env.store({step[-1].key: computed.op_results[id(step[-1].op)]})
            for chunk in step:
                op = chunk.op
                if id(op) in replayed:
                    continue
                replayed.add(id(op))
                if fused:
                    env.release_inputs(op)
                    continue
                result = computed.op_results[id(op)]
                if is_multi_output(op, result):
                    env.store(result)
                else:
                    env.store({op.outputs[0].key: result})
                env.release_inputs(op)
                extra_meta = computed.op_extra_meta.get(id(op), {})
                for meta_key, extra in extra_meta.items():
                    dropped = extra.pop(COMBINE_DROPPED_KEY, 0)
                    if dropped:
                        report.combine_dropped_rows += int(dropped)
                    if extra:
                        self._pending_extra.setdefault(
                            meta_key, {}
                        ).update(extra)
            step_out_bytes = env.resident(step_outputs)
            shuffle_factor = 1.0
            if any(c.op.is_shuffle_map for c in step):
                shuffle_factor = SHUFFLE_WRITE_FACTOR
                report.total_shuffle_bytes += int(step_out_bytes)
            if not all(c.op.is_lightweight for c in step):
                cpu_bytes += int(step_in_bytes
                                 + step_out_bytes * shuffle_factor)
        return cpu_bytes

    def _admit(self, subtask: Subtask, stage: _Stage, env: _Env,
               ready_time: float):
        """Make the attempt's working set fit its worker (spill, or
        raise :class:`WorkerOutOfMemory`); a first run also takes a
        grant from the admission ledger and returns the decision."""
        worker = worker_of_band(subtask.band)
        tracker = self.cluster.memory[worker]
        output_bytes = env.resident(subtask.output_keys)
        working_set = int(PEAK_FACTOR * max(
            env.peak, env.input_bytes + output_bytes
        ))
        decision = None
        # recovery re-executions restore already-accounted data: they
        # skip the ledger (like they skip refcounting and injection) but
        # still respect the budget via spill.
        headroom = working_set
        if not stage.recovering:
            # one scheduling message folds estimate → admit; the ledger
            # still reserves the *estimated* footprint (what a real
            # scheduler knows pre-execution), floored by the actual
            # working set the simulator just measured.
            decision = self.scheduling.admit_subtask(
                subtask, worker, working_set, ready_time,
                tracker.used, tracker.limit,
                allow_wait=self.config.admission_control,
            )
            stage.report.admission_wait_time += decision.wait
            # concurrent grants still active at our start count against
            # the budget: without backpressure this is exactly how the
            # seed engine dispatches N working sets into one worker. The
            # hard check uses the *actual* working set (estimates only
            # decide when to start, never inflate what must fit — a
            # forced admission drained the ledger, so this reduces to
            # the seed engine's own check).
            headroom += decision.active
        if not tracker.can_fit(headroom):
            self.storage.ensure_free(worker, headroom)
        tracker.note_transient(working_set)
        return decision

    def _store_outputs(self, subtask: Subtask, stage: _Stage,
                       env: _Env) -> None:
        """Write the outputs back: storage, shuffle index, meta."""
        worker = worker_of_band(subtask.band)
        shuffle_chunks = {
            c.key: c for c in subtask.chunks
            if c.op is not None and c.op.is_shuffle_map
        }
        # outputs go out in three batched messages — all puts, then all
        # shuffle registrations, then all meta records. Each put still
        # walks the full single-put path in key order (delete-if-exists,
        # spill-or-raise, pin migration), so storage state after the
        # batch matches the interleaved per-key calls it replaces.
        # a source slice's columns are the client's, borrowed for the
        # kernels after it: what is kept here is copied off them once
        borrowed = [arr for c in subtask.chunks if c.op is not None
                    for arr in c.op.borrowed_arrays()]
        put_entries = []
        for key in subtask.output_keys:
            if key not in env.values:
                raise KeyError(f"subtask produced no value for output {key!r}")
            value = env.values[key]
            if borrowed:
                value = unshared(value, borrowed)
            put_entries.append((key, value, env.sizes.get(key)))
        stored_sizes = self.storage.put_many(put_entries, worker)
        register_entries = []
        meta_entries = []
        for (key, value, _), stored in zip(put_entries, stored_sizes):
            chunk = shuffle_chunks.get(key)
            if chunk is not None:
                register_entries.append((
                    chunk.op.shuffle_id, int(chunk.index[0]),
                    int(chunk.index[1]), key, worker, stored,
                ))
            if stage.recovering:
                stage.report.recovery_bytes += stored
                self.scheduling.record_chunk(key, subtask.band)
            meta_entries.append((key, value, self._pending_extra.pop(key, None)))
        if register_entries:
            self.shuffle.register_partitions(register_entries)
        if meta_entries:
            self.meta.set_from_values(meta_entries)

    def _duration(self, band, env: _Env, cpu_bytes: int,
                  n_steps: int) -> float:
        """Virtual seconds the attempt occupies its band."""
        cost = self.config.cost_model
        return (
            cost.subtask_overhead
            + self.cluster.clock.compute_cost(cpu_bytes, band)
            + self.cluster.clock.transfer_cost(env.transferred)
            + env.disk_bytes * (DISK_PENALTY - 1.0) / cost.network_bandwidth
            + cost.dispatch_overhead * n_steps
        )

    # ------------------------------------------------------------------
    def _known_nbytes(self, subtask_graph: DAG[Subtask]) -> dict[str, int]:
        keys: set[str] = set()
        for subtask in subtask_graph.nodes():
            keys.update(subtask.input_keys)
        metas = self.meta.get_many(sorted(keys))
        return {key: meta.nbytes for key, meta in metas.items()}
