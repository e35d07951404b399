"""Memory-pressure suite: admission ledger, OOM retry, re-tiling.

The contract under test (DESIGN.md §Memory pressure): with admission
control on (backpressure, one retry on another worker, re-tiling),
workloads complete — with
results identical to an unconstrained run — at worker budgets where the
no-backpressure engine dies; backpressure is charged to virtual time
(``admission_wait_time``) deterministically in both execution modes; and
a budget smaller than any two concurrent working sets serializes through
the deadlock guard instead of hanging.
"""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.core import session as session_module
from repro.core.executor import GraphExecutor
from repro.core.memory_control import (
    PEAK_FACTOR,
    FootprintEstimator,
    MemoryAdmission,
    verify_memory_invariants,
    worker_of_band,
)
from repro.core.meta import ChunkMeta, MetaService
from repro.core.operator import Operator
from repro.core.session import retile_pays
from repro.cluster import ClusterState
from repro.dataframe import from_frame
from repro.errors import WorkerOutOfMemory
from repro.graph.dag import DAG
from repro.graph.entity import ChunkData
from repro.graph.subtask import Subtask
from repro.services.scheduling import SchedulingService
from repro.storage import StorageService
from repro.tensor import rand
from repro.tensor.core import tensor_from_numpy
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize


def make_session(parallel: bool = False, chunk_limit: int = 8_000,
                 memory_limit: int | None = None, **overrides) -> Session:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = "process" if parallel else "serial"
    if memory_limit is not None:
        cfg.cluster.memory_limit = memory_limit
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def assert_same_result(actual, expected):
    if isinstance(expected, np.ndarray):
        assert np.asarray(actual).tobytes() == expected.tobytes()
    elif hasattr(expected, "equals"):
        assert actual.equals(expected)
    else:
        assert actual == pytest.approx(expected)


def tensor_fanout(session: Session) -> np.ndarray:
    t = rand(2048, 8, seed=7, session=session)
    return np.asarray(((t * 2.0 + 1.0).sum()).fetch())


def tensor_fanout_exact(session: Session) -> np.ndarray:
    """Chunking-independent fanout: driver-held integer data, exact sum.

    ``rand`` seeds its values per chunk, so memory-aware re-tiling (which
    changes the chunk layout) legitimately changes what it samples; this
    variant keeps the answer invariant under any re-tiling.
    """
    data = np.arange(2048 * 8, dtype=np.int64).reshape(2048, 8)
    t = tensor_from_numpy(data, session=session)
    return np.asarray(((t * 2 + 1).sum()).fetch())


def groupby_shuffle(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def tpch_q5(session: Session, sf: float = 1.0):
    tables = generate_tables(sf=sf, seed=7)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES["q5"](handles))


# ---------------------------------------------------------------------------
# units: estimator, ledger, scheduler load accounting
# ---------------------------------------------------------------------------

class _SizedOp(Operator):
    def __init__(self, n: int = 0, **params):
        super().__init__(n=n, **params)
        self._n = n

    def execute(self, ctx):
        return np.ones(self._n)


def _stub_subtask(outputs, inputs=(), stage=0, priority=0,
                  band="worker-0/band-0", op=None) -> Subtask:
    chunk = ChunkData("tensor", (1,), (0,), op=op)
    if op is not None:
        chunk.key = outputs[0]
    subtask = Subtask([chunk])
    subtask.output_keys = list(outputs)
    subtask.input_keys = list(inputs)
    subtask.stage_index = stage
    subtask.priority = priority
    subtask.band = band
    return subtask


class TestWorkerOfBand:
    def test_splits_band_names(self):
        assert worker_of_band("worker-3/band-1") == "worker-3"
        assert worker_of_band(None) == ""


class TestFootprintEstimator:
    def _estimator(self, chunk_limit=1_000):
        cfg = Config()
        cfg.chunk_store_limit = chunk_limit
        cluster = ClusterState(cfg)
        storage = StorageService(cluster, cfg)
        return FootprintEstimator(cfg, MetaService(), storage), cfg

    def test_unknown_everything_presumes_full_chunks(self):
        estimator, cfg = self._estimator()
        subtask = _stub_subtask(["out"], inputs=["in-a", "in-b"])
        # two unknown inputs + one never-seen output class, peak factor on
        expected = int(PEAK_FACTOR * 3 * cfg.chunk_store_limit)
        assert estimator.estimate(subtask) == expected

    def test_observation_replaces_default_and_smooths(self):
        estimator, cfg = self._estimator()
        op = _SizedOp(4)
        subtask = _stub_subtask(["out"], op=op)
        default = estimator.output_bytes(subtask)
        assert default == cfg.chunk_store_limit
        estimator.observe(subtask, {"out": 200})
        assert estimator.output_bytes(subtask) == 200
        estimator.observe(subtask, {"out": 100})
        # EWMA with alpha 0.5
        assert estimator.output_bytes(subtask) == 150

    def test_inputs_prefer_meta_then_storage(self):
        estimator, cfg = self._estimator()
        estimator.meta.set("known", ChunkMeta(shape=(8,), nbytes=64,
                                              kind="tensor"))
        estimator.storage.put("stored", np.zeros(16), "worker-0")
        stored = estimator.storage.nbytes_of("stored")
        subtask = _stub_subtask(["o"], inputs=["known", "stored", "ghost"])
        assert estimator.input_bytes(subtask) == (
            64 + stored + cfg.chunk_store_limit
        )


class TestMemoryAdmission:
    def test_fits_starts_immediately(self):
        ledger = MemoryAdmission()
        decision = ledger.admit("w", 100, 1.0, used=0, limit=1_000,
                                allow_wait=True)
        assert decision.start == 1.0 and decision.wait == 0.0
        assert not decision.forced
        ledger.commit(decision, 2.0)
        assert ledger.active_bytes("w", 1.5) == 100
        assert ledger.active_bytes("w", 2.5) == 0

    def test_waits_for_earliest_ending_grant(self):
        ledger = MemoryAdmission()
        for end, nbytes in ((5.0, 400), (3.0, 400)):
            d = ledger.admit("w", nbytes, 0.0, used=0, limit=1_000,
                             allow_wait=True)
            ledger.commit(d, end)
        decision = ledger.admit("w", 400, 1.0, used=0, limit=1_000,
                                allow_wait=True)
        # 3 * 400 > 1000: wait for the grant ending at 3.0, not 5.0
        assert decision.start == 3.0
        assert decision.wait == 2.0
        assert not decision.forced
        assert ledger.total_wait == 2.0

    def test_deadlock_guard_forces_after_drain(self):
        ledger = MemoryAdmission()
        d = ledger.admit("w", 800, 0.0, used=0, limit=1_000,
                         allow_wait=True)
        ledger.commit(d, 4.0)
        decision = ledger.admit("w", 900, 0.0, used=300, limit=1_000,
                                allow_wait=True)
        # even alone it oversubscribes (300 + 900 > 1000): admitted
        # anyway once every grant drained, with zero concurrent bytes.
        assert decision.start == 4.0
        assert decision.active == 0
        assert decision.forced
        assert ledger.forced_admissions == 1

    def test_no_wait_mode_admits_into_pressure(self):
        ledger = MemoryAdmission()
        d = ledger.admit("w", 800, 0.0, used=0, limit=1_000,
                         allow_wait=False)
        ledger.commit(d, 4.0)
        decision = ledger.admit("w", 800, 1.0, used=0, limit=1_000,
                                allow_wait=False)
        assert decision.start == 1.0 and decision.active == 800

    def test_begin_stage_clears_grants(self):
        ledger = MemoryAdmission()
        for end in (99.0, 120.0):
            d = ledger.admit("w", 10, 0.0, used=0, limit=100,
                             allow_wait=True)
            ledger.commit(d, end)
        # grants that ended by the stage's base go; a later one stays.
        ledger.begin_stage(99.0)
        assert ledger.outstanding(0.0) == 10


class TestSchedulerLoadAccounting:
    def _assigned(self):
        cfg = Config()
        cluster = ClusterState(cfg)
        scheduler = SchedulingService.create(cluster, cfg, MetaService(),
                                             storage=None)
        graph: DAG = DAG()
        subtasks = [
            _stub_subtask([f"o{i}"], priority=i, band=None) for i in range(4)
        ]
        for subtask in subtasks:
            graph.add_node(subtask)
        scheduler.assign(graph)
        return scheduler, subtasks

    def test_completion_releases_estimated_load(self):
        scheduler, subtasks = self._assigned()
        assert sum(scheduler._band_load.values()) > 0
        for subtask in subtasks:
            assert subtask.load_estimate > 0
            scheduler.note_completed(subtask)
        # S1: load decays back to zero instead of accumulating forever
        assert sum(scheduler._band_load.values()) == 0

    def test_reassign_moves_load_and_placement(self):
        scheduler, subtasks = self._assigned()
        victim = subtasks[0]
        source = victim.band
        target = next(
            b.name for b in scheduler.cluster.bands if b.name != source
        )
        before_target = scheduler._band_load[target]
        scheduler.reassign(victim, target)
        assert victim.band == target
        assert scheduler._band_load[target] == pytest.approx(
            before_target + victim.load_estimate
        )
        assert all(
            scheduler.chunk_band[key] == target for key in victim.output_keys
        )


# ---------------------------------------------------------------------------
# end-to-end: backpressure, the ladder, and the deadlock guard
# ---------------------------------------------------------------------------

class TestAdmissionBackpressure:
    GROUPBY = {"chunk_limit": 4_000, "tree_reduce_threshold": 1}
    LIMIT = 32 * 1024

    def test_completes_where_no_backpressure_engine_dies(self):
        with make_session(**self.GROUPBY) as free:
            expected = groupby_shuffle(free)
        with make_session(memory_limit=self.LIMIT, **self.GROUPBY) as tight:
            actual = groupby_shuffle(tight)
            assert tight.executor.report.admission_wait_time > 0.0
            verify_memory_invariants(tight)
        assert_same_result(actual, expected)
        with make_session(memory_limit=self.LIMIT, admission_control=False,
                          **self.GROUPBY) as seedlike:
            with pytest.raises(WorkerOutOfMemory):
                groupby_shuffle(seedlike)

    def test_serial_parallel_wait_accounting_identical(self):
        reports = {}
        for mode in (False, True):
            with make_session(parallel=mode, memory_limit=self.LIMIT,
                              **self.GROUPBY) as session:
                groupby_shuffle(session)
                report = session.executor.report
                reports[mode] = (
                    report.makespan,
                    report.admission_wait_time,
                    report.oom_retries,
                    report.pressure_splits,
                    dict(report.peak_memory),
                )
                verify_memory_invariants(session)
        assert reports[True] == reports[False]
        assert reports[False][1] > 0.0


class TestOOMLadder:
    """Each rung in front of a fatal OOM is named by a point it rescues:
    with the rung taken out, that point dies."""

    Q5_LIMIT = {"chunk_limit": 64 * 1024}

    def test_ladder_escalates_to_retile_and_completes(self, monkeypatch):
        with make_session() as free:
            expected = tensor_fanout_exact(free)
        with make_session(memory_limit=16 * 1024) as tight:
            actual = tensor_fanout_exact(tight)
            verify_memory_invariants(tight)
        assert_same_result(actual, expected)
        monkeypatch.setattr(session_module, "retile_pays",
                            lambda oom, chunk_limit: False)
        with make_session(memory_limit=16 * 1024) as tight:
            with pytest.raises(WorkerOutOfMemory):
                tensor_fanout_exact(tight)

    def test_retry_on_another_worker_completes(self, monkeypatch):
        """q5 at sf 0.5 with 0.1x its comfortable 86,016 B budget:
        re-tiling alone runs out of chunk to halve."""
        with make_session(**self.Q5_LIMIT) as free:
            expected = tpch_q5(free, sf=0.5)
        with make_session(memory_limit=8_601, **self.Q5_LIMIT) as tight:
            actual = tpch_q5(tight, sf=0.5)
            verify_memory_invariants(tight)
        assert_same_result(actual, expected)
        monkeypatch.setattr(GraphExecutor, "_run_guarded",
                            GraphExecutor._run_subtask)
        with make_session(memory_limit=8_601, **self.Q5_LIMIT) as tight:
            with pytest.raises(WorkerOutOfMemory):
                tpch_q5(tight, sf=0.5)

    def test_retile_halves_past_chunks_already_below_the_limit(self):
        """At a 10 KiB budget q5 sf 0.25 fails the same 18,096 B request
        at 64, 32 and 16 KiB, whose limits are all above its 12 KB source
        chunk, and an 11,580 B one at 8 KiB; the fourth halving (to 4 KiB)
        completes. (An 11,808 B budget takes three, an 8,809 B one five.)"""
        with make_session(**self.Q5_LIMIT) as free:
            expected = tpch_q5(free, sf=0.25)
        with make_session(memory_limit=10_240, **self.Q5_LIMIT) as tight:
            actual = tpch_q5(tight, sf=0.25)
            assert tight.last_report.pressure_splits == 4
        assert_same_result(actual, expected)

    def test_retile_pays_only_where_chunking_shrinks_the_request(self):
        # 11,712 B over the budget; one chunk in and one out at a limit of
        # 3,904 B weigh PEAK_FACTOR * 7,808 = 11,712 B.
        oom = WorkerOutOfMemory("worker-0", requested=24_000, limit=12_288,
                                used=0)
        assert retile_pays(oom, 8_000)
        assert retile_pays(oom, 3_904)
        assert not retile_pays(oom, 3_903)
        # fan-in: resident bytes count toward the overshoot (8,659 B here).
        fan_in = WorkerOutOfMemory("worker-3", requested=18_804,
                                   limit=10_649, used=504)
        assert not retile_pays(fan_in, 1_000)
        # a worker full of stored chunks (spill off): re-tiling would
        # only make room for more of them.
        full = WorkerOutOfMemory("worker-0", requested=12_096, limit=40_000,
                                 used=32_256)
        assert not retile_pays(full, 4_000)
        # a one-byte limit cannot halve, however small the overshoot.
        assert not retile_pays(WorkerOutOfMemory("w", 2, 1, 0), 1)

    def test_static_tiling_does_not_retile(self):
        with make_session(memory_limit=16 * 1024,
                          dynamic_tiling=False) as tight:
            with pytest.raises(WorkerOutOfMemory):
                tensor_fanout_exact(tight)
            assert tight.executor.report.pressure_splits == 0

    def test_scripted_squeeze_fires_once_and_recovers(self):
        with make_session() as free:
            expected = tensor_fanout_exact(free)
        with make_session(memory_limit=64 * 1024) as session:
            session.faults.script_memory_squeeze(0, 0, factor=0.25)
            actual = tensor_fanout_exact(session)
            events = [
                e for e in session.faults.events
                if e.point == "mem_squeeze"
            ]
            assert len(events) == 1
            assert events[0].detail == "factor 0.25"
            # the squeeze is transient: the limit is back afterwards
            worker = events[0].target
            assert session.cluster.memory[worker].limit == 64 * 1024
            verify_memory_invariants(session)
        assert_same_result(actual, expected)

    def test_retile_limit_restored_after_pressure_splits(self):
        with make_session(memory_limit=16 * 1024) as session:
            tensor_fanout_exact(session)
            assert session.executor.report.pressure_splits >= 1
            assert session.config.chunk_store_limit == 8_000


class TestDeadlockGuard:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_budget_below_two_working_sets_terminates(self, parallel):
        """A budget smaller than any two concurrent working sets (the
        unconstrained per-worker peak is ~24K) must serialize through
        forced admissions, not deadlock."""
        with make_session() as free:
            expected = tensor_fanout_exact(free)
        with make_session(parallel=parallel, memory_limit=12 * 1024,
                          spill_to_disk=False) as tiny:
            actual = tensor_fanout_exact(tiny)
            assert tiny.executor.pressure.admission.forced_admissions > 0
            verify_memory_invariants(tiny)
        assert_same_result(actual, expected)


# ---------------------------------------------------------------------------
# shrinking-budget sweep (the Table II robustness claim in miniature)
# ---------------------------------------------------------------------------

class TestShrinkingBudgetSweep:
    #: descending per-worker budgets, down to ~3% of the comfortable one.
    GRID = [512, 384, 256, 192, 128, 96]

    def _min_completing_limit(self, admission: bool) -> int:
        floor = None
        for limk in self.GRID:
            try:
                with make_session(chunk_limit=64 * 1024,
                                  memory_limit=limk * 1024,
                                  admission_control=admission) as session:
                    tpch_q5(session)
                    verify_memory_invariants(session)
                floor = limk
            except WorkerOutOfMemory:
                break
        assert floor is not None, "every budget in the grid OOMed"
        return floor

    def test_full_engine_survives_strictly_smaller_budgets(self):
        with make_session(chunk_limit=64 * 1024) as free:
            expected = tpch_q5(free)
        full = self._min_completing_limit(admission=True)
        baseline = self._min_completing_limit(admission=False)
        assert full < baseline
        # and at the full engine's floor the answer is still exact
        with make_session(chunk_limit=64 * 1024,
                          memory_limit=full * 1024) as tight:
            actual = tpch_q5(tight)
        assert_same_result(actual, expected)
