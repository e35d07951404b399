"""Chaos suite: deterministic fault injection + lineage-based recovery.

The contract under test (DESIGN.md §Failure model): with seeded faults
at realistic rates every workload completes with results identical to a
fault-free run, serial and parallel execution produce bit-identical
``SimReport``s for the same fault seed, and exhausting the retry budget
raises a typed error instead of hanging.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import frame as pf
from repro.cluster.simulation import SimReport
from repro.config import Config, FaultSpec
from repro.core import Session
from repro.core.dispatch import BandDispatcher, SubtaskComputation
from repro.core.executor import BACKOFF_BASE, MAX_RETRIES, _Stage
from repro.core.memory_control import PEAK_FACTOR, verify_memory_invariants
from repro.core.operator import Operator
from repro.core.recovery import FaultInjector, RecoveryManager
from repro.dataframe import from_frame
from repro.errors import (
    DispatcherError,
    RetriesExhausted,
    UnrecoverableChunkLoss,
)
from repro.graph.dag import DAG
from repro.graph.entity import ChunkData
from repro.graph.subtask import Subtask
from repro.tensor import rand
from repro.utils import sizeof
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize


def make_session(parallel: bool = False, chunk_limit: int = 8_000,
                 faults: dict | None = None,
                 memory_limit: int | None = None, **overrides) -> Session:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = "process" if parallel else "serial"
    if memory_limit is not None:
        cfg.cluster.memory_limit = memory_limit
    for name, value in (faults or {}).items():
        setattr(cfg.faults, name, value)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def report_tuple(session: Session):
    return dataclasses.astuple(session.executor.report)


def event_signature(session: Session):
    """Structural identities of fired injections (session-independent)."""
    return [(e.point, e.stage, e.priority)
            for e in session.faults.events]


def assert_same_result(actual, expected):
    if isinstance(expected, np.ndarray):
        assert np.asarray(actual).tobytes() == expected.tobytes()
    elif hasattr(expected, "equals"):
        assert actual.equals(expected)
    else:
        assert actual == pytest.approx(expected)


# ---------------------------------------------------------------------------
# tier-1 workloads
# ---------------------------------------------------------------------------

def tensor_fanout(session: Session) -> np.ndarray:
    t = rand(2048, 8, seed=7, session=session)
    return np.asarray(((t * 2.0 + 1.0).sum()).fetch())


def groupby_shuffle(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def merge_frames(session: Session):
    rng = np.random.default_rng(5)
    left = pf.DataFrame({
        "k": rng.integers(0, 50, 1_500),
        "a": rng.normal(size=1_500),
    })
    right = pf.DataFrame({"k": np.arange(50), "b": rng.normal(size=50)})
    return from_frame(left, session).merge(
        from_frame(right, session), on="k"
    ).fetch()


def sort_frame(session: Session):
    rng = np.random.default_rng(9)
    local = pf.DataFrame({
        "x": rng.normal(size=3_000),
        "y": np.arange(3_000, dtype=float),
    })
    return from_frame(local, session).sort_values("x").fetch()


def tpch_q5(session: Session):
    tables = generate_tables(sf=1.0, seed=7)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES["q5"](handles))


#: name -> (workload, config overrides). The groupby forces the
#: shuffle-reduce path so partition recovery is actually exercised.
WORKLOADS = {
    "tensor_fanout": (tensor_fanout, {}),
    "groupby_shuffle": (groupby_shuffle,
                        {"chunk_limit": 4_000, "tree_reduce_threshold": 1}),
    "merge": (merge_frames, {"chunk_limit": 4_000}),
    "sort": (sort_frame, {"chunk_limit": 4_000}),
    "tpch_q5": (tpch_q5, {"chunk_limit": 64 * 1024}),
}

#: the chaos dial of the acceptance criteria: every rate <= 5%.
CHAOS = {
    "seed": 20240806,
    "compute_fault_rate": 0.05,
    "chunk_loss_rate": 0.03,
    "worker_kill_rate": 0.01,
    "memory_squeeze_rate": 0.05,
}


# ---------------------------------------------------------------------------
# injector + lineage planning units
# ---------------------------------------------------------------------------

def _stub_subtask(outputs, inputs=(), stage=0, priority=0) -> Subtask:
    subtask = Subtask([ChunkData("tensor", (1,), (0,))])
    subtask.output_keys = list(outputs)
    subtask.input_keys = list(inputs)
    subtask.stage_index = stage
    subtask.priority = priority
    subtask.band = "worker-0/band-0"
    return subtask


class TestFaultInjector:
    def test_draws_deterministic_per_seed(self):
        a = FaultInjector(FaultSpec(seed=42))
        b = FaultInjector(FaultSpec(seed=42))
        c = FaultInjector(FaultSpec(seed=43))
        series_a = [a._draw("compute", 0, i, 0) for i in range(200)]
        series_b = [b._draw("compute", 0, i, 0) for i in range(200)]
        series_c = [c._draw("compute", 0, i, 0) for i in range(200)]
        assert series_a == series_b
        assert series_a != series_c
        assert all(0.0 <= x < 1.0 for x in series_a)
        # roughly uniform: a 5% rate fires on a few percent of draws
        assert 0 < sum(x < 0.05 for x in series_a) < 30

    def test_rates_zero_and_one(self):
        never = FaultInjector(FaultSpec(seed=1))
        always = FaultInjector(FaultSpec(
            seed=1, compute_fault_rate=1.0, chunk_loss_rate=1.0,
            worker_kill_rate=1.0,
        ))
        subtask = _stub_subtask(["o"])
        assert not never.enabled
        assert not never.fail_compute(subtask, 0)
        assert always.fail_compute(subtask, 0)
        assert always.drop_chunk(subtask, 0, "o")
        assert always.kill_worker_after(subtask)
        assert [e.point for e in always.events] == [
            "compute", "chunk_loss", "worker_kill",
        ]

    def test_scripted_point_fires_exactly_once(self):
        injector = FaultInjector(FaultSpec(seed=0))
        injector.script_compute_fault(2, 5, attempt=1)
        assert injector.enabled
        subtask = _stub_subtask(["o"], stage=2, priority=5)
        assert not injector.fail_compute(subtask, 0)
        assert injector.fail_compute(subtask, 1)
        assert not injector.fail_compute(subtask, 1)


class TestRecoveryPlan:
    def _lineage(self):
        # source -> mid -> out, plus an unrelated producer
        source = _stub_subtask(["a"], stage=0, priority=0)
        mid = _stub_subtask(["b"], inputs=["a"], stage=0, priority=1)
        out = _stub_subtask(["c"], inputs=["b"], stage=1, priority=0)
        other = _stub_subtask(["z"], stage=0, priority=2)
        manager = RecoveryManager()
        for subtask in (source, mid, out, other):
            manager.record(subtask)
        return manager, source, mid, out

    def test_minimal_plan_stops_at_resident_inputs(self):
        manager, _, mid, _ = self._lineage()
        plan = manager.plan(["b"], contains=lambda k: k == "a")
        assert plan == [mid]

    def test_transitive_closure_over_freed_inputs(self):
        manager, source, mid, out = self._lineage()
        plan = manager.plan(["c"], contains=lambda k: False)
        assert plan == [source, mid, out]  # valid execution order

    def test_unknown_key_is_unrecoverable(self):
        manager, *_ = self._lineage()
        with pytest.raises(UnrecoverableChunkLoss):
            manager.plan(["ghost"], contains=lambda k: False)


# ---------------------------------------------------------------------------
# scripted end-to-end injections
# ---------------------------------------------------------------------------

class TestScriptedInjection:
    def test_compute_fault_is_retried_with_backoff(self):
        with make_session() as clean:
            expected = tensor_fanout(clean)
        with make_session() as chaotic:
            chaotic.faults.script_compute_fault(0, 0)
            actual = tensor_fanout(chaotic)
            report = chaotic.executor.report
            assert report.retries == 1
            assert report.backoff_time == pytest.approx(BACKOFF_BASE)
            assert event_signature(chaotic) == [("compute", 0, 0)]
            assert chaotic.last_report.retries == 1
        assert_same_result(actual, expected)

    def test_chunk_loss_triggers_lineage_recompute(self):
        with make_session() as clean:
            expected = tensor_fanout(clean)
        with make_session() as chaotic:
            chaotic.faults.script_chunk_loss(0, 0)
            actual = tensor_fanout(chaotic)
            report = chaotic.executor.report
            assert report.recomputed_subtasks >= 1
            assert report.recovery_bytes > 0
            assert ("chunk_loss", 0, 0) in event_signature(chaotic)
        assert_same_result(actual, expected)

    def test_worker_kill_recovers_and_charges_restart(self):
        with make_session() as clean:
            expected = tensor_fanout(clean)
            clean_makespan = clean.cluster.clock.makespan
        with make_session() as chaotic:
            chaotic.faults.script_worker_kill(0, 0)
            actual = tensor_fanout(chaotic)
            report = chaotic.executor.report
            assert report.recomputed_subtasks >= 1
            assert ("worker_kill", 0, 0) in event_signature(chaotic)
            # the killed worker's bands waited out the restart
            assert chaotic.cluster.clock.makespan > clean_makespan
        assert_same_result(actual, expected)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_retries_exhausted_raises_typed_error(self, parallel):
        faults = {"compute_fault_rate": 1.0}
        with make_session(parallel=parallel, faults=faults) as session:
            with pytest.raises(RetriesExhausted) as excinfo:
                tensor_fanout(session)
            assert excinfo.value.attempts == MAX_RETRIES + 1

    def test_total_chunk_loss_still_converges(self):
        """Every output dropped post-store: recovery must terminate."""
        with make_session() as clean:
            expected = tensor_fanout(clean)
        faults = {"chunk_loss_rate": 1.0}
        with make_session(faults=faults) as chaotic:
            actual = tensor_fanout(chaotic)
            report = chaotic.executor.report
            assert report.retries > 0
            assert report.recomputed_subtasks > 0
        assert_same_result(actual, expected)


# ---------------------------------------------------------------------------
# randomized chaos across the tier-1 workloads
# ---------------------------------------------------------------------------

class TestChaosMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_chaotic_run_matches_fault_free(self, name):
        workload, overrides = WORKLOADS[name]
        with make_session(**overrides) as clean:
            expected = workload(clean)
        with make_session(faults=CHAOS, **overrides) as chaotic:
            actual = workload(chaotic)
            events = event_signature(chaotic)
            verify_memory_invariants(chaotic)
        assert_same_result(actual, expected)
        # rates this high over graphs this wide must actually fire
        assert events

    @pytest.mark.parametrize("name", ["tensor_fanout", "groupby_shuffle"])
    def test_serial_parallel_reports_bit_identical_under_chaos(self, name):
        workload, overrides = WORKLOADS[name]
        results, reports, signatures = {}, {}, {}
        for mode in (False, True):
            with make_session(parallel=mode, faults=CHAOS,
                              **overrides) as session:
                results[mode] = workload(session)
                reports[mode] = report_tuple(session)
                signatures[mode] = event_signature(session)
                verify_memory_invariants(session)
        assert signatures[True] == signatures[False]
        assert reports[True] == reports[False]
        assert_same_result(results[True], results[False])

    @pytest.mark.parametrize("name", ["tensor_fanout", "groupby_shuffle"])
    def test_memory_chaos_bit_identical_under_pressure(self, name):
        """Memory squeezes + chunk loss under a budget tight enough that
        admission backpressure and the OOM retry actually fire: results
        still match the fault-free run and both modes stay bit-identical.

        128 KiB a worker: at 192 the shuffle workload stopped waiting
        once each mapper ran once (its 16 partitions are one subtask's
        working set, not 16 subtasks' each re-reading the map chunk);
        backpressure is back from 160 KiB down, 128 leaves margin.
        """
        workload, overrides = WORKLOADS[name]
        chaos = dict(CHAOS)
        chaos["memory_squeeze_rate"] = 0.2
        with make_session(**overrides) as clean:
            expected = workload(clean)
        results, reports, pressured = {}, {}, {}
        for mode in (False, True):
            with make_session(parallel=mode, faults=chaos,
                              memory_limit=128 * 1024,
                              **overrides) as session:
                results[mode] = workload(session)
                reports[mode] = report_tuple(session)
                report = session.executor.report
                pressured[mode] = (
                    report.admission_wait_time > 0.0
                    or report.oom_retries > 0
                )
                assert any(e.point == "mem_squeeze"
                           for e in session.faults.events)
                verify_memory_invariants(session)
        assert reports[True] == reports[False]
        assert pressured[True] and pressured[False]
        assert_same_result(results[True], results[False])
        assert_same_result(results[True], expected)


# ---------------------------------------------------------------------------
# shuffle register/forget lifecycle under recomputation
# ---------------------------------------------------------------------------

class TestShuffleRecovery:
    OVERRIDES = {"chunk_limit": 4_000, "tree_reduce_threshold": 1}

    def test_lost_partition_reregisters_on_mapper_rerun(self):
        """Dropping a stored mapper partition leaves a stale shuffle
        index entry; the mapper re-run must *replace* it (bumping the
        re-registration counter), not KeyError or double-register."""
        with make_session(**self.OVERRIDES) as clean:
            expected = groupby_shuffle(clean)
        with make_session(**self.OVERRIDES) as chaotic:
            fired: list[str] = []

            def drop_one_partition(subtask, key):
                if fired:
                    return False
                is_mapper = any(
                    c.op is not None and c.op.is_shuffle_map
                    for c in subtask.chunks
                )
                if is_mapper:
                    fired.append(key)
                    return True
                return False

            chaotic.faults.on_store(drop_one_partition)
            actual = groupby_shuffle(chaotic)
            assert fired, "workload scheduled no shuffle mappers"
            assert chaotic.shuffle.reregistered_count() >= 1
            assert chaotic.executor.report.recomputed_subtasks >= 1
        assert_same_result(actual, expected)

    def test_reducer_loss_recomputes_refcount_freed_mappers(self):
        """Losing a reducer output after its partitions were freed by
        refcounting must pull the mappers back in via lineage."""
        with make_session(**self.OVERRIDES) as dry:
            expected = groupby_shuffle(dry)
            producers = {
                id(s): s
                for s in dry.executor.recovery._producer_of.values()
            }.values()
            mapper_outputs = {
                key for s in producers
                if any(c.op is not None and c.op.is_shuffle_map
                       for c in s.chunks)
                for key in s.output_keys
            }
            reducers = [
                s for s in producers
                if set(s.input_keys) & mapper_outputs
            ]
            assert mapper_outputs and reducers
            target = min(reducers,
                         key=lambda s: (s.stage_index, s.priority))
            ident = (target.stage_index, target.priority)
        # structural identities are stable across sessions: script the
        # same reducer's output loss in a brand-new session.
        with make_session(**self.OVERRIDES) as chaotic:
            chaotic.faults.script_chunk_loss(*ident)
            actual = groupby_shuffle(chaotic)
            report = chaotic.executor.report
            assert ("chunk_loss",) + ident in event_signature(chaotic)
            # the reducer plus at least one mapper were re-executed
            assert report.recomputed_subtasks >= 2
        assert_same_result(actual, expected)

    def test_fetch_time_recovery_keeps_what_it_charged(self, monkeypatch):
        """A worker dies right after the final subtask, so the loss is
        noticed at fetch: the lost reducers re-run, and so do the
        mappers refcounting had freed. The run's report must be the sum
        of its stages' reports *including* that recovery stage — its
        transfer and shuffle bytes used to be dropped (only recomputed
        subtasks, recovery bytes and compute seconds were kept)."""
        import repro.core.executor as executor_module

        with make_session(**self.OVERRIDES) as dry:
            groupby_shuffle(dry)
            last = max(
                (s.stage_index, s.priority)
                for s in dry.executor.recovery._producer_of.values()
            )
        reports = {}
        for parallel in (False, True):
            with make_session(parallel=parallel,
                              **self.OVERRIDES) as session:
                stages: list[SimReport] = []

                def recorded(*args, **kwargs):
                    stages.append(SimReport(*args, **kwargs))
                    return stages[-1]

                monkeypatch.setattr(executor_module, "SimReport", recorded)
                session.faults.script_worker_kill(*last)
                groupby_shuffle(session)
                monkeypatch.undo()
                report = session.executor.report
                recovery = stages[-1]
                assert recovery.recomputed_subtasks >= 2
                assert recovery.n_subtasks == 0  # not a planned stage
                assert recovery.total_transfer_bytes > 0
                assert recovery.total_shuffle_bytes > 0
                for name in ("total_transfer_bytes", "total_shuffle_bytes",
                             "total_compute_seconds", "recovery_bytes",
                             "recomputed_subtasks"):
                    assert getattr(report, name) == sum(
                        getattr(stage, name) for stage in stages), name
                reports[parallel] = report_tuple(session)
        assert reports[True] == reports[False]

    def test_reregistration_counter_unit(self):
        with make_session(**self.OVERRIDES) as session:
            shuffle = session.shuffle
            session.storage.put("p0", np.arange(4), "worker-0")
            shuffle.register_partition("s1", 0, 0, "p0", "worker-0", 32)
            assert shuffle.reregistered_count() == 0
            shuffle.register_partition("s1", 0, 0, "p0", "worker-0", 32)
            assert shuffle.reregistered_count() == 1
            values, _, _ = shuffle.gather("s1", 0, "worker-0")
            assert len(values) == 1  # replaced, not duplicated


# ---------------------------------------------------------------------------
# dispatcher deadlock fixes
# ---------------------------------------------------------------------------

def _tiny_order(n: int = 2):
    graph: DAG = DAG()
    order = []
    for i in range(n):
        subtask = Subtask([ChunkData("tensor", (1,), (i,))])
        subtask.band = f"worker-0/band-{i % 2}"
        subtask.priority = i
        graph.add_node(subtask)
        order.append(subtask)
    return graph, order


def _ok_compute(subtask, inputs):
    return SubtaskComputation({}, {}, {})


class TestDispatcherDeadlockFixes:
    def test_dead_pool_poisons_waiters_instead_of_hanging(self):
        dead_pool = ThreadPoolExecutor(max_workers=1)
        dead_pool.shutdown()
        graph, order = _tiny_order()
        dispatcher = BandDispatcher(
            graph, order, _ok_compute, fetch=lambda key: None,
            pool=dead_pool,
        )
        dispatcher.start()  # submit fails -> poisoned
        with pytest.raises(DispatcherError):
            dispatcher.wait_for(order[0].key)
        dispatcher.shutdown()  # must return promptly, not hang

    def test_stalled_graph_raises_instead_of_hanging(self):
        dispatcher = BandDispatcher(
            DAG(), [], _ok_compute, fetch=lambda key: None,
        )
        dispatcher.start()
        with pytest.raises(DispatcherError):
            dispatcher.wait_for("never-scheduled")
        dispatcher.shutdown()

    def test_stopped_dispatcher_rejects_waiters(self):
        graph, order = _tiny_order()
        dispatcher = BandDispatcher(
            graph, order, _ok_compute, fetch=lambda key: None,
        )
        dispatcher.start()
        dispatcher.wait_for(order[0].key)
        dispatcher.shutdown()
        with pytest.raises(DispatcherError):
            dispatcher.wait_for("anything-after-stop")


# ---------------------------------------------------------------------------
# executor working-set accounting (env double-count fix)
# ---------------------------------------------------------------------------

class _ConstOp(Operator):
    """Produces a fixed-size array, ignoring its inputs."""

    def __init__(self, n: int = 0, **params):
        super().__init__(n=n, **params)
        self._n = n

    def execute(self, ctx):
        return np.ones(self._n)


class TestEnvAccounting:
    def test_key_overwrite_not_double_counted(self):
        """Two ops writing the same env key must not inflate env_peak."""
        n = 25_000
        with make_session(operator_fusion=False) as session:
            op1 = _ConstOp(n)
            c1 = ChunkData("tensor", (n,), (0,), op=op1, key="dup-chunk")
            op1.inputs, op1.outputs = [], [c1]
            op2 = _ConstOp(n)
            c2 = ChunkData("tensor", (n,), (0,), op=op2, key="dup-chunk")
            op2.inputs, op2.outputs = [c1], [c2]
            subtask = Subtask([c1, c2])
            subtask.output_keys = ["dup-chunk"]
            band = session.cluster.bands[0]
            subtask.band = band.name

            recorded: list[int] = []
            tracker = session.cluster.memory[band.worker]
            original = tracker.note_transient
            tracker.note_transient = (
                lambda nbytes: (recorded.append(nbytes), original(nbytes))[1]
            )
            session.executor._run_subtask(
                subtask, _Stage(SimReport(), base_time=0.0))
            value_bytes = sizeof(np.ones(n))
            # one resident value, not two: the double-count bug reported
            # ~2x value_bytes here.
            assert recorded
            assert recorded[0] <= int(PEAK_FACTOR * value_bytes * 1.25)
