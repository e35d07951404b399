"""Supervision suite: actor restarts, heartbeats, message chaos.

The contract under test (DESIGN.md §Supervision): with message-level
chaos at realistic rates — seeded drop/delay/duplicate faults on the
batched data-plane endpoints — plus scripted actor deaths, every
workload completes with results identical to a fault-free run and
``SimReport``s bit-identical across serial and process execution.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro import frame as pf
from repro.actors import Actor, ActorSystem, MessageChaos, Supervisor
from repro.cluster.cluster import ClusterState
from repro.config import Config, MessageFaultSpec
from repro.core import Session
from repro.core.dispatch import BandDispatcher, SubtaskComputation
from repro.core.supervision import HealthMonitor
from repro.dataframe import from_frame
from repro.diagnostics import supervision_report
from repro.errors import ActorNotFound, DispatcherStall, RestartStorm
from repro.graph.dag import DAG
from repro.graph.entity import ChunkData
from repro.graph.subtask import Subtask
from repro.services import LIFECYCLE_UID, runner_uid
from repro.storage.service import StorageService
from repro.storage.shuffle import ShuffleManager
from repro.utils import DedupLog
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize

CHAOS_SEED = 20240806


def assert_same_result(actual, expected):
    if isinstance(expected, np.ndarray):
        assert np.asarray(actual).tobytes() == expected.tobytes()
    elif hasattr(expected, "equals"):
        assert actual.equals(expected)
    else:
        assert actual == pytest.approx(expected)


def make_session(parallel: bool = False, chunk_limit: int = 8_000,
                 message_faults: dict | None = None,
                 **overrides) -> Session:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = "process" if parallel else "serial"
    for name, value in (message_faults or {}).items():
        setattr(cfg.message_faults, name, value)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.n_subtasks,
        report.n_graph_nodes,
        report.retries,
        report.recomputed_subtasks,
        report.recovery_bytes,
        report.backoff_time,
        dict(report.peak_memory),
        dict(report.band_busy),
    )


def groupby_workload(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def tpch_q1_workload(session: Session):
    tables = generate_tables(sf=0.1, seed=7)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES["q1"](handles))


MODES = [
    ("serial", {"parallel": False}),
    ("process", {"parallel": True}),
]

CHAOS_RATES = {
    "seed": CHAOS_SEED,
    "drop_rate": 0.02,
    "delay_rate": 0.02,
    "duplicate_rate": 0.02,
}


# ---------------------------------------------------------------------------
# DedupLog: the at-least-once memo every batched endpoint rides on
# ---------------------------------------------------------------------------

class TestDedupLog:
    def test_none_token_is_never_deduplicated(self):
        log = DedupLog()
        assert log.check(None) == (False, None)
        log.record(None, "x")
        assert log.check(None) == (False, None)

    def test_second_check_returns_memo(self):
        log = DedupLog()
        token = ("session-1", 42)
        assert log.check(token) == (False, None)
        log.record(token, [1, 2, 3])
        assert log.check(token) == (True, [1, 2, 3])
        assert log.suppressed == 1

    def test_capacity_evicts_oldest(self):
        log = DedupLog(capacity=2)
        for i in range(3):
            log.record(("t", i), i)
        assert log.check(("t", 0)) == (False, None)  # evicted
        assert log.check(("t", 2)) == (True, 2)


# ---------------------------------------------------------------------------
# idempotent endpoints: duplicates leave service state byte-identical
# ---------------------------------------------------------------------------

class _FakeSubtask:
    """Duck-typed stand-in for lifecycle's finish_subtask path."""

    def __init__(self, input_keys, output_keys):
        self.input_keys = list(input_keys)
        self.output_keys = list(output_keys)
        # one operator reading every input (the lifecycle epilogue
        # retires a subtask's operators as readers of their inputs).
        self.chunks = [SimpleNamespace(
            op=object(),
            inputs=[SimpleNamespace(key=key) for key in input_keys])]
        self.stage_index = 0
        self.priority = 0


class TestIdempotentEndpoints:
    def _storage(self):
        cfg = Config()
        cluster = ClusterState(cfg)
        return cluster, StorageService(cluster, cfg)

    def test_put_many_duplicate_leaves_bytes_identical(self):
        cluster, storage = self._storage()
        worker = cluster.workers[0].name
        entries = [("a", np.arange(8.0), None), ("b", np.ones(4), None)]
        token = ("session-1", 1)
        sizes = storage.put_many(entries, worker, dedup_token=token)
        used_after_first = cluster.memory[worker].used
        again = storage.put_many(entries, worker, dedup_token=token)
        assert again == sizes
        assert cluster.memory[worker].used == used_after_first
        assert sorted(storage.all_keys()) == ["a", "b"]
        np.testing.assert_array_equal(storage.peek("a"), np.arange(8.0))
        cluster.shutdown()

    def test_put_many_fresh_token_applies_again(self):
        cluster, storage = self._storage()
        worker = cluster.workers[0].name
        entries = [("a", np.arange(8.0), None)]
        storage.put_many(entries, worker, dedup_token=("s", 1))
        # a retry mints a *new* token: the re-put must actually run.
        storage.delete("a")
        storage.put_many(entries, worker, dedup_token=("s", 2))
        assert storage.contains("a")
        cluster.shutdown()

    def test_register_partitions_duplicate_keeps_index_size(self):
        cluster, storage = self._storage()
        worker = cluster.workers[0].name
        manager = ShuffleManager(storage)
        storage.put("shuffle:s1:0:0", np.ones(4), worker)
        entries = [("s1", 0, 0, "shuffle:s1:0:0", worker, 32)]
        token = ("session-1", 7)
        manager.register_partitions(entries, dedup_token=token)
        size = manager.index_size()
        manager.register_partitions(entries, dedup_token=token)
        assert manager.index_size() == size
        assert manager.mapper_count("s1") == 1
        cluster.shutdown()

    def test_finish_subtask_duplicate_does_not_double_release(self):
        from repro.services.cache import ResultCacheService
        from repro.services.lifecycle import LifecycleService

        cluster, storage = self._storage()
        worker = cluster.workers[0].name
        lifecycle = LifecycleService(
            storage, ShuffleManager(storage), Config(),
            ResultCacheService(storage, Config()))
        storage.put("in-a", np.ones(4), worker)
        # two consumers hold the input; one finish releases one of them.
        lifecycle.begin_stage({"in-a": 2}, "session-1")
        subtask = _FakeSubtask(["in-a"], ["out-a"])
        token = ("session-1", 3)
        freed = lifecycle.finish_subtask(subtask, "session-1",
                                         dedup_token=token)
        assert freed == []
        # duplicate delivery: must NOT burn the second consumer's ref.
        assert lifecycle.finish_subtask(
            subtask, "session-1", dedup_token=token) == []
        assert storage.contains("in-a")
        # the genuinely distinct second finish drops it to zero.
        freed = lifecycle.finish_subtask(
            _FakeSubtask(["in-a"], ["out-b"]), "session-1",
            dedup_token=("session-1", 4))
        assert freed == ["in-a"]
        cluster.shutdown()

    def test_cache_record_many_duplicate_keeps_directory(self):
        from repro.services.cache import ResultCacheService

        cluster, storage = self._storage()
        worker = cluster.workers[0].name
        cfg = Config()
        cfg.result_cache_budget = 10**9
        cache = ResultCacheService(storage, cfg)
        storage.put("c-1", np.ones(8), worker)
        entries = [("ident-1", "c-1", 64, False)]
        token = ("session-1", 9)
        evicted = cache.record_many(entries, "session-1", dedup_token=token)
        snap = cache.stats_snapshot()
        assert cache.record_many(entries, "session-1",
                                 dedup_token=token) == evicted
        again = cache.stats_snapshot()
        assert again["entries"] == snap["entries"] == 1
        assert again["bytes_cached"] == snap["bytes_cached"]
        cluster.shutdown()

    @pytest.mark.parametrize("mode,kwargs", MODES)
    def test_full_duplication_is_invisible_end_to_end(self, mode, kwargs):
        """duplicate_rate=1.0: every tokened message lands twice."""
        clean = make_session(**kwargs)
        expected = groupby_workload(clean)
        baseline = report_tuple(clean)
        clean.close()

        noisy = make_session(
            message_faults={"seed": CHAOS_SEED, "duplicate_rate": 1.0},
            **kwargs)
        result = groupby_workload(noisy)
        chaos = noisy.cluster.actor_system.chaos
        assert chaos is not None and chaos.duplicated > 0
        assert report_tuple(noisy) == baseline
        noisy.close()
        assert_same_result(result, expected)


# ---------------------------------------------------------------------------
# message chaos + scripted actor deaths: bit-identical to fault-free
# ---------------------------------------------------------------------------

class TestMessageChaosBitIdentity:
    @pytest.mark.parametrize("mode,kwargs", MODES)
    def test_groupby_with_chaos_and_deaths_matches_fault_free(
            self, mode, kwargs):
        clean = make_session(**kwargs)
        expected = groupby_workload(clean)
        baseline = report_tuple(clean)
        clean.close()

        session = make_session(message_faults=dict(CHAOS_RATES), **kwargs)
        # one service-actor kill and one runner death, at fixed
        # structural points on the accounting walk.
        band = session.cluster.bands[0].name
        session.faults.script_actor_kill(0, 0, LIFECYCLE_UID)
        session.faults.script_actor_kill(0, 1, runner_uid(band))
        result = groupby_workload(session)
        assert report_tuple(session) == baseline
        plane = session.cluster.supervision
        assert plane.supervisor.total_kills == 2
        assert plane.supervisor.total_restarts >= 2
        session.close()
        assert_same_result(result, expected)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_tpch_q1_with_chaos_matches_fault_free(self, parallel):
        clean = make_session(parallel=parallel, chunk_limit=64 * 1024)
        expected = tpch_q1_workload(clean)
        baseline = report_tuple(clean)
        clean.close()

        session = make_session(parallel=parallel, chunk_limit=64 * 1024,
                               message_faults=dict(CHAOS_RATES))
        result = tpch_q1_workload(session)
        assert report_tuple(session) == baseline
        session.close()
        assert_same_result(result, expected)

    def test_chaos_modes_agree_with_each_other(self):
        reports = []
        fired = []
        for _, kwargs in MODES:
            session = make_session(
                message_faults=dict(CHAOS_RATES), **kwargs)
            band = session.cluster.bands[0].name
            session.faults.script_actor_kill(0, 0, runner_uid(band))
            groupby_workload(session)
            reports.append(report_tuple(session))
            # the same messages fault in every mode: drops/delays/
            # duplicates are drawn from accounting-walk sequence
            # numbers, not delivery interleaving or session history.
            fired.append(session.cluster.actor_system.chaos.snapshot())
            session.close()
        assert reports[0] == reports[1]
        assert fired[0] == fired[1]


# ---------------------------------------------------------------------------
# supervisor: kill, lazy restart, restart storms
# ---------------------------------------------------------------------------

class _Counter(Actor):
    """Tiny stateful actor: restart resets its private count."""

    def __init__(self, start: int = 0):
        super().__init__()
        self.count = start

    def bump(self) -> int:
        self.count += 1
        return self.count


class TestSupervisor:
    def _system(self, restart_limit: int = 5):
        system = ActorSystem()
        system.create_pool("pool-a")
        supervisor = Supervisor(system, restart_limit=restart_limit)
        system.supervisor = supervisor
        return system, supervisor

    def test_deliver_to_killed_actor_restarts_transparently(self):
        system, supervisor = self._system()
        ref = system.create_actor("pool-a", _Counter, 10, uid="counter")
        supervisor.register("pool-a", "counter",
                            lambda: (_Counter, (10,), {}))
        assert ref.bump() == 11
        assert supervisor.kill("counter")
        # next delivery resurrects the actor from its factory.
        assert ref.bump() == 11
        assert supervisor.restarts_of("counter") == 1
        assert supervisor.total_kills == 1

    def test_unsupervised_actor_raises_actor_not_found(self):
        system, _ = self._system()
        ref = system.create_actor("pool-a", _Counter, uid="plain")
        system.destroy_actor("pool-a", "plain")
        with pytest.raises(ActorNotFound) as exc_info:
            ref.bump()
        assert exc_info.value.uid == "plain"

    def test_stopped_pool_raises_actor_not_found(self):
        system, _ = self._system()
        ref = system.create_actor("pool-a", _Counter, uid="plain")
        system.stop_pool("pool-a")
        with pytest.raises(ActorNotFound):
            ref.bump()

    def test_restart_storm_raises_typed_error(self):
        system, supervisor = self._system(restart_limit=2)
        ref = system.create_actor("pool-a", _Counter, uid="flappy")
        supervisor.register("pool-a", "flappy", lambda: (_Counter, (), {}))
        for _ in range(2):
            supervisor.kill("flappy")
            ref.bump()  # lazy restart
        supervisor.kill("flappy")
        with pytest.raises(RestartStorm):
            ref.bump()

    def test_kill_unknown_uid_raises(self):
        _, supervisor = self._system()
        with pytest.raises(ActorNotFound):
            supervisor.kill("never-registered")


# ---------------------------------------------------------------------------
# health monitor: expectation leases on the virtual clock
# ---------------------------------------------------------------------------

class TestHealthMonitor:
    def test_idle_uid_is_never_overdue(self):
        health = HealthMonitor(interval=1.0, miss_limit=3)
        health.watch("runner:band-0")
        assert health.overdue(now=1000.0) == []

    def test_armed_expectation_goes_overdue(self):
        health = HealthMonitor(interval=1.0, miss_limit=3)
        health.watch("runner:band-0")
        health.expect("runner:band-0", now=5.0)
        assert health.overdue(now=8.0) == []        # exactly at the lease
        assert health.overdue(now=8.5) == ["runner:band-0"]

    def test_beat_clears_the_lease(self):
        health = HealthMonitor(interval=1.0, miss_limit=3)
        health.expect("uid", now=5.0)
        health.beat("uid", now=6.0)
        assert health.overdue(now=100.0) == []
        assert health.last_beat("uid") == 6.0

    def test_declare_dead_disarms_and_counts(self):
        health = HealthMonitor(interval=1.0, miss_limit=1)
        health.expect("uid", now=0.0)
        health.declare_dead("uid", now=10.0)
        assert health.overdue(now=100.0) == []
        assert health.deaths_declared == 1

    def test_disabled_monitor_never_flags(self):
        health = HealthMonitor(interval=0.0, miss_limit=3)
        health.expect("uid", now=0.0)
        assert not health.enabled
        assert health.overdue(now=1e9) == []

    def test_probe_restarts_wedged_runner(self):
        system = ActorSystem()
        system.create_pool("worker-0")
        from repro.core.supervision import SupervisionPlane

        cfg = Config()
        cfg.heartbeat_interval = 1.0
        cfg.heartbeat_miss_limit = 2
        plane = SupervisionPlane(system, cfg)
        system.supervisor = plane.supervisor
        system.create_actor("worker-0", _Counter, uid="runner:b0")
        plane.register_runner("b0", "worker-0", "runner:b0",
                              lambda: (_Counter, (), {}))
        plane.expect_runner("b0", now=0.0)
        restarted = plane.probe(now=10.0)   # lease (2.0s) long expired
        assert restarted == ["runner:b0"]
        assert plane.runner_restarts == 1
        assert plane.health.deaths_declared == 1
        # the replacement is live and healthy.
        assert system.actor_ref("worker-0", "runner:b0").bump() == 1
        assert plane.probe(now=10.5) == []

    @pytest.mark.parametrize("parallel", [False, True])
    def test_healthy_runners_beat_and_are_never_killed(self, parallel):
        """Regression: completions must clear the band's lease.

        The executor used to beat with the ``Band`` object while leases
        are keyed by band *name*, so no beat ever landed: every armed
        lease expired and healthy runners were killed and respawned
        until ``RestartStorm``. The lease here (3e-4 virtual seconds) is
        far shorter than one multi-stage query, so a missed beat shows
        up as a kill at the very next stage boundary.
        """
        with make_session(parallel=parallel, chunk_limit=4_000,
                          heartbeat_interval=1e-4) as session:
            for _ in range(8):
                groupby_workload(session)
            assert session.last_report.makespan > 3e-4
            snap = session.cluster.supervision.snapshot()
        assert snap["health"]["armed"] == 0
        assert snap["health"]["deaths_declared"] == 0
        assert snap["supervisor"]["total_restarts"] == 0
        assert snap["supervisor"]["total_kills"] == 0


# ---------------------------------------------------------------------------
# dispatcher watchdog: typed stall instead of silent re-wait
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


class TestDispatcherStall:
    def test_wedged_compute_raises_dispatcher_stall(self):
        release = threading.Event()
        graph, order = _tiny_order(1)

        def blocked_compute(subtask, inputs):
            release.wait(timeout=30.0)
            return SubtaskComputation({}, {}, {})

        pool = ThreadPoolExecutor(max_workers=1)
        dispatcher = BandDispatcher(
            graph, order, blocked_compute, fetch=lambda keys: {},
            pool=pool, watchdog=0.05,
        )
        dispatcher.start()
        try:
            with pytest.raises(DispatcherStall) as exc_info:
                dispatcher.wait_for(order[0].key)
            stall = exc_info.value
            assert stall.key == order[0].key
            assert stall.inflight == 1
            assert stall.waited >= 0.1
        finally:
            release.set()
            dispatcher.shutdown()
            pool.shutdown(wait=True)

    def test_watchdog_windows_reset_on_progress(self):
        graph, order = _tiny_order(2)
        dispatcher = BandDispatcher(
            graph, order, lambda s, i: SubtaskComputation({}, {}, {}),
            fetch=lambda keys: {}, watchdog=0.2,
        )
        dispatcher.start()
        for subtask in order:
            assert dispatcher.wait_for(subtask.key) is not None
        dispatcher.shutdown()


# ---------------------------------------------------------------------------
# chaos accounting + diagnostics surface
# ---------------------------------------------------------------------------

class TestChaosAccounting:
    def test_chaos_draws_are_seed_deterministic(self):
        spec = MessageFaultSpec(seed=1, drop_rate=0.5, delay_rate=0.5,
                                duplicate_rate=0.5)
        one = MessageChaos(spec)
        two = MessageChaos(spec)
        tokens = [("s", i) for i in range(64)]
        plans_one = [one.plan("put_many", t) for t in tokens]
        plans_two = [two.plan("put_many", t) for t in tokens]
        assert plans_one == plans_two
        assert one.total_fired > 0

    def test_chaos_disabled_at_zero_rates(self):
        chaos = MessageChaos(MessageFaultSpec())
        assert not chaos.enabled

    def test_supervision_report_renders(self):
        session = make_session(
            message_faults={"seed": 1, "duplicate_rate": 0.02})
        groupby_workload(session)
        text = supervision_report(session)
        assert "actor supervision:" in text
        assert "supervised actors:" in text
        assert "message chaos:" in text
        session.close()

    def test_fault_free_run_has_zero_chaos_counters(self):
        session = make_session()
        groupby_workload(session)
        chaos = session.cluster.actor_system.chaos
        assert chaos is not None
        assert chaos.total_fired == 0
        plane = session.cluster.supervision
        assert plane.supervisor.total_restarts == 0
        assert plane.health.deaths_declared == 0
        session.close()
