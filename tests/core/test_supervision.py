"""Supervision suite: actor restarts and the dispatcher watchdog.

The contract under test (DESIGN.md §Supervision): with scripted actor
deaths — a service actor and a band runner killed at fixed structural
points — every workload completes with results identical to a
fault-free run and ``SimReport``s bit-identical across serial and
process execution.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import frame as pf
from repro.actors import Actor, ActorSystem, Supervisor
from repro.config import Config
from repro.core import Session
from repro.core.dispatch import BandDispatcher, SubtaskComputation
from repro.core.supervision import SupervisionPlane
from repro.dataframe import from_frame
from repro.diagnostics import supervision_report
from repro.errors import ActorNotFound, DispatcherStall, RestartStorm
from repro.graph.dag import DAG
from repro.graph.entity import ChunkData
from repro.graph.subtask import Subtask
from repro.services import LIFECYCLE_UID, runner_uid


def assert_same_result(actual, expected):
    if isinstance(expected, np.ndarray):
        assert np.asarray(actual).tobytes() == expected.tobytes()
    elif hasattr(expected, "equals"):
        assert actual.equals(expected)
    else:
        assert actual == pytest.approx(expected)


def make_session(parallel: bool = False) -> Session:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = 8_000
    cfg.execution_mode = "process" if parallel else "serial"
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


MODES = [
    ("serial", {"parallel": False}),
    ("process", {"parallel": True}),
]


# ---------------------------------------------------------------------------
# scripted actor deaths: bit-identical to fault-free
# ---------------------------------------------------------------------------

class TestMessageChaosBitIdentity:
    @pytest.mark.parametrize("mode,kwargs", MODES)
    def test_groupby_with_chaos_and_deaths_matches_fault_free(
            self, mode, kwargs):
        clean = make_session(**kwargs)
        expected = groupby_workload(clean)
        baseline = report_tuple(clean)
        clean.close()

        session = make_session(**kwargs)
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

    def test_probe_respawns_dead_actors_and_counts_by_kind(self):
        system = ActorSystem()
        system.create_pool("pool-a")
        plane = SupervisionPlane(system)
        system.supervisor = plane.supervisor
        for uid, kind in (("svc", "service"), ("runner", "runner")):
            system.create_actor("pool-a", _Counter, uid=uid)
            plane.supervisor.register("pool-a", uid,
                                      lambda: (_Counter, (), {}), kind=kind)
        plane.probe()   # everything alive: nothing restarts
        assert plane.runner_restarts == plane.service_restarts == 0
        plane.kill("svc")
        plane.kill("runner")
        plane.probe()   # no delivery in between: the sweep respawns both
        assert plane.runner_restarts == 1
        assert plane.service_restarts == 1
        assert system.has_actor("pool-a", "runner")
        assert system.has_actor("pool-a", "svc")


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
# supervision accounting + diagnostics surface
# ---------------------------------------------------------------------------

class TestChaosAccounting:
    def test_supervision_report_renders(self):
        session = make_session()
        groupby_workload(session)
        text = supervision_report(session)
        assert "actor supervision:" in text
        assert "supervised actors:" in text
        assert "runner restarts:" in text
        assert "heartbeat" not in text
        assert "message chaos" not in text
        session.close()

    def test_fault_free_run_has_zero_chaos_counters(self):
        session = make_session()
        groupby_workload(session)
        snap = session.cluster.supervision.snapshot()
        assert snap["supervisor"]["total_restarts"] == 0
        assert snap["supervisor"]["total_kills"] == 0
        assert snap["runner_restarts"] == snap["service_restarts"] == 0
        session.close()
