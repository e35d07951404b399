"""The service-plane acceptance suite.

Three pillars:

1. **Bit-identical reports** — every golden scenario (fault-free, seeded
   chaos, memory squeeze; serial and parallel) replays against the
   actor-plane engine and must match the pre-refactor goldens
   field-for-field (floats survive the JSON round-trip exactly, so this
   is bit equality).
2. **A real RPC trace** — a TPC-H q5 run leaves a message log whose
   sender -> recipient edges are exactly the service topology the
   architecture promises (session actor fan-out, lifecycle-owned frees,
   runner-attributed compute reads, runners alone on worker pools).
3. **Lifecycle** — sessions are thin clients holding actor refs only,
   close is idempotent and destroys the plane, and the actor system
   survives pools being stopped mid-delivery.
"""

from __future__ import annotations

import json
import threading

import pytest
from tests.core.golden_harness import (
    GOLDEN_PATH,
    WORKLOADS,
    check_fires,
    make_session,
    run_scenario,
    scenarios,
    tpch_q5,
)

from repro.actors import Actor, ActorRef
from repro.cluster.cluster import SUPERVISOR_ADDRESS
from repro.errors import ActorError, SessionError
from repro.services import (
    LIFECYCLE_UID,
    META_UID,
    SCHEDULING_UID,
    SHUFFLE_UID,
    STORAGE_UID,
    runner_uid,
    session_actor_uid,
)

with open(GOLDEN_PATH) as f:
    GOLDENS = json.load(f)


# ---------------------------------------------------------------------------
# 1. golden reports: the refactor changed no simulated number
# ---------------------------------------------------------------------------

class TestGoldenReports:
    @pytest.mark.parametrize(
        "name,spec", scenarios(), ids=[name for name, _ in scenarios()],
    )
    def test_report_bit_identical(self, name, spec):
        got = json.loads(json.dumps(run_scenario(spec)))
        check_fires(name, got)
        assert got == GOLDENS[name], (
            f"scenario {name} diverged from the pre-refactor engine"
        )


class TestOneSessionShape:
    """A session that builds its cluster and the lone tenant of a cluster
    built beside it are one shape: same simulated numbers, same faults,
    same tiling decisions — chaos included."""

    @pytest.mark.parametrize(
        "name,spec", scenarios(), ids=[name for name, _ in scenarios()],
    )
    def test_lone_tenant_reports_like_private_session(self, name, spec):
        assert run_scenario(spec, lone_tenant=True) == run_scenario(spec)


# ---------------------------------------------------------------------------
# 2. message trace: the log records the promised service topology
# ---------------------------------------------------------------------------

class TestMessageTrace:
    @pytest.fixture(scope="class")
    def q5_session(self):
        # 1/64 of the golden scenario's chunk limit: q5 reads 16 of its
        # tables' 47 columns, so at 64 KiB it is 11 subtasks and ~400
        # messages. At 1 KiB it is ~220 subtasks and ~13,000 messages —
        # more than the log's window holds, which is what the counts
        # below are about.
        with make_session(parallel=False, chunk_limit=1024) as session:
            tpch_q5(session)
            yield session

    def test_every_service_received_messages(self, q5_session):
        log = q5_session.cluster.actor_system.log
        session_uid = session_actor_uid(q5_session.session_id)
        for uid in (META_UID, STORAGE_UID, SCHEDULING_UID, LIFECYCLE_UID,
                    SHUFFLE_UID, session_uid):
            assert log.count_for(uid) > 0, f"{uid} never got a message"
        band = q5_session.cluster.bands[0].name
        assert log.count_for(runner_uid(band)) > 0

    def test_counts_consistent(self, q5_session):
        log = q5_session.cluster.actor_system.log
        snapshot = log.snapshot()
        assert snapshot["total_delivered"] == sum(
            snapshot["recipients"].values()
        )
        assert snapshot["total_delivered"] == sum(snapshot["edges"].values())
        # the engine executed hundreds of subtasks; the plane must have
        # carried over a thousand messages.
        assert snapshot["total_delivered"] > 1000

    def test_sender_recipient_edges(self, q5_session):
        """The architecture's call graph, as actually delivered."""
        edges = q5_session.cluster.actor_system.log.edges()
        session_uid = session_actor_uid(q5_session.session_id)
        band = q5_session.cluster.bands[0].name
        expected = {
            # the thin client talks to its coordinator only.
            ("<external>", session_uid),
            # the coordinator (executor inside it) fans out to services.
            (session_uid, STORAGE_UID),
            (session_uid, META_UID),
            (session_uid, SCHEDULING_UID),
            (session_uid, LIFECYCLE_UID),
            (session_uid, runner_uid(band)),
            # refcount frees go out through the lifecycle service —
            # data to storage, stale index entries to shuffle.
            (LIFECYCLE_UID, STORAGE_UID),
            (LIFECYCLE_UID, SHUFFLE_UID),
            # serial-mode compute reads are attributed to the runner.
            (runner_uid(band), STORAGE_UID),
        }
        missing = expected - edges
        assert not missing, f"missing service-plane edges: {sorted(missing)}"

    def test_client_never_calls_backends_directly(self, q5_session):
        """``<external>`` (the thin client) only reaches the session
        actor and read-only service counters — never a worker's actors."""
        edges = q5_session.cluster.actor_system.log.edges()
        system = q5_session.cluster.actor_system
        worker_uids = {
            uid for w in q5_session.cluster.workers
            for uid in system.get_pool(w.name).uids()
        }
        external = {r for s, r in edges if s == "<external>"}
        assert worker_uids and not external & worker_uids

    def test_worker_pools_hold_only_their_band_runners(self, q5_session):
        """Storage is one supervisor actor: a worker's pool holds the
        runners of that worker's bands and nothing else."""
        cluster = q5_session.cluster
        for worker in cluster.workers:
            runners = {runner_uid(band.name) for band in cluster.bands
                       if band.worker == worker.name}
            pool = cluster.actor_system.get_pool(worker.name)
            assert runners and set(pool.uids()) == runners

    def test_parallel_compute_attributed_to_band_runner(self):
        _, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(parallel=True, **overrides) as session:
            WORKLOADS["groupby_shuffle"][0](session)
            edges = session.cluster.actor_system.log.edges()
        senders = {s for s, _ in edges}
        assert "band-runner" in senders, (
            "pool-thread deliveries should carry the band-runner label"
        )
        # shuffle-map outputs register through the coordinator.
        session_uid = session_actor_uid(session.session_id)
        assert (session_uid, SHUFFLE_UID) in edges


# ---------------------------------------------------------------------------
# 3. lifecycle: thin client, idempotent close, stop_pool during delivery
# ---------------------------------------------------------------------------

class TestSessionIsThinClient:
    def test_session_holds_only_refs(self):
        with make_session() as session:
            for name in ("storage", "meta", "scheduler", "shuffle",
                         "lifecycle"):
                assert isinstance(getattr(session, name), ActorRef), (
                    f"session.{name} must be an actor ref, not a service"
                )
            assert isinstance(session._actor_ref, ActorRef)
            # no raw service object hides in the client's state.
            from repro.core.meta import MetaService
            from repro.storage.service import StorageService
            for value in vars(session).values():
                assert not isinstance(value, (StorageService, MetaService))

    def test_executor_services_are_refs(self):
        with make_session() as session:
            executor = session.executor
            assert isinstance(executor.storage, ActorRef)
            assert isinstance(executor.meta, ActorRef)
            assert isinstance(executor.scheduling, ActorRef)
            assert isinstance(executor.lifecycle, ActorRef)
            assert isinstance(executor.shuffle, ActorRef)
            assert all(
                isinstance(r, ActorRef) for r in executor.runners.values()
            )


class TestClose:
    def test_close_is_idempotent(self):
        session = make_session()
        session.close()
        session.close()
        assert session.closed

    def test_close_destroys_session_actor_and_pools(self):
        session = make_session()
        system = session.cluster.actor_system
        uid = session_actor_uid(session.session_id)
        assert system.has_actor(SUPERVISOR_ADDRESS, uid)
        session.close()
        assert not system.has_actor(SUPERVISOR_ADDRESS, uid)
        assert system.addresses() == []

    def test_del_after_close_is_silent(self):
        session = make_session()
        session.close()
        session.__del__()

    def test_del_closes_unclosed_session(self):
        session = make_session()
        system = session.cluster.actor_system
        session.__del__()
        assert session.closed
        assert system.addresses() == []

    def test_close_survives_external_shutdown(self):
        """A pool torn down behind the session's back must not make
        close raise (satellite: wire close to destroy_actor/stop_pool)."""
        session = make_session()
        session.cluster.actor_system.shutdown()
        session.close()
        assert session.closed

    def test_closed_session_rejects_fetch(self):
        import numpy as np

        from repro import frame as pf
        from repro.dataframe import from_frame
        session = make_session()
        df = from_frame(
            pf.DataFrame({"a": np.arange(8, dtype=float)}), session
        )
        df.execute()
        session.close()
        with pytest.raises(SessionError):
            session.fetch(df.data)


class _Stopper(Actor):
    """An actor that stops another pool while handling a message."""

    def stop(self, address):
        self._system.stop_pool(address)
        return "stopped"


class _Counter(Actor):
    def __init__(self):
        super().__init__()
        self.calls = 0
        self.stopped = False

    def ping(self):
        self.calls += 1
        return self.calls

    def on_stop(self):
        self.stopped = True


class TestStopPoolDuringDelivery:
    def test_stop_other_pool_mid_delivery(self):
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")
        system.create_pool("w0")
        stopper = system.create_actor("sup", _Stopper, uid="stopper")
        counter_actor = _Counter
        counter = system.create_actor("w0", counter_actor, uid="counter")
        assert counter.ping() == 1
        assert stopper.stop("w0") == "stopped"
        # the stopped pool's actors are destroyed (on_stop ran) and
        # further sends fail loudly instead of corrupting state.
        with pytest.raises(ActorError):
            counter.ping()
        assert "w0" not in system.addresses()
        # the delivering pool survives, and the log stayed consistent.
        assert system.log.count_for("stopper") == 1
        assert system.log.count_for("counter") == 1

    def test_stop_own_pool_mid_delivery(self):
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")
        stopper = system.create_actor("sup", _Stopper, uid="stopper")
        assert stopper.stop("sup") == "stopped"
        with pytest.raises(ActorError):
            stopper.stop("sup")

    def test_concurrent_delivery_sender_attribution(self):
        """Deliveries racing on two threads never cross-attribute
        senders (the thread-local current-actor fix)."""
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")

        class Relay(Actor):
            def __init__(self, target=None):
                super().__init__()
                self.target = target

            def relay(self):
                if self.target is not None:
                    return self.target.ping()
                return None

        counter = system.create_actor("sup", _Counter, uid="counter")
        relay_a = system.create_actor("sup", Relay, counter, uid="relay-a")
        relay_b = system.create_actor("sup", Relay, counter, uid="relay-b")
        errors: list[Exception] = []

        def hammer(ref):
            try:
                for _ in range(200):
                    ref.relay()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(ref,))
            for ref in (relay_a, relay_b) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        edge_counts = system.log.edge_counts()
        # every ping came from a relay; none was mis-attributed.
        assert edge_counts[("relay-a", "counter")] == 400
        assert edge_counts[("relay-b", "counter")] == 400
        assert ("<external>", "counter") not in edge_counts
