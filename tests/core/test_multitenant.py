"""Multi-tenant serving plane: N sessions on one shared cluster.

Covers concurrent sessions against cluster-scoped service singletons
(one turnstile lock per cluster, scoped faults)
and the session-isolation bugfixes that make it safe:

- atomic session-id allocation under concurrent ``Session()`` calls;
- ``close()`` waiting for in-flight ``execute()`` instead of destroying
  the session actor mid-run (typed :class:`SessionError` afterwards);
- synchronized default-session init (concurrent double-init never leaks
  a live actor plane);
- session-namespaced runtime keys (no cross-session storage/shuffle
  collisions);
- cross-session result-cache isolation: one tenant's ``free()``/chunk
  loss never drops another tenant's still-valid entries, and explicit
  ``.cache()`` pins survive a neighbour's chaos.
"""

from __future__ import annotations

import threading
from unittest import mock

import numpy as np
import pytest

import repro
from repro import frame as pf
from repro.cluster.cluster import ClusterState
from repro.config import Config
from repro.core import Session
from repro.core.session import SessionError
from repro.dataframe import from_frame
from repro.services.lifecycle import LifecycleService
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize

from .golden_harness import CHAOS

KiB = 1024


def make_config(**overrides) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 4_000
    cfg.parallel_execution = False
    cfg.result_cache = True
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def groupby_frame(seed: int = 11, n: int = 2_000) -> pf.DataFrame:
    rng = np.random.default_rng(seed)
    return pf.DataFrame({
        "k": rng.integers(0, 100, n),
        "v": rng.normal(size=n),
    })


def run_groupby(session: Session, seed: int = 11, cache: bool = False):
    df = from_frame(groupby_frame(seed), session)
    agg = df.groupby("k").agg({"v": "sum"})
    if cache:
        agg = agg.cache()
    return agg, agg.fetch()


def run_tpch(session: Session, tables, name: str):
    handles = {
        tname: from_frame(frame, session) for tname, frame in tables.items()
    }
    return materialize(ALL_QUERIES[name](handles))


# ---------------------------------------------------------------------------
# satellite: atomic session-id allocation
# ---------------------------------------------------------------------------

class TestSessionIdAllocation:
    def test_concurrent_sessions_get_unique_ids(self):
        cluster = ClusterState(make_config())
        sessions: list[Session] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            s = Session(cluster=cluster)
            with lock:
                sessions.append(s)

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            ids = [s.session_id for s in sessions]
            assert len(set(ids)) == len(ids) == 8
        finally:
            for s in sessions:
                s.close()
            cluster.shutdown()

    def test_counter_race_is_atomic(self):
        # hammer the raw counter path (what Session.__init__ uses) from
        # many threads; without the lock this loses increments.
        before = Session._counter
        barrier = threading.Barrier(16)

        def bump():
            barrier.wait()
            for _ in range(200):
                with Session._counter_lock:
                    Session._counter += 1

        threads = [threading.Thread(target=bump) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert Session._counter == before + 16 * 200


# ---------------------------------------------------------------------------
# satellite: close() vs in-flight execute()
# ---------------------------------------------------------------------------

class TestCloseVsExecute:
    def test_close_waits_for_inflight_execute(self):
        session = Session(make_config())
        started = threading.Event()
        release = threading.Event()
        outcome: dict = {}

        def hold_first_subtask(subtask, attempt) -> bool:
            started.set()
            release.wait(timeout=60)
            return False  # never inject a fault, just stall the run

        session.faults.on_compute(hold_first_subtask)

        df = from_frame(groupby_frame(), session)
        agg = df.groupby("k").agg({"v": "sum"})

        def run():
            try:
                outcome["value"] = session.execute(agg.data)
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                outcome["error"] = exc

        worker = threading.Thread(target=run)
        worker.start()
        assert started.wait(timeout=30)
        closer = threading.Thread(target=session.close)
        closer.start()
        # the run is mid-flight and held; close must wait, not destroy
        # the session actor under it.
        assert not closer.join(timeout=0.3) and closer.is_alive()
        assert not session.closed
        release.set()
        worker.join(timeout=60)
        closer.join(timeout=60)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["value"] is not None
        assert session.closed

    def test_execute_after_close_raises_session_error(self):
        session = Session(make_config())
        df = from_frame(groupby_frame(), session)
        session.close()
        with pytest.raises(SessionError):
            session.execute(df.data)
        with pytest.raises(SessionError):
            session.fetch(df.data)

    def test_execute_while_closing_raises_session_error(self):
        session = Session(make_config())
        session._closing = True
        df_data = from_frame(groupby_frame(), session).data
        with pytest.raises(SessionError):
            session.execute(df_data)
        session._closing = False
        session.close()

    def test_close_is_idempotent(self):
        session = Session(make_config())
        session.close()
        session.close()
        assert session.closed


# ---------------------------------------------------------------------------
# satellite: synchronized default-session init
# ---------------------------------------------------------------------------

class TestDefaultSessionInit:
    def test_concurrent_init_leaves_one_live_session(self):
        repro.shutdown()
        barrier = threading.Barrier(6)
        created: list[Session] = []
        lock = threading.Lock()

        def init():
            barrier.wait()
            s = repro.init(make_config())
            with lock:
                created.append(s)

        threads = [threading.Thread(target=init) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            live = [s for s in created if not s.closed]
            # every loser was closed before its successor was installed;
            # exactly the installed default survives.
            assert len(live) == 1
            assert repro.get_default_session() is live[0]
        finally:
            repro.shutdown()

    def test_repeated_init_closes_previous_default(self):
        repro.shutdown()
        first = repro.init(make_config())
        second = repro.init(make_config())
        try:
            assert first.closed
            assert not second.closed
            assert repro.get_default_session() is second
        finally:
            repro.shutdown()


# ---------------------------------------------------------------------------
# satellite: session-namespaced runtime keys
# ---------------------------------------------------------------------------

class TestKeyNamespacing:
    def test_runtime_keys_carry_session_prefix(self):
        # distinct workloads and no cache: a cross-tenant cache hit
        # would (correctly) rewire b's terminals to a's stored chunks.
        cluster = ClusterState(make_config(result_cache=False))
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            agg_a, _ = run_groupby(a, seed=3)
            agg_b, _ = run_groupby(b, seed=23)
            keys_a = {c.key for c in agg_a.data.chunks}
            keys_b = {c.key for c in agg_b.data.chunks}
            assert all(k.startswith(f"{a.session_id}/") for k in keys_a)
            assert all(k.startswith(f"{b.session_id}/") for k in keys_b)
            assert not keys_a & keys_b
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_free_and_retile_only_touch_own_chunks(self):
        cluster = ClusterState(make_config())
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            agg_a, val_a = run_groupby(a)
            agg_b, val_b = run_groupby(b, seed=23)
            b_keys = [c.key for c in agg_b.data.chunks]
            a.free(agg_a.data)
            # b's chunks are untouched by a's free
            assert not b.storage.missing_keys(b_keys)
            assert repr(b.fetch(agg_b.data)) == repr(val_b)
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_close_drops_only_own_keys(self):
        cluster = ClusterState(make_config(result_cache=False))
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            run_groupby(a)
            agg_b, val_b = run_groupby(b, seed=23)
            a_prefix = f"{a.session_id}/"
            a.close()
            remaining = b.storage.all_keys()
            assert not any(k.startswith(a_prefix) for k in remaining)
            assert repr(b.fetch(agg_b.data)) == repr(val_b)
        finally:
            if not a.closed:
                a.close()
            b.close()
            cluster.shutdown()


# ---------------------------------------------------------------------------
# satellite: cross-session cache isolation
# ---------------------------------------------------------------------------

class TestCacheIsolation:
    def test_cross_tenant_cache_hits(self):
        """The shared-cache payoff: tenant B reuses tenant A's results."""
        cluster = ClusterState(make_config())
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            _, val_a = run_groupby(a)
            _, val_b = run_groupby(b)
            assert repr(val_a) == repr(val_b)
            assert b.last_report.cache_hit_chunks > 0
            assert b.last_report.cache_reused_bytes > 0
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_tenant_free_does_not_evict_other_tenants_entries(self):
        cluster = ClusterState(make_config())
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            agg_a, _ = run_groupby(a, seed=3)
            agg_b, val_b = run_groupby(b, seed=23)
            a.free(agg_a.data)
            # b's warm re-run still hits: a's scoped invalidation never
            # walked b's entries.
            _, val_b2 = run_groupby(b, seed=23)
            assert repr(val_b2) == repr(val_b)
            assert b.last_report.cache_hit_chunks > 0
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_chunk_loss_invalidation_is_scoped(self):
        cluster = ClusterState(make_config())
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            agg_b, val_b = run_groupby(b, seed=23)
            # a loses a chunk mid-run (scripted chaos on a's injector
            # only) — recovery replays it; b's cache entries survive.
            a.faults.script_chunk_loss(0, 0)
            _, val_a = run_groupby(a, seed=3)
            assert val_a is not None
            assert any(e.point == "chunk_loss" for e in a.faults.events)
            _, val_b2 = run_groupby(b, seed=23)
            assert repr(val_b2) == repr(val_b)
            assert b.last_report.cache_hit_chunks > 0
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_explicit_pins_survive_neighbour_memory_squeeze(self):
        cluster = ClusterState(make_config())
        b = Session(cluster=cluster)
        squeezer = Session(cluster=cluster)
        try:
            agg_b, val_b = run_groupby(b, seed=23, cache=True)
            pinned = [c.key for c in agg_b.data.chunks]
            squeezer.faults.script_memory_squeeze(0, 0, factor=0.2)
            run_groupby(squeezer, seed=3)
            # b's pinned chunks are still materialized and still hit.
            assert not b.storage.missing_keys(pinned)
            _, val_b2 = run_groupby(b, seed=23, cache=True)
            assert repr(val_b2) == repr(val_b)
            assert b.last_report.cache_hit_chunks > 0
        finally:
            b.close()
            squeezer.close()
            cluster.shutdown()


# ---------------------------------------------------------------------------
# the turnstile: one reentrant lock per cluster
# ---------------------------------------------------------------------------

class TestTurnstile:
    def test_nested_turn_by_holder_does_not_block(self):
        # fetch-time recovery runs a stage inside a turn its session
        # already holds: the holder's nested turns must go straight in.
        cluster = ClusterState(make_config(result_cache=False))
        a = Session(cluster=cluster)
        out: dict = {}

        def run_holding_turn():
            with cluster.turnstile:
                _, out["value"] = run_groupby(a)

        t = threading.Thread(target=run_holding_turn, daemon=True)
        t.start()
        t.join(timeout=60)
        # a blocked holder never returns: fail instead of closing under it
        assert not t.is_alive(), "the holder blocked on its own turn"
        try:
            assert out["value"] is not None
        finally:
            a.close()
            cluster.shutdown()

    def test_second_tenant_stage_waits_for_first_to_release(self):
        cluster = ClusterState(make_config(result_cache=False))
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        a_holds = threading.Event()
        release = threading.Event()
        b_computed = threading.Event()
        out: dict = {}

        def stall_first_subtask(subtask, attempt) -> bool:
            a_holds.set()
            release.wait(timeout=60)
            return False

        def note_compute(subtask, attempt) -> bool:
            b_computed.set()
            return False

        a.faults.on_compute(stall_first_subtask)
        b.faults.on_compute(note_compute)

        def run(name, session, seed):
            _, out[name] = run_groupby(session, seed=seed)

        ta = threading.Thread(target=run, args=("a", a, 3), daemon=True)
        tb = threading.Thread(target=run, args=("b", b, 23), daemon=True)
        ta.start()
        assert a_holds.wait(timeout=30)
        tb.start()
        # a holds its turn mid-stage: b's stage may not start.
        b_ran_early = b_computed.wait(timeout=0.3)
        release.set()
        ta.join(timeout=60)
        tb.join(timeout=60)
        assert not ta.is_alive() and not tb.is_alive()
        try:
            assert not b_ran_early
            assert out["a"] is not None and out["b"] is not None
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_close_waits_for_the_turnstile(self):
        # detach edits service state a neighbour's stage writes too (its
        # terminal flags, its stored chunks): it takes the turnstile.
        cluster = ClusterState(make_config(result_cache=False))
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        turnstile = cluster.turnstile
        held, release, blocked = (threading.Event() for _ in range(3))

        class Watched:
            """The turnstile, noting a thread that has to wait for it."""

            def __enter__(self):
                if not turnstile.acquire(blocking=False):
                    blocked.set()
                    turnstile.acquire()

            def __exit__(self, *exc):
                turnstile.release()

        def hold():
            with turnstile:
                held.set()
                release.wait(timeout=60)

        services = []
        drop_session = LifecycleService.drop_session

        def dropping(service, session):
            services.append(service)
            return drop_session(service, session)

        holder = threading.Thread(target=hold, daemon=True)
        closer = threading.Thread(target=a.close, daemon=True)
        try:
            run_groupby(a)
            agg_b, val_b = run_groupby(b, seed=23)
            prefix = f"{a.session_id}/"
            assert any(k.startswith(prefix) for k in b.storage.all_keys())
            with mock.patch.object(cluster, "turnstile", Watched()), \
                    mock.patch.object(LifecycleService, "drop_session",
                                      dropping):
                holder.start()
                assert held.wait(timeout=30)
                closer.start()
                assert blocked.wait(timeout=30)
                # the closer waits on a lock the holder has not let go of
                assert closer.is_alive() and not services
                release.set()
                holder.join(timeout=60)
                closer.join(timeout=60)
            assert not holder.is_alive() and not closer.is_alive()
            (lifecycle,) = services
            assert a.session_id not in lifecycle._scopes
            assert not any(k.startswith(prefix) for k in lifecycle._terminal)
            assert not any(k.startswith(prefix) for k in b.storage.all_keys())
            assert repr(b.fetch(agg_b.data)) == repr(val_b)
        finally:
            release.set()
            if not a.closed:
                a.close()
            b.close()
            cluster.shutdown()


# ---------------------------------------------------------------------------
# concurrency, bit-identity
# ---------------------------------------------------------------------------

class TestSharedClusterExecution:
    def test_concurrent_sessions_match_solo_results(self):
        tables = generate_tables(sf=0.2, seed=7)
        names = ["q1", "q6", "q1", "q6"]
        reference = {}
        for name in set(names):
            with Session(make_config(chunk_store_limit=64 * KiB)) as solo:
                reference[name] = repr(run_tpch(solo, tables, name))

        cluster = ClusterState(make_config(chunk_store_limit=64 * KiB))
        results: dict[int, tuple[str, str]] = {}
        errors: list = []

        def work(i: int, name: str):
            s = Session(cluster=cluster)
            try:
                results[i] = (name, repr(run_tpch(s, tables, name)))
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)
            finally:
                s.close()

        threads = [
            threading.Thread(target=work, args=(i, name))
            for i, name in enumerate(names)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cluster.shutdown()
        assert not errors, errors
        assert len(results) == len(names)
        for name, value in results.values():
            assert value == reference[name]

    def test_chaos_tenant_is_isolated_and_bit_identical(self):
        tables = generate_tables(sf=0.2, seed=7)
        with Session(make_config(chunk_store_limit=64 * KiB)) as solo:
            ref_clean = repr(run_tpch(solo, tables, "q6"))
        chaos_cfg = make_config(chunk_store_limit=64 * KiB)
        for name, value in CHAOS.items():
            setattr(chaos_cfg.faults, name, value)

        def recovery(session: Session) -> int:
            return (session.last_report.retries
                    + session.last_report.recomputed_subtasks)

        def events(session: Session) -> list[tuple]:
            return [(e.point, e.stage, e.priority)
                    for e in session.faults.events]

        # q1 at this size is a handful of subtasks the seeded rates never
        # hit: kill the worker under the first one, so there is recovery
        # to compare.
        with Session(chaos_cfg) as solo_chaos:
            solo_chaos.faults.script_worker_kill(0, 0)
            ref_chaos = repr(run_tpch(solo_chaos, tables, "q1"))
            solo_chaos_retries = recovery(solo_chaos)
            solo_events = events(solo_chaos)
        assert solo_events and solo_chaos_retries >= 1

        cluster = ClusterState(make_config(chunk_store_limit=64 * KiB))
        chaos = Session(chaos_cfg, cluster=cluster)
        chaos.faults.script_worker_kill(0, 0)
        clean = Session(cluster=cluster)
        out: dict = {}

        def run_chaos():
            out["chaos"] = repr(run_tpch(chaos, tables, "q1"))
            out["chaos_retries"] = recovery(chaos)
            out["chaos_events"] = events(chaos)

        def run_clean():
            out["clean"] = repr(run_tpch(clean, tables, "q6"))
            out["clean_retries"] = recovery(clean)
            out["clean_events"] = events(clean)

        t1 = threading.Thread(target=run_chaos)
        t2 = threading.Thread(target=run_clean)
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        chaos.close()
        clean.close()
        cluster.shutdown()

        # the chaos tenant recovers to the same value its solo chaos run
        # produced, with the same fault draws (structural identities).
        assert out["chaos"] == ref_chaos
        assert out["chaos_events"] == solo_events
        assert out["chaos_retries"] == solo_chaos_retries
        # the clean tenant sees none of the chaos: identical value, zero
        # recovery activity.
        assert out["clean"] == ref_clean
        assert out["clean_events"] == []
        assert out["clean_retries"] == 0

    def test_per_tenant_makespan_uses_own_frontier(self):
        cluster = ClusterState(make_config())
        a = Session(cluster=cluster)
        b = Session(cluster=cluster)
        try:
            run_groupby(a)
            makespan_a = a.last_report.makespan
            run_groupby(b)
            makespan_b = b.last_report.makespan
            assert makespan_a > 0
            # b's report reflects b's own work, not the cluster clock
            # advanced by a. (b warm-hits a's cache so it may be
            # cheaper, never the sum of both runs.)
            assert makespan_b <= makespan_a * 1.5
        finally:
            a.close()
            b.close()
            cluster.shutdown()
