"""Correctness tests for the lineage-keyed result cache.

The cache is only allowed to change *how much work runs*, never *what
comes out*: every scenario here compares a cache-enabled run — warm,
under seeded chaos, under memory squeeze, after source mutation —
against the cache-disabled engine and requires bit-identical results
(``repr`` equality of the fetched frames, the same notion of equality
the golden suite uses).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import frame as pf
from repro.cluster import ClusterState
from repro.core import Session
from repro.core.executor import GraphExecutor
from repro.core.tiler import TilingEngine
from repro.dataframe import from_frame, read_csv, read_parquet
from repro.frame import io as frame_io
from repro.tensor import tensor_from_numpy
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize
from tests.core.golden_harness import (
    CHAOS,
    WORKLOADS,
    make_config,
    make_session,
    tpch_q5,
)


def cached_session(**overrides):
    overrides.setdefault("result_cache", True)
    return make_session(**overrides)


@pytest.fixture
def stages(monkeypatch):
    """How many executor stages (``GraphExecutor.execute`` calls) ran."""
    calls = []
    real = GraphExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(self.session_id)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GraphExecutor, "execute", counting)
    return calls


def tpch_query(session, name: str, tables):
    """``name`` over fresh handles: a repeat hits by structure alone."""
    handles = {table: from_frame(frame, session)
               for table, frame in tables.items()}
    return repr(materialize(ALL_QUERIES[name](handles)))


def keyed_sums(session, local, scale=1.0):
    # the lambda closes over ``scale``: its value is part of the query.
    remote = from_frame(local, session)
    return remote.assign(w=lambda d: d["v"] * scale).groupby("k").agg(
        {"w": "sum"})


def small_frame(seed: int = 3) -> pf.DataFrame:
    rng = np.random.default_rng(seed)
    return pf.DataFrame({"k": rng.integers(0, 20, 2_000),
                         "v": rng.normal(size=2_000)})


def service_state(cluster) -> int:
    """Records of every dict and set the cache service itself holds,
    its stats included."""
    ref = cluster.services.cache
    service = (cluster.actor_system.get_pool(ref.address)
               .lookup(ref.uid)._service)
    return sum(len(value)
               for value in (*vars(service).values(),
                             *vars(service.stats).values())
               if isinstance(value, (dict, set)))


class TestWarmReuse:
    def test_warm_tpch_q5_skips_and_matches(self):
        with cached_session(chunk_limit=64 * 1024) as session:
            cold = repr(tpch_q5(session))
            cold_subtasks = session.last_report.n_subtasks
            warm = repr(tpch_q5(session))
            report = session.last_report
        assert warm == cold
        assert cold_subtasks > 0
        # acceptance dial: the warm run skips >= 80% of the subtasks.
        assert report.n_subtasks <= 0.2 * cold_subtasks
        assert report.cache_hit_chunks > 0
        assert report.cache_reused_bytes > 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_warm_matches_uncached(self, name):
        workload, overrides = WORKLOADS[name]
        with make_session(**overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(**overrides) as session:
            assert repr(workload(session)) == expected  # cold
            assert repr(workload(session)) == expected  # warm
            assert session.last_report.cache_hit_chunks > 0

    def test_disabled_cache_is_inert(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as session:
            workload(session)
            workload(session)
            report = session.last_report
            stats = session.cache.stats_snapshot()
        assert report.cache_hit_chunks == 0
        assert report.cache_reused_bytes == 0
        assert stats["entries"] == 0 and stats["hits"] == 0

    def test_overlapping_queries_share_prefix(self):
        # two queries sharing an aggregation prefix: the second one pulls
        # the aggregated chunks from the cache and only executes its new
        # tail (the overlapping-query shape of the benchmark sweep).
        rng = np.random.default_rng(3)
        local = pf.DataFrame({
            "k": rng.integers(0, 20, 4_000),
            "v": rng.normal(size=4_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            first = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            hits0 = session.cache.stats_snapshot()["hits"]
            second = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).sort_values("v").fetch())
            hits1 = session.cache.stats_snapshot()["hits"]
        assert first != second
        assert hits1 > hits0

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_modes_agree_when_cached(self, mode):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with cached_session(parallel=mode == "process",
                            **overrides) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            report = session.last_report
        assert warm == cold
        if mode == "serial":
            TestWarmReuse._serial_baseline = (
                cold, report.n_subtasks, report.cache_hit_chunks)
        else:
            base = getattr(TestWarmReuse, "_serial_baseline", None)
            if base is not None:
                assert (cold, report.n_subtasks,
                        report.cache_hit_chunks) == base

    def test_cached_q3_runs_no_more_subtasks_than_uncached(self):
        tables = generate_tables(1.0, 1)
        nbytes = sum(frame.nbytes for frame in tables.values())
        subtasks = {}
        for cache in (False, True):
            with make_session(chunk_limit=max(nbytes // 48, 16 * 1024),
                              result_cache=cache) as session:
                handles = {name: from_frame(frame, session)
                           for name, frame in tables.items()}
                materialize(ALL_QUERIES["q3"](handles))
                subtasks[cache] = session.last_report.n_subtasks
        assert subtasks[True] <= subtasks[False]


class TestInvalidation:
    def test_source_mutation_recomputes(self):
        rng = np.random.default_rng(8)
        local = pf.DataFrame({
            "k": rng.integers(0, 10, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            stale = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            # in-place mutation of the client frame: its content
            # fingerprint — and so every downstream identity — changes.
            local["v"].values[:100] = 0.0
            fresh = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(
                from_frame(local, plain).groupby("k")
                .agg({"v": "sum"}).fetch())
        assert fresh != stale
        assert fresh == expected

    @pytest.mark.parametrize("suffix, write, read", [
        (".csv", frame_io.to_csv, read_csv),
        (".rpq", frame_io.to_parquet, read_parquet),
    ])
    def test_rewritten_file_recomputes(self, tmp_path, suffix, write, read):
        # the path, columns and row ranges of the second read equal the
        # first's: only the file's stat tells the two programs apart.
        path = str(tmp_path / f"table{suffix}")
        keys = np.arange(400) % 4

        def sums(session):
            return read(path, session=session).groupby("k").agg(
                {"v": "sum"}).fetch()

        with cached_session(chunk_limit=4_000) as session:
            write(pf.DataFrame({"k": keys, "v": np.arange(400.0)}), path)
            stale = repr(sums(session))
            assert repr(sums(session)) == stale
            assert session.last_report.cache_hit_chunks > 0  # untouched: warm
            write(pf.DataFrame({"k": keys, "v": np.arange(400.0) * 3}), path)
            fresh = repr(sums(session))
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(sums(plain))
        assert fresh != stale
        assert fresh == expected

    def test_free_invalidates_dependents(self):
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 20, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            remote = from_frame(local, session).groupby("k").agg(
                {"v": "sum"})
            cold = repr(remote.fetch())
            session.free(remote.data)
            stats = session.cache.stats_snapshot()
            assert stats["invalidations"] > 0
            warm = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
        assert warm == cold

    def test_reused_handle_missing_a_chunk_reads_its_source_again(
            self, stages):
        # a tiled handle keeps the key it was planned with only while all
        # of its chunks are stored: the freed one is computed again from
        # the mutated frame, so the stamped key no longer describes it.
        def run(session, local):
            agg = from_frame(local, session).groupby("k").agg({"v": "sum"})
            agg.fetch()
            first = repr(agg.sort_values("v").fetch())
            session.storage.delete(agg.data.chunks[0].key)
            local["v"].values[:] += 100.0
            n_stages = len(stages)
            second = repr(agg.sort_values("v").fetch())
            return first, second, len(stages) > n_stages

        with make_session(chunk_limit=4_000) as plain:
            expected = run(plain, small_frame())
        with cached_session(chunk_limit=4_000) as session:
            assert run(session, small_frame()) == expected
            assert session.last_report.cache_hit_chunks == 0
        assert expected[0] != expected[1] and expected[2]

    def test_bound_chunk_lost_before_its_reader_runs(self, monkeypatch):
        # the plan binds the earlier result; its chunk is deleted behind
        # the cache's back before the tail runs: lineage brings it back.
        local = small_frame()
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(keyed_sums(plain, local).sort_values("w").fetch())
        with cached_session(chunk_limit=4_000) as session:
            keyed_sums(session, local).fetch()
            (lost,) = session.cache.cached_chunk_keys()
            tile = TilingEngine.tile

            def losing(self, *args):
                session.storage.delete(lost)
                return tile(self, *args)

            monkeypatch.setattr(TilingEngine, "tile", losing)
            got = repr(keyed_sums(session, local).sort_values("w").fetch())
            assert session.last_report.cache_hit_chunks == 1
        assert got == expected

    def test_chunk_loss_purges_cache_entries(self):
        # a scripted chunk loss during the cold run must leave no cache
        # entry pointing at the lost bytes — the warm run may reuse what
        # survived but must recompute the lost lineage bit-identically.
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(**overrides) as session:
            session.faults.script_chunk_loss(0, 0)
            assert repr(workload(session)) == expected
            cached = set(session.cache.cached_chunk_keys())
            for key in cached:
                assert session.storage.contains(key)
            assert repr(workload(session)) == expected

    def test_chaos_matrix_matches_uncached(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(faults=CHAOS, **overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(faults=CHAOS, **overrides) as session:
            assert repr(workload(session)) == expected
            assert repr(workload(session)) == expected

    def test_memory_squeeze_matches_uncached(self):
        workload, overrides = WORKLOADS["sort"]
        with make_session(memory_limit=48 * 1024, **overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(memory_limit=48 * 1024, **overrides) as session:
            assert repr(workload(session)) == expected
            assert repr(workload(session)) == expected


class TestBudget:
    def test_budget_eviction_keeps_results_correct(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with cached_session(result_cache_budget=1, **overrides) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            stats = session.cache.stats_snapshot()
        assert warm == cold
        assert stats["evictions"] > 0
        assert stats["bytes_cached"] <= 1

    def test_explicit_cache_survives_budget(self):
        rng = np.random.default_rng(13)
        local = pf.DataFrame({
            "k": rng.integers(0, 10, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(result_cache_budget=1,
                            chunk_limit=4_000) as session:
            remote = from_frame(local, session).groupby("k").agg(
                {"v": "sum"}).cache()
            cold = repr(remote.fetch())
            stats = session.cache.stats_snapshot()
            assert stats["entries"] > 0  # explicit entries outlive budget
            hits0 = stats["hits"]
            warm = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            assert session.cache.stats_snapshot()["hits"] > hits0
        assert warm == cold

    def test_eviction_does_not_invalidate_dependents(self):
        # eviction forgets an entry but entries built on top stay valid:
        # a warm run may still hit downstream even when upstream sources
        # were evicted for budget.
        workload, overrides = WORKLOADS["merge"]
        with cached_session(**overrides) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            stats = session.cache.stats_snapshot()
        assert warm == cold
        assert stats["invalidations"] == 0


class TestQueryLevel:
    """A repeated query is answered from its expression: no tiling, no
    stage, and the same ``repr`` as the cache-off engine."""

    @pytest.fixture(scope="class")
    def tables(self):
        return generate_tables(sf=0.5, seed=7)

    @pytest.mark.parametrize("name", ["q1", "q5"])
    def test_warm_query_runs_no_stage(self, name, stages, tables):
        with make_session(chunk_limit=16 * 1024) as plain:
            expected = tpch_query(plain, name, tables)
        with cached_session(chunk_limit=16 * 1024) as session:
            assert tpch_query(session, name, tables) == expected
            cold = session.last_report
            partial, n_stages = session.tiler.yield_count, len(stages)
            assert tpch_query(session, name, tables) == expected
            warm = session.last_report
            assert session.tiler.yield_count == partial
            assert len(stages) == n_stages
        assert cold.n_subtasks > 0
        assert warm.n_subtasks == 0 and warm.makespan == 0.0
        assert warm.cache_hit_chunks > 0 and warm.cache_reused_bytes > 0

    def test_mutated_source_is_read_again(self, stages):
        local = small_frame()
        with cached_session(chunk_limit=4_000) as session:
            keyed_sums(session, local).fetch()
            n_stages = len(stages)
            keyed_sums(session, local).fetch()
            assert len(stages) == n_stages  # answered from the entry
            local["v"].values[:50] += 1.0
            fresh = repr(keyed_sums(session, local).fetch())
            assert len(stages) > n_stages
        with make_session(chunk_limit=4_000) as plain:
            assert fresh == repr(keyed_sums(plain, local).fetch())

    def test_tenants_with_other_chunking_never_share_an_entry(self, stages,
                                                              tables):
        wide, narrow = make_config(chunk_limit=16 * 1024), make_config(
            chunk_limit=4 * 1024)
        expected = {}
        for cfg in (wide, narrow):
            with Session(cfg.copy()) as plain:
                expected[cfg.chunk_store_limit] = tpch_query(
                    plain, "q1", tables)
        cluster = ClusterState(wide.copy(result_cache=True))
        a = Session(wide.copy(result_cache=True), cluster=cluster)
        b = Session(narrow.copy(result_cache=True), cluster=cluster)
        try:
            # each tenant's first run is cold, its repeat its own hit.
            for tenant, cold in ((a, True), (b, True), (a, False),
                                 (b, False)):
                before = len(stages)
                got = tpch_query(tenant, "q1", tables)
                assert got == expected[tenant.config.chunk_store_limit]
                ran = [s for s in stages[before:] if s == tenant.session_id]
                assert bool(ran) is cold
            assert cluster.services.cache.stats_snapshot()["entries"] == 2
        finally:
            a.close()
            b.close()
            cluster.shutdown()

    def test_lambda_over_another_constant_misses(self, stages):
        local = small_frame()
        with cached_session(chunk_limit=4_000) as session:
            keyed_sums(session, local, 1.0).fetch()
            n_stages = len(stages)
            doubled = repr(keyed_sums(session, local, 2.0).fetch())
            assert len(stages) > n_stages
        with make_session(chunk_limit=4_000) as plain:
            assert doubled == repr(keyed_sums(plain, local, 2.0).fetch())

    def test_free_then_rerun(self):
        local = small_frame()
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(keyed_sums(plain, local).fetch())
        with cached_session(chunk_limit=4_000) as session:
            result = keyed_sums(session, local)
            assert repr(result.fetch()) == expected
            session.free(result.data)
            assert session.cache.stats_snapshot()["entries"] == 0
            assert repr(keyed_sums(session, local).fetch()) == expected
            assert session.last_report.n_subtasks > 0

    @pytest.mark.parametrize("seen_by_cache", [True, False])
    def test_lost_result_chunk_is_recomputed(self, seen_by_cache, stages):
        local = small_frame()
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(keyed_sums(plain, local).fetch())
        with cached_session(chunk_limit=4_000) as session:
            result = keyed_sums(session, local)
            assert repr(result.fetch()) == expected
            lost = result.data.chunks[-1].key
            if seen_by_cache:
                # what a chunk-loss fault does: delete and invalidate.
                session.executor._lose_chunk(lost)
                assert session.cache.stats_snapshot()["entries"] == 0
            else:
                # gone behind the cache's back: the lookup must notice.
                session.storage.delete(lost)
            n_stages = len(stages)
            assert repr(keyed_sums(session, local).fetch()) == expected
            assert len(stages) > n_stages

    def test_retiled_run_records_no_entry(self):
        def fanout(session):
            data = np.arange(2048 * 8, dtype=np.int64).reshape(2048, 8)
            t = tensor_from_numpy(data, session=session)
            return repr(np.asarray(((t * 2 + 1).sum()).fetch()))

        with cached_session() as roomy:
            expected = fanout(roomy)
            assert roomy.cache.stats_snapshot()["entries"] == 1
        with cached_session(memory_limit=16 * 1024) as tight:
            assert fanout(tight) == expected
            assert tight.last_report.pressure_splits >= 1
            assert tight.cache.stats_snapshot()["entries"] == 0
            assert fanout(tight) == expected
            assert tight.last_report.n_subtasks > 0


    def test_literals_shaped_like_runtime_keys_stay_apart(self):
        # "order-20240115" has the shape of a runtime key: it must still
        # hash as the value it is, or the second filter is answered with
        # the first one's sum.
        ids = np.array(["order-20240115", "order-20240116"] * 50,
                       dtype=object)
        local = pf.DataFrame({"id": ids, "v": np.arange(100.0)})

        def total(session, wanted):
            remote = from_frame(local, session)
            return remote[remote["id"] == wanted]["v"].sum().fetch()

        with cached_session(chunk_limit=4_000) as session:
            got = [total(session, w) for w in ids[:2]]
        with make_session(chunk_limit=4_000) as plain:
            assert got == [total(plain, w) for w in ids[:2]]
        assert got[0] != got[1]


class TestBoundedState:
    def test_repeated_rounds_hold_no_more_state(self):
        # the cache service is shared by every tenant of a cluster:
        # what it holds per chunk must stand on its live entries, not
        # grow with every query planned.
        tables = generate_tables(sf=0.25, seed=3)
        with cached_session(chunk_limit=8 * 1024) as session:
            sizes = []
            for _ in range(3):
                for name in ("q1", "q6", "q3", "q5"):
                    tpch_query(session, name, tables)
                stats = session.cache.stats_snapshot()
                sizes.append(service_state(session.cluster))
            assert sizes[0] == sizes[1] == sizes[2]
            # per entry: itself; per result chunk: one reverse-index
            # record; per tenant: its stats.
            assert sizes[0] == (stats["entries"]
                                + len(session.cache.cached_chunk_keys())
                                + len(stats["per_session"]))

    def test_tenants_that_leave_take_their_stats_along(self):
        # twenty tenants attach, run one groupby and close: the shared
        # service keeps the entry they all hit, not a record per tenant.
        cluster = ClusterState(make_config(chunk_limit=4_000,
                                           result_cache=True))
        local = small_frame()
        try:
            sizes = []
            for _ in range(20):
                with Session(cluster=cluster) as tenant:
                    keyed_sums(tenant, local).fetch()
                sizes.append(service_state(cluster))
            assert sizes == sizes[:1] * 20
            assert cluster.services.cache.stats_snapshot()["per_session"] == {}
        finally:
            cluster.shutdown()
