"""Tests for the diagnostics/introspection helpers."""

import numpy as np
import pytest

from repro import diagnostics
from repro.cluster import ClusterState
from repro.config import Config
from repro.core import Session, build_tileable_graph
from repro.core.tiler import chunk_closure
from repro.dataframe import from_frame
from repro import frame as pf


@pytest.fixture
def session():
    cfg = Config()
    cfg.chunk_store_limit = 4_000
    s = Session(cfg)
    yield s
    s.close()


@pytest.fixture
def result(session):
    rng = np.random.default_rng(0)
    local = pf.DataFrame({"k": rng.integers(0, 4, 300),
                          "v": rng.normal(size=300)})
    df = from_frame(local, session)
    out = df.groupby("k").agg({"v": "sum"})
    out.execute()
    return out


class TestGraphExport:
    def test_tileable_graph_dot(self, session):
        df = from_frame(pf.DataFrame({"k": [1, 2], "v": [1.0, 2.0]}),
                        session)
        out = df.groupby("k").agg({"v": "sum"})  # NOT executed: full plan
        graph = build_tileable_graph([out.data])
        dot = diagnostics.graph_to_dot(graph)
        assert dot.startswith("digraph")
        assert "GroupByAgg" in dot
        assert "->" in dot

    def test_chunk_graph_dot(self, session, result):
        graph = chunk_closure(result.data.chunks, lambda key: False)
        dot = diagnostics.graph_to_dot(graph, name="chunks")
        assert "digraph chunks" in dot
        assert dot.count("[label=") == len(graph)

    def test_describe_tileable(self, result):
        text = diagnostics.describe_tileable(result.data)
        assert "GroupByAgg" in text
        assert "chunks:" in text

    def test_describe_untiled(self, session):
        df = from_frame(pf.DataFrame({"a": [1]}), session)
        assert "not tiled" in diagnostics.describe_tileable(df.data)

    def test_lineage(self, session):
        df = from_frame(pf.DataFrame({"a": [1.0, 2.0]}), session)
        chained = (df["a"] * 2).to_frame("b")
        text = diagnostics.lineage(chained.data)
        assert "Elementwise" in text
        assert "FromFrame" in text
        assert " <- " in text


class TestRuntimeReports:
    def test_band_timeline(self, session, result):
        text = diagnostics.band_timeline(session)
        assert "virtual makespan" in text
        assert "% busy" in text
        assert text.count("|") >= 2

    def test_memory_report(self, session, result):
        text = diagnostics.memory_report(session)
        assert "worker-0" in text
        assert "total spilled" in text

    def test_session_summary(self, session, result):
        text = diagnostics.session_summary(session)
        assert "subtasks" in text
        assert "dynamic-tiling switches" in text

    def test_timeline_without_work(self, session):
        assert "0.0000s" in diagnostics.band_timeline(session)

    def test_pressure_report(self, session, result):
        text = diagnostics.pressure_report(session)
        assert "admission wait" in text
        assert "re-tiling passes" in text

    def test_summary_includes_pressure_when_it_fired(self):
        cfg = Config()
        cfg.chunk_store_limit = 4_000
        cfg.cluster.memory_limit = 8 * 1024
        with Session(cfg) as tight:
            rng = np.random.default_rng(0)
            local = pf.DataFrame({"k": rng.integers(0, 4, 300),
                                  "v": rng.normal(size=300)})
            from_frame(local, tight).groupby("k").agg({"v": "sum"}).fetch()
            assert tight.executor.report.admission_wait_time > 0.0
            assert "memory pressure:" in diagnostics.session_summary(tight)


class TestRecoveryReport:
    def test_tenant_report_shows_its_own_faults(self):
        cfg = Config()
        cfg.chunk_store_limit = 4_000
        cluster = ClusterState(cfg)
        try:
            with Session(cluster=cluster) as tenant:
                tenant.faults.script_chunk_loss(0, 0)
                local = pf.DataFrame({"k": np.arange(300) % 4,
                                      "v": np.arange(300.0)})
                from_frame(local, tenant).groupby("k").agg(
                    {"v": "sum"}).fetch()
                text = diagnostics.recovery_report(tenant)
        finally:
            cluster.shutdown()
        assert "injected events:     1" in text
        assert "[chunk_loss]" in text


class TestServiceReport:
    def test_service_report_structure(self, session, result):
        text = diagnostics.service_report(session)
        assert "service plane:" in text
        assert "messages delivered:" in text
        assert "per service:" in text
        assert "service/storage" in text
        assert "service/scheduling" in text
        assert "->" in text  # at least one sender -> recipient edge

    def test_per_subtask_rate(self, session, result):
        text = diagnostics.service_report(session)
        n = session.executor.report.n_subtasks
        assert n > 0
        assert f"({n} subtasks)" in text

    def test_counts_match_log(self, session, result):
        # snapshot first: rendering the report itself delivers messages
        # (the session actor serves the executor/report reads).
        log = session.cluster.actor_system.log
        ((sender, recipient), _) = log.top_edges(1)[0]
        before = log.total_delivered
        text = diagnostics.service_report(session)
        assert f"messages delivered:  {before}" in text
        # the chattiest edge leads the edge listing.
        assert f"{sender} -> {recipient:24s}" in text

    def test_no_subtasks_no_rate_line(self):
        with Session(Config()) as fresh:
            text = diagnostics.service_report(fresh)
            assert "per subtask" not in text


class TestCacheReport:
    def test_cache_report_disabled(self, session, result):
        text = diagnostics.cache_report(session)
        assert "result cache:" in text
        assert "enabled:             False" in text
        assert "hits / misses:       0 / 0" in text

    def test_cache_report_after_warm_run(self):
        cfg = Config()
        cfg.chunk_store_limit = 4_000
        cfg.result_cache = True
        with Session(cfg) as session:
            rng = np.random.default_rng(0)
            local = pf.DataFrame({"k": rng.integers(0, 4, 300),
                                  "v": rng.normal(size=300)})
            for _ in range(2):
                from_frame(local, session).groupby("k").agg(
                    {"v": "sum"}).fetch()
            text = diagnostics.cache_report(session)
            stats = session.cache.stats_snapshot()
        assert "enabled:             True" in text
        assert f"hits / misses:       {stats['hits']} /" in text
        assert stats["hits"] > 0
        assert "bytes reused:" in text
        assert "chunks bound:" in text
        # the per-session breakdown names the session that hit.
        assert session.session_id in text
