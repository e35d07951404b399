"""Integration tests of the engine core: tiling ↔ execution switching,
the executor, sessions and result assembly."""

import gc
import weakref

import numpy as np
import pytest

from repro.config import Config
from repro.core import Session, assemble
from repro.core.session import init_session, get_default_session, stop_session
from repro.errors import SessionError, TilingError
from repro import frame as pf
from repro.dataframe import from_frame
from repro.tensor import rand


@pytest.fixture
def session():
    cfg = Config()
    cfg.chunk_store_limit = 4000
    s = Session(cfg)
    yield s
    s.close()


def local_frame(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return pf.DataFrame({
        "k": rng.integers(0, 7, n),
        "v": rng.normal(size=n),
    })


class TestDynamicSwitching:
    def test_iloc_after_filter_yields(self, session):
        """The paper's Fig. 3(c) scenario: tiling must pause, execute the
        filtered chunks, and resume with real lengths."""
        local = local_frame(300)
        df = from_frame(local, session)
        filtered = df[df["v"] > 0]
        row = filtered.iloc[5]
        value = row.fetch()
        assert session.last_report.dynamic_yields >= 1
        expected = local[local["v"] > 0].iloc[5]
        assert value.to_list() == expected.to_list()

    def test_static_pipeline_never_yields(self, session):
        local = local_frame(300)
        df = from_frame(local, session)
        doubled = df["v"] * 2
        doubled.fetch()
        assert session.last_report.dynamic_yields == 0

    def test_dynamic_disabled_raises_on_required_yield(self):
        cfg = Config()
        cfg.chunk_store_limit = 2000
        cfg.dynamic_tiling = False
        s = Session(cfg)
        local = pf.DataFrame({"a": np.arange(100), "b": np.arange(100.0)})
        df = from_frame(local, s)
        # sort_values with dynamic off takes the static gather path
        out = df.sort_values("a").fetch()
        assert out["a"].to_list() == list(range(100))
        s.close()

    def test_report_counts_subtasks(self, session):
        df = from_frame(local_frame(300), session)
        (df["v"] + 1).fetch()
        assert session.last_report.n_subtasks > 0
        assert session.last_report.makespan > 0


class TestCaching:
    def test_second_fetch_hits_cache(self, session):
        df = from_frame(local_frame(200), session)
        result = df["v"] * 2
        first = result.fetch()
        subtasks_before = session.executor.report.n_subtasks
        second = result.fetch()
        assert session.executor.report.n_subtasks == subtasks_before
        assert first.equals(second)

    def test_derived_computation_reuses_chunks(self, session):
        df = from_frame(local_frame(200), session)
        base = df["v"] * 2
        base.fetch()
        n_before = session.executor.report.n_subtasks
        (base + 1).fetch()
        # only the +1 chunks run; the *2 chunks come from storage
        assert session.executor.report.n_subtasks > n_before

    def test_free_then_recompute(self, session):
        df = from_frame(local_frame(200), session)
        result = df["v"] * 2
        first = result.fetch()
        session.free(result.data)
        assert not session.is_materialized(result.data)
        second = result.fetch()
        assert first.equals(second)


class TestSessionLifecycle:
    def test_closed_session_rejects_execute(self):
        s = Session(Config())
        df = from_frame(local_frame(10), s)
        s.close()
        with pytest.raises(SessionError):
            s.execute(df.data)

    def test_fetch_untiled_raises(self, session):
        df = from_frame(local_frame(10), session)
        with pytest.raises(SessionError):
            session.fetch(df.data)

    def test_context_manager(self):
        with Session(Config()) as s:
            df = from_frame(local_frame(10), s)
            df.execute()
        assert s.closed

    def test_default_session_roundtrip(self):
        s = init_session()
        assert get_default_session() is s
        stop_session()
        s2 = get_default_session()
        assert s2 is not s
        stop_session()

    def test_session_actor_records_executions(self, session):
        df = from_frame(local_frame(10), session)
        df.execute()
        assert session.last_report.n_subtasks >= 1

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_closed_session_is_garbage_without_the_cycle_collector(
            self, engine):
        """``close()`` + ``del`` free the cluster, its actor system and
        the chunks they reference by reference counting alone: a
        benchmark loop that opens a session per iteration must not wait
        for a generation-2 collection to get the last one's memory back."""
        gc.collect()
        gc.disable()
        try:
            cfg = Config()
            cfg.chunk_store_limit = 4000
            cfg.chunk_engine = engine
            s = Session(cfg)
            df = from_frame(local_frame(300), s)
            total = df.groupby("k").agg({"v": "sum"})
            s.execute(df.data, total.data)
            stored = s.storage.peek(df.data.chunks[0].key)
            source_column = stored["v"].values
            alive = [weakref.ref(s.cluster),
                     weakref.ref(s.cluster.actor_system),
                     weakref.ref(source_column)]
            s.close()
            del s, df, total, stored, source_column
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()


class TestAssemble:
    def test_scalar(self):
        assert assemble("scalar", {(): 7}) == 7

    def test_series_ordered(self):
        parts = {(1,): pf.Series([3, 4]), (0,): pf.Series([1, 2])}
        out = assemble("series", parts)
        assert out.to_list() == [1, 2, 3, 4]

    def test_dataframe_rows(self):
        parts = {
            (0, 0): pf.DataFrame({"a": [1]}),
            (1, 0): pf.DataFrame({"a": [2]}),
        }
        out = assemble("dataframe", parts)
        assert out["a"].to_list() == [1, 2]

    def test_tensor_2d_grid(self):
        parts = {
            (0, 0): np.ones((2, 2)), (0, 1): np.zeros((2, 1)),
            (1, 0): np.zeros((1, 2)), (1, 1): np.ones((1, 1)),
        }
        out = assemble("tensor", parts)
        assert out.shape == (3, 3)
        assert out[0, 0] == 1 and out[0, 2] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble("series", {})


class TestAblationSwitches:
    def _run(self, **overrides):
        cfg = Config()
        cfg.chunk_store_limit = 3000
        for key, value in overrides.items():
            setattr(cfg, key, value)
        s = Session(cfg)
        local = local_frame(400, seed=3)
        df = from_frame(local, s)
        out = df.groupby("k").agg({"v": "sum"}).fetch()
        expected = local.groupby("k").agg({"v": "sum"})
        assert np.allclose(
            np.asarray(out.sort_index()["v"].values, float),
            np.asarray(expected["v"].values, float),
        )
        report = s.last_report
        s.close()
        return report

    def test_results_identical_across_switches(self):
        self._run()
        self._run(graph_fusion=False)
        self._run(operator_fusion=False)
        self._run(dynamic_tiling=False)
        self._run(locality_scheduling=False)
        self._run(combine_stage=False)

    def test_fusion_reduces_subtasks(self):
        fused = self._run(graph_fusion=True)
        unfused = self._run(graph_fusion=False)
        assert fused.n_subtasks < unfused.n_subtasks
