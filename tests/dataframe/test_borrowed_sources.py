"""A source slice borrows the client's columns: kernels read them where
they are, and the one copy happens where a value is kept — the executor's
store. What storage holds never aliases a client frame, so an in-place
write to the client frame after ``execute()`` changes no fetched value,
and nothing that aliases no client column is copied."""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.core import executor as executor_module
from repro.core.operator import ExecContext
from repro.dataframe import from_frame
from repro.dataframe.datasource import FromFrameSlice
from repro.engine.base import unshared
from repro.frame import dtypes
from repro.workloads.tpch.dbgen import generate_tables
from repro.workloads.tpch.queries import ALL_QUERIES, materialize


def make_session(mode: str = "serial", result_cache: bool = False,
                 engine: str = "row") -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 4_000
    cfg.execution_mode = mode
    cfg.result_cache = result_cache
    cfg.chunk_engine = engine
    return Session(cfg)


def client_frame(rows: int = 400) -> pf.DataFrame:
    rng = np.random.default_rng(5)
    return pf.DataFrame({
        "x": rng.normal(size=rows),
        "s": np.array([f"k{i % 7}" for i in range(rows)], dtype=object),
        "n": rng.integers(0, 9, rows),
    })


def aliases(value, local: pf.DataFrame) -> bool:
    return any(np.shares_memory(column, local[name].values)
               for column in value._data.values()
               for name in local.columns.to_list())


def snapshot(frame: pf.DataFrame) -> dict:
    """Each column's bytes; an object column's by the objects it holds."""
    return {
        name: (dtypes.addresses(frame[name].values).tobytes(),
               frame[name].values.tolist())
        if frame[name].values.dtype.kind == "O"
        else frame[name].values.tobytes()
        for name in frame.columns.to_list()
    }


@pytest.fixture
def stores(monkeypatch):
    """Every ``(value, stored)`` pair the executor's store saw."""
    seen = []

    def recorded(value, arrays):
        stored = unshared(value, arrays)
        seen.append((value, stored))
        return stored

    monkeypatch.setattr(executor_module, "unshared", recorded)
    return seen


class TestFetchAfterClientWrite:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize("result_cache", [False, True])
    def test_in_place_write_leaves_fetch_unchanged(self, mode, result_cache):
        local = client_frame()
        x_before, s_before = local["x"].values[3], local["s"].values[3]
        with make_session(mode, result_cache) as session:
            df = from_frame(local, session).execute()
            local["x"].values[3] = 1e9  # in place, through the client
            local["s"].values[3] = "written"
            fetched = df.fetch()
            assert fetched["x"].values[3] == x_before
            assert fetched["s"].values[3] == s_before
            fresh = from_frame(local, session).fetch()
            assert fresh["x"].values[3] == 1e9
            assert fresh["s"].values[3] == "written"

    def test_projection_of_a_slice_is_copied_at_the_store(self):
        local = client_frame()
        with make_session() as session:
            proj = from_frame(local, session)[["x"]].execute()
            before = local["x"].values.copy()
            local["x"].values[:] = -1.0
            np.testing.assert_array_equal(proj.fetch()["x"].values, before)


class TestSliceBorrows:
    def slice_of(self, local, start=10, stop=60):
        op = FromFrameSlice(frame=local, start=start, stop=stop)
        return op, op.execute(ExecContext({}, Config()))

    def test_columns_are_read_only_views_of_the_client(self):
        local = client_frame()
        _, piece = self.slice_of(local)
        for name in ("x", "s", "n"):
            column = piece[name].values
            assert np.shares_memory(column, local[name].values)
            assert not column.flags.writeable
            assert column.tolist() == local[name].values[10:60].tolist()

    def test_a_kernel_writing_into_a_slice_raises(self):
        local = client_frame()
        _, piece = self.slice_of(local)
        before = snapshot(local)
        with pytest.raises(ValueError, match="read-only"):
            piece["x"].values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            piece["s"].values[:] = "z"
        assert snapshot(local) == before

    def test_a_partition_function_writing_in_place_raises(self):
        local = client_frame()
        before = snapshot(local)

        def scribble(part):
            part["x"].values[:] = 0.0
            return part

        with make_session() as session:
            out = from_frame(local, session).map_partitions(scribble)
            with pytest.raises(ValueError, match="read-only"):
                out.fetch()
        assert snapshot(local) == before

    def test_borrowed_arrays_are_the_client_columns(self):
        local = client_frame()
        op, _ = self.slice_of(local)
        assert [id(a) for a in op.borrowed_arrays()] == \
            [id(local[name].values) for name in ("x", "s", "n")]


class TestClientBytesUnchanged:
    @pytest.mark.parametrize("query", ["q1", "q6", "q3", "q5"])
    def test_query_leaves_client_tables_as_they_were(self, query):
        tables = generate_tables(sf=0.5, seed=3)
        before = {name: snapshot(frame) for name, frame in tables.items()}
        cfg = Config()
        cfg.chunk_store_limit = 16 * 1024
        with Session(cfg) as session:
            handles = {name: from_frame(frame, session)
                       for name, frame in tables.items()}
            materialize(ALL_QUERIES[query](handles))
        assert {name: snapshot(frame)
                for name, frame in tables.items()} == before


class TestNothingElseCopied:
    def test_groupby_partial_is_stored_as_it_is(self, stores):
        local = client_frame()
        with make_session() as session:
            out = from_frame(local, session).groupby("n").agg({"x": "sum"})
            got = out.fetch()
        expected = local.groupby("n").agg({"x": "sum"})
        np.testing.assert_allclose(got.sort_index()["x"].values,
                                   expected.sort_index()["x"].values)
        partials = [(value, stored) for value, stored in stores
                    if len(value) == 9]  # one row per key
        assert len(partials) == 2  # one per source chunk
        assert all(stored is value for value, stored in partials)

    def test_dictionary_column_is_kept_and_numbers_copied(self, stores):
        local = client_frame()
        with make_session(engine="columnar") as session:
            fetched = from_frame(local, session).fetch()
        assert fetched["s"].values.tolist() == local["s"].values.tolist()
        assert stores
        for value, stored in stores:
            column = value._data["s"]
            assert dtypes.dictionary_of(column) is not None
            assert stored._data["s"] is column  # the engine's own copy
            assert stored._data["x"] is not value._data["x"]  # borrowed
            assert not aliases(stored, local)

    def test_dictionary_view_is_not_copied(self):
        local = client_frame()
        cells = np.array(["a", "b", "a"], dtype=object)
        column = dtypes.encoded(np.array(["a", "b"], dtype=object),
                                np.array([0, 1, 0], dtype=np.int32),
                                cells=cells)
        assert column.base is not None
        frame = pf.DataFrame({"s": column})
        out = unshared(frame, [local[name].values for name in ("x", "s")])
        assert out is frame

    def test_process_mode_results_are_stored_as_they_are(self, stores):
        local = client_frame(4_000)  # wide enough a stage to use the pool
        with make_session("process") as session:
            got = from_frame(local, session).fetch()
        assert got["x"].values.tolist() == local["x"].values.tolist()
        pooled = [(value, stored) for value, stored in stores
                  if not aliases(value, local)]
        assert len(pooled) >= 8
        assert all(stored is value for value, stored in pooled)
        assert not any(aliases(stored, local) for _, stored in stores)

    def test_unshared_copies_only_overlapping_columns(self):
        local = client_frame()
        client = [local[name].values for name in ("x", "s", "n")]
        window = local["x"].values[5:9]
        fresh = np.arange(4.0)
        frame = pf.DataFrame({"w": window, "f": fresh})
        out = unshared(frame, client)
        assert out is not frame
        assert out["f"].values is fresh
        assert not np.shares_memory(out["w"].values, local["x"].values)
        assert out["w"].values.tolist() == window.tolist()
        alone = pf.DataFrame({"f": fresh})
        assert unshared(alone, client) is alone
        assert unshared(pf.Series(fresh), client).values is fresh
        assert unshared(7, client) == 7
