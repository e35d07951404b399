"""A frame filter gathers only the columns its output carries (the
pruning pass's ``carried_columns``): projection commutes with selection,
so a column no later kernel reads is not moved by the mask. Every case
is checked against the ``repro.frame`` oracle."""

import pickle

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.dataframe.indexing import FilterChunk
from repro.frame import dtypes
from repro.workloads.tpch.dbgen import generate_tables
from repro.workloads.tpch.queries import D, q1


def make_session(**overrides) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 8_000
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


@pytest.fixture
def local():
    rng = np.random.default_rng(11)
    return pf.DataFrame({
        "a": rng.integers(0, 20, 600),
        "b": rng.normal(size=600),
        "c": rng.normal(size=600),
        "s": np.array([f"k{i % 5}" for i in range(600)], dtype=object),
    })


@pytest.fixture
def gathers(monkeypatch):
    """``[(op, result)]`` of every filter gather, fused steps too."""
    seen = []
    func = FilterChunk.func

    def recorded(self, data, mask):
        result = func(self, data, mask)
        seen.append((self, result))
        return result

    monkeypatch.setattr(FilterChunk, "func", recorded)
    return seen


def q6_filters(t):
    li = t["lineitem"]
    f1 = li[li["l_shipdate"] >= D("1994-01-01")]
    f2 = f1[f1["l_shipdate"] < D("1995-01-01")]
    f3 = f2[f2["l_discount"].between(0.05, 0.07)]
    f4 = f3[f3["l_quantity"] < 24]
    return [f1, f2, f3, f4], (f4["l_extendedprice"] * f4["l_discount"]).sum()


class TestFilterGathersCarriedColumns:
    def test_q6_after_q1_on_one_handle(self, gathers):
        tables = generate_tables(sf=0.5, seed=2)
        with make_session(chunk_store_limit=32 * 1024) as session:
            t = {name: from_frame(frame, session)
                 for name, frame in tables.items()}
            q1(t).fetch()
            # q1 tiled the shared handle 7 wide; q6 reads 4 of them
            assert len(t["lineitem"].data.chunks[0].columns) == 7
            gathers.clear()
            filters, total = q6_filters(t)
            got = float(total)
        _, expected = q6_filters(tables)
        assert got == pytest.approx(float(expected), rel=1e-9)
        widths = [4, 3, 3, 2]
        for flt, width in zip(filters, widths):
            chunks = flt.data.chunks
            assert chunks and all(len(c.columns) == width for c in chunks)
            assert flt.data.nsplits[1] == (width,)
        emitted = {id(op): len(result.columns) for op, result in gathers}
        by_op = {id(c.op): width for flt, width in zip(filters, widths)
                 for c in flt.data.chunks}
        assert emitted == by_op

    def test_filter_read_again_whole_is_widened(self, local):
        with make_session() as session:
            df = from_frame(local, session)
            flt = df[df["a"] > 10]
            total = float(flt["b"].sum())
            assert all(c.columns == ["b"] for c in flt.data.chunks)
            got = flt.fetch()
        expected = local[local["a"] > 10]
        assert total == pytest.approx(float(expected["b"].sum()), rel=1e-9)
        assert got.columns.to_list() == ["a", "b", "c", "s"]
        for name in ("a", "b", "c", "s"):
            assert got[name].values.tolist() == expected[name].values.tolist()

    def test_nothing_carried_keeps_the_first_column(self, local, gathers):
        with make_session() as session:
            df = from_frame(local, session)
            flt = df[df["b"] > 0]
            got = flt.reset_index()[["index"]].fetch()
        expected = local[local["b"] > 0].reset_index()[["index"]]
        assert got["index"].values.tolist() == \
            expected["index"].values.tolist()
        # the source reads only the mask's column, and the rows ride on it
        assert all(c.columns == ["b"] for c in flt.data.chunks)
        assert gathers
        for op, result in gathers:
            assert op.params["columns"] == []
            assert result.columns.to_list() == ["b"]

    def test_without_pruning_every_column_is_gathered(self, local, gathers):
        with make_session(column_pruning=False) as session:
            df = from_frame(local, session)
            flt = df[df["a"] > 10]
            total = float(flt["b"].sum())
        assert total == pytest.approx(
            float(local[local["a"] > 10]["b"].sum()), rel=1e-9)
        assert gathers
        for op, result in gathers:
            assert op.params["columns"] is None
            assert result.columns.to_list() == ["a", "b", "c", "s"]
        assert all(c.columns == ["a", "b", "c", "s"]
                   for c in flt.data.chunks)

    def test_series_filter_is_unchanged(self, local, gathers):
        with make_session() as session:
            b = from_frame(local, session)["b"]
            got = b[b > 0].fetch()
        assert got.values.tolist() == \
            local["b"][local["b"] > 0].values.tolist()
        assert gathers
        assert all(op.params["columns"] is None for op, _ in gathers)

    def test_dictionary_survives_the_projection(self, local, gathers):
        with make_session(chunk_engine="columnar") as session:
            df = from_frame(local, session)
            flt = df[df["a"] > 10]
            got = flt.groupby("s").agg({"b": "sum"}).fetch()
        expected = local[local["a"] > 10].groupby("s").agg({"b": "sum"})
        np.testing.assert_allclose(got.sort_index()["b"].values,
                                   expected.sort_index()["b"].values)
        assert got.sort_index().index.to_list() == \
            expected.sort_index().index.to_list()
        assert gathers
        for _, result in gathers:
            assert result.columns.to_list() == ["b", "s"]
            categories, codes = dtypes.dictionary_of(result["s"].values)
            assert categories[codes].tolist() == \
                result["s"].values.tolist()

    def test_carried_list_survives_pickling(self, local):
        op = FilterChunk(columns=["b", "s"])
        clone = pickle.loads(pickle.dumps(op))
        assert clone.params["columns"] == ["b", "s"]
        frame = local.iloc[:50]
        mask = frame["a"] > 10
        assert clone.func(frame, mask).columns.to_list() == ["b", "s"]

    def test_process_mode_matches_serial(self):
        tables = generate_tables(sf=0.5, seed=2)
        results = {}
        for mode in ("serial", "process"):
            with make_session(chunk_store_limit=16 * 1024,
                              execution_mode=mode) as session:
                t = {name: from_frame(frame, session)
                     for name, frame in tables.items()}
                q1(t).fetch()
                filters, total = q6_filters(t)
                results[mode] = float(total)
                assert [len(f.data.chunks[0].columns) for f in filters] \
                    == [4, 3, 3, 2]
        _, expected = q6_filters(tables)
        assert results["process"] == results["serial"]
        assert results["serial"] == pytest.approx(float(expected), rel=1e-9)
