"""Group keys keep their dtype.

``Grouper.key_columns`` hands each typed key level downstream as the
typed array it is.  Turning it into an object column of NumPy scalars
sends every later kernel on the key (the distributed reduce, sorts,
``iloc``) through per-cell object paths, and it is what a two-key
``as_index=False`` groupby did to every typed key, and a lone key did to
``int32``, ``uint64``, ``bool`` and ``datetime64``.
"""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import default_config
from repro.core.session import Session
from repro.dataframe import from_frame
from repro.workloads.tpch import generate_tables
from repro.workloads.tpch.queries import q3

from .reference_kernels import key_signature

KEY_DTYPES = ["int64", "int32", "uint64", "bool", "float64",
              "datetime64[ns]", "str"]


def key_column(dtype: str, codes) -> np.ndarray:
    """``codes`` as a key column of ``dtype``: ``str`` keys are object
    cells, ``bool`` keys collapse the codes to two values."""
    codes = np.asarray(codes, dtype=np.int64)
    if dtype == "str":
        return np.array([f"key-{c}" for c in codes], dtype=object)
    if dtype == "bool":
        return codes % 2 == 1
    return (codes + 7).astype(dtype)


@pytest.fixture(params=KEY_DTYPES)
def frame(request):
    rng = np.random.default_rng(5)
    return pf.DataFrame({
        "k": key_column(request.param, rng.integers(0, 6, 40)),
        "j": key_column(request.param, rng.integers(0, 3, 40)),
        "v": rng.normal(size=40),
    })


class TestKeyColumnsKeepTheirDtype:
    def test_one_key(self, frame):
        out = frame.groupby("k", as_index=False).agg({"v": "sum"})
        assert out["k"].values.dtype == frame["k"].values.dtype

    def test_two_keys(self, frame):
        out = frame.groupby(["k", "j"], as_index=False).agg({"v": "sum"})
        for key in ("k", "j"):
            assert out[key].values.dtype == frame[key].values.dtype

    def test_one_key_index(self, frame):
        out = frame.groupby("k").agg({"v": "sum"})
        assert out.index.values.dtype == frame["k"].values.dtype

    def test_two_key_index_tuples_are_the_input_cells(self, frame):
        """The MultiIndex holds each distinct key pair in sorted order,
        its cells the scalars iterating the input columns yields."""
        out = frame.groupby(["k", "j"]).agg({"v": "sum"})
        pairs = sorted(set(zip(frame["k"].values, frame["j"].values)))
        assert key_signature(out.index) == key_signature(pairs)


def test_tpch_q3_keys_come_back_typed():
    """q3 groups three typed keys ``as_index=False``, then sorts on one of
    them: through a session its keys arrive typed and equal the local
    answer."""
    tables = generate_tables(sf=2.0, seed=3)
    want = q3(tables)
    cfg = default_config()
    cfg.cluster.n_workers = 2
    cfg.chunk_store_limit = 8 * 1024
    with Session(cfg) as session:
        handles = {name: from_frame(table, session)
                   for name, table in tables.items()}
        got = q3(handles).fetch()
        assert session.executor.report.n_subtasks > 10
    assert len(want) > 0
    assert got["l_orderkey"].values.dtype == np.int64
    assert got["o_orderdate"].values.dtype.kind == "M"
    assert got.columns.to_list() == want.columns.to_list()
    for name in want.columns.to_list():
        assert got[name].values.dtype == want[name].values.dtype
        if name == "revenue":
            np.testing.assert_allclose(got[name].values, want[name].values)
        else:
            np.testing.assert_array_equal(got[name].values, want[name].values)
