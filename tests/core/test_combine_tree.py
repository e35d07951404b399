"""Every map-combine-reduce operator builds its combine stage through
``repro.utils.combine_tree``: the same tree shape, whoever builds it.

Each operator runs over n input chunks for n in ``COUNTS``, and its
chunk graph is walked from the result down to the map step:

- no tree node reads more than ``COMBINE_ARITY`` inputs;
- over two or more chunks the final node reads more than one input
  (no one-input hop on top of the last combine);
- the tree is ⌈log₄ n⌉ levels tall above the map step — one level over
  a single chunk when the operator has its own final node;
- the fetched value equals the single-node ``repro.frame`` / NumPy one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.dataframe.misc import UniqueValues, UniqueValuesChunk
from repro.learn.cluster import KMeansStep
from repro.tensor import linalg
from repro.tensor.core import lstsq, tensor_from_numpy
from repro.utils import COMBINE_ARITY

COUNTS = (1, 2, 4, 5, 16, 17)
ROWS = 10  # rows per input chunk


def session_for(frame: pf.DataFrame | None = None, **overrides) -> Session:
    """A session whose ``chunk_store_limit`` cuts ``frame`` (or any
    tensor source of at most 24 bytes a row) into ``ROWS``-row chunks."""
    cfg = Config()
    per_row = frame.nbytes // len(frame) if frame is not None else 24
    cfg.chunk_store_limit = ROWS * per_row
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def expected_levels(n: int, own_final: bool) -> int:
    levels, reach = 0, 1
    while reach < n:
        reach *= COMBINE_ARITY
        levels += 1
    return max(levels, 1) if own_final else levels


def walk(out, is_map) -> tuple[int, int, list[int]]:
    """``(levels above the map step, map chunks, every tree node's
    fan-in)`` of the tree under ``out``."""
    fan_ins: list[int] = []
    maps: set[str] = set()

    def depth(chunk) -> int:
        if is_map(chunk.op):
            maps.add(chunk.key)
            return 0
        fan_ins.append(len(chunk.op.inputs))
        below = {depth(child) for child in chunk.op.inputs}
        assert len(below) == 1, "every path down meets the map step alike"
        return 1 + below.pop()

    return depth(out), len(maps), fan_ins


def cells(values) -> tuple:
    values = np.asarray(values)
    return values.dtype, [(type(c), repr(c)) for c in values.tolist()]


def assert_same_cells(got, want) -> None:
    assert cells(got) == cells(want)


def floats_with_nan(n: int) -> np.ndarray:
    out = np.random.default_rng(n).normal(size=ROWS * n).round(2)
    out[::7] = np.nan
    return out


def objects_with_missing(n: int) -> np.ndarray:
    """Strings, ``None`` and distinct NaN objects, every chunk a mix."""
    pool = ["a", None, "b", float("nan"), "c", float("nan"), "a", None]
    out = np.empty(ROWS * n, dtype=object)
    out[:] = [pool[(i * 3 + i // ROWS) % len(pool)] for i in range(len(out))]
    return out


# -- the operators: each returns ([(session, tileable data, check)],
#    is_map(op), whether it has its own final node)


def series_reductions(n):
    local = pf.DataFrame({"v": floats_with_nan(n)})
    session = session_for(local)
    column = from_frame(local, session)["v"]
    cases = []
    for how in ("sum", "mean", "var", "nunique", "count", "max"):
        want = getattr(local["v"], how)()
        cases.append((getattr(column, how)().data,
                      lambda got, want=want: np.testing.assert_allclose(
                          got, want, rtol=1e-12)))
    return [(session, *case) for case in cases], \
        lambda op: op.stage_role == "map", True


def frame_reductions(n):
    local = pf.DataFrame({"a": floats_with_nan(n),
                          "b": np.arange(ROWS * n, dtype=np.float64)})
    session = session_for(local)
    dist = from_frame(local, session)
    cases = []
    for how in ("sum", "mean", "min"):
        want = getattr(local, how)()

        def check(got, want=want):
            assert got.index.to_list() == want.index.to_list()
            np.testing.assert_allclose(got.values.astype(float),
                                       want.values.astype(float), rtol=1e-12)
        cases.append((getattr(dist, how)().data, check))
    return [(session, *case) for case in cases], \
        lambda op: op.stage_role == "map", True


def unique_values(n):
    cases = []
    for values in (floats_with_nan(n), objects_with_missing(n)):
        local = pf.Series(values, name="v")
        session = session_for(local.to_frame())
        column = from_frame(local.to_frame(), session)["v"]
        op = UniqueValues()
        out = op.new_tileable([column.data], "tensor", (None,))
        cases.append((session, out, lambda got, want=local.unique():
                      assert_same_cells(got, want)))

    def is_map(op):
        return not isinstance(op.inputs[0].op, UniqueValuesChunk)
    return cases, is_map, False


def drop_duplicates(n):
    local = pf.DataFrame({"k": np.arange(ROWS * n) % 7,
                          "o": objects_with_missing(n)})
    session = session_for(local)
    want = local.drop_duplicates()

    def check(got):
        assert got.index.to_list() == want.index.to_list()
        for name in ("k", "o"):
            assert cells(got[name].values) == cells(want[name].values)
    out = from_frame(local, session).drop_duplicates().data

    def is_map(op):
        return type(op.inputs[0].op).__name__ != "DropDuplicatesChunk"
    return [(session, out, check)], is_map, False


def tensor_sum(n):
    session = session_for(chunk_store_limit=1 << 20)
    data = np.random.default_rng(n).normal(size=ROWS * n)
    t = tensor_from_numpy(data, session).rechunk(((ROWS,) * n,))

    def close_to_sum(got):
        np.testing.assert_allclose(got, data.sum(), rtol=1e-12)

    def is_max(got):
        assert got == data.max()
    return [(session, t.sum().data, close_to_sum),
            (session, t.max().data, is_max)], \
        lambda op: op.role == "map", True


def tensor_axis_mean(n):
    session = session_for(chunk_store_limit=1 << 20)
    data = np.random.default_rng(n).normal(size=(ROWS * n, 3))
    t = tensor_from_numpy(data, session).rechunk(((ROWS,) * n, (3,)))

    def check(got):
        np.testing.assert_allclose(got, data.mean(axis=0), rtol=1e-12)
    return [(session, t.mean(axis=0).data, check)], \
        lambda op: op.role == "map", True


def regression_data(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(ROWS * n, 3))
    y = x @ np.array([1.5, -2.0, 0.5]) + rng.normal(size=ROWS * n) * 0.1
    return x, y


def normal_equations(n, alpha):
    """``lstsq`` (``alpha`` 0) or the ridge fit's ``LstSq(alpha=...)``."""
    x, y = regression_data(n)
    session = session_for()
    tx, ty = tensor_from_numpy(x, session), tensor_from_numpy(y, session)
    if alpha:
        out = linalg.LstSq(alpha=alpha).new_tileable(
            [tx.data, ty.data], "tensor", (3,), dtype=np.float64)
        want = np.linalg.solve(x.T @ x + alpha * np.eye(3), x.T @ y)
    else:
        out = lstsq(tx, ty).data
        want = np.linalg.lstsq(x, y, rcond=None)[0]

    def check(got):
        np.testing.assert_allclose(got, want, rtol=1e-9)
    return [(session, out, check)], \
        lambda op: isinstance(op, linalg.NormalEquationsMap), True


def matmul(n):
    session = session_for(chunk_store_limit=1 << 20)
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(3, ROWS * n)), rng.normal(size=(ROWS * n, 2))
    ta = tensor_from_numpy(a, session).rechunk(((3,), (ROWS,) * n))
    out = (ta @ tensor_from_numpy(b, session)).data

    def check(got):
        np.testing.assert_allclose(got, a @ b, rtol=1e-9)
    return [(session, out, check)], \
        lambda op: type(op).__name__ == "MatMulBlock", False


def kmeans_step(n):
    session = session_for()
    data = np.random.default_rng(n).normal(size=(ROWS * n, 3))
    centers = data[:2].copy()
    out = KMeansStep(centers=centers).new_tileable(
        [tensor_from_numpy(data, session).data], "scalar", ())
    labels = ((data[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(1)

    def check(got):
        for c in range(2):
            np.testing.assert_allclose(got["sums"][c],
                                       data[labels == c].sum(axis=0))
            assert got["counts"][c] == (labels == c).sum()
    return [(session, out, check)], lambda op: op.role == "map", False


def gather_apply(n):
    local = pf.DataFrame({"v": floats_with_nan(n)})
    session = session_for(local)
    out = from_frame(local, session)["v"].quantile(0.3).data
    want = local["v"].quantile(0.3)

    def check(got):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # no map step: the tree reads the series' chunks themselves
    return [(session, out, check)], lambda op: type(op).__name__ not in (
        "ConcatChunks", "GatherApplyChunk"), True


def groupby_tree(n):
    local = pf.DataFrame({"k": np.arange(ROWS * n) % 6,
                          "v": np.arange(ROWS * n, dtype=np.float64)})
    session = session_for(local, dynamic_tiling=False, combine_stage=True)
    out = from_frame(local, session).groupby("k").agg({"v": "sum"}).data
    want = local.groupby("k").agg({"v": "sum"})

    def check(got):
        assert got.index.to_list() == want.index.to_list()
        assert got["v"].values.tolist() == want["v"].values.tolist()
    return [(session, out, check)], lambda op: op.stage == "map", True


OPERATORS = {
    "SeriesReduction": series_reductions,
    "DataFrameReduction": frame_reductions,
    "UniqueValues": unique_values,
    "TensorReduce-full": tensor_sum,
    "TensorReduce-axis": tensor_axis_mean,
    "LstSq": lambda n: normal_equations(n, alpha=0.0),
    "DropDuplicates": drop_duplicates,
    "MatMul": matmul,
    "KMeansStep": kmeans_step,
    "GatherApply": gather_apply,
    "GroupByAgg": groupby_tree,
    "LstSq-ridge": lambda n: normal_equations(n, alpha=0.5),
}


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("name", OPERATORS)
def test_tree_shape_and_value(name, n):
    cases, is_map, own_final = OPERATORS[name](n)
    try:
        for session, out, check in cases:
            session.execute(out)
            (result,) = out.chunks
            levels, n_maps, fan_ins = walk(result, is_map)
            assert n_maps == n, "the input was not cut into n chunks"
            assert all(k <= COMBINE_ARITY for k in fan_ins), fan_ins
            if n >= 2:
                assert len(result.op.inputs) > 1, "a one-input final hop"
            assert levels == expected_levels(n, own_final)
            check(session.fetch(out))
    finally:
        for session in {id(case[0]): case[0] for case in cases}.values():
            session.close()
