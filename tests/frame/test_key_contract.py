"""The key contract (``repro.frame.dtypes``), crossed over key dtypes.

A shuffle is correct only if a row's hash partition, its place among
the range cuts and the local kernel agree on which keys are missing,
which are equal and how they order.  Every pair of the key dtypes below
is merged distributed with all four ``how``s — under dynamic tiling with
a forced range shuffle, and on the static plan, which hash-shuffles —
and must return the rows ``repro.frame.merge`` returns.  Each key dtype
is grouped and sorted distributed against the single-node result, and
the frame's ``isin``, ``unique`` and ``drop_duplicates`` are held to
their per-cell definitions.

Values are compared under the contract's equality: a partition may
hand a key back as ``int64`` where the single-node result has
``float64``, but ``2**63 + 1`` is never ``2.0**63``.
"""

import itertools
import operator

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.dataframe.shuffle import ShufflePartition
from repro.engine.partition import assign_range_partitions
from repro.frame import dtypes
from repro.frame.hashing import hash_array

from . import reference_kernels as reference

N = 120
HOWS = ("inner", "left", "right", "outer")
NAT = np.datetime64("NaT", "ns")


def key_column(kind: str, seed: int) -> np.ndarray:
    """``N`` keys of ``kind`` drawn so that every kind shares values
    with the others: small integers, halves, integers past 2**53 that
    float64 rounds, and cells past 2**63."""
    small = np.random.default_rng(seed).integers(-2, 7, N)
    if kind in ("int8", "int32"):
        return small.astype(kind)
    if kind == "int64":
        out = small.astype(kind)
        out[5::17], out[7::19] = 2**53 + 3, 2**53 + 4
        return out
    if kind == "uint64":
        out = np.abs(small).astype(np.uint64)
        out[::7], out[3::11] = 2**63 + 1, 2**64 - 1
        return out
    if kind == "float32":
        return (small / 2).astype(np.float32)
    if kind == "float64":
        out = small / 2
        out[::5], out[1::13], out[2::17] = np.nan, 2.0**63, 2.0**53 + 4
        return out
    if kind == "bool":
        return small > 2
    if kind == "datetime64[ns]":
        out = np.abs(small).astype("datetime64[ns]")
        out[::6] = NAT
        return out
    cells = small.tolist()
    if kind == "str/None":
        cells = [None if v < 0 else f"s{v}" for v in cells]
    elif kind == "int/float":
        cells = [v if v % 2 else v / (1 if v % 3 else 2) for v in cells]
    else:  # int/str
        cells = [v if v % 2 else f"s{v}" for v in cells]
    return dtypes.object_array(cells)


KINDS = ["int8", "int32", "int64", "uint64", "float32", "float64", "bool",
         "datetime64[ns]", "str/None", "int/float", "int/str"]
PAIRS = list(itertools.combinations_with_replacement(KINDS, 2))


def rank(cell):
    """A Python cell under the contract, written out per cell: missing
    cells are one value; numbers compare as Python numbers (``1 ==
    1.0 == True``, ``2**63 + 1 != 2.0**63``) before other types, which
    compare by type name, then value."""
    if cell is None or (isinstance(cell, float) and cell != cell):
        return (0,)
    if isinstance(cell, (int, float)):
        return (1, "", cell)
    return (1, type(cell).__name__, cell)


def rows(frame, columns=None) -> list:
    """The frame's rows, in order, as tuples of ranks."""
    names = columns or frame.columns.to_list()
    return list(zip(*[map(rank, frame[name].values.tolist())
                      for name in names]))


def session(dynamic: bool) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 900  # every side spans several chunks
    cfg.tree_reduce_threshold = 1  # groupby always shuffles
    cfg.dynamic_tiling = dynamic
    return Session(cfg)


@pytest.fixture(scope="module")
def sessions():
    opened = {"range shuffle": session(True), "hash shuffle": session(False)}
    yield opened
    for each in opened.values():
        each.close()


def shuffle_boundaries(tileable) -> set:
    """Whether the shuffle maps behind ``tileable`` cut ranges (True) or
    hash (False)."""
    seen, found, stack = set(), set(), list(tileable.chunks)
    while stack:
        chunk = stack.pop()
        if chunk.key in seen or chunk.op is None:
            continue
        seen.add(chunk.key)
        if isinstance(chunk.op, ShufflePartition):
            found.add(chunk.op.boundaries is not None)
        stack.extend(chunk.op.inputs)
    return found


def frames(left: str, right: str):
    seed = KINDS.index(left) * 100 + KINDS.index(right)
    return (pf.DataFrame({"k": key_column(left, seed), "a": np.arange(N)}),
            pf.DataFrame({"k": key_column(right, seed + 1),
                          "b": np.arange(N)}))


@pytest.mark.parametrize("left,right", PAIRS,
                         ids=[f"{l}-{r}" for l, r in PAIRS])
def test_distributed_merge(sessions, left, right):
    a, b = frames(left, right)
    for plan, each in sessions.items():
        da, db = from_frame(a, each), from_frame(b, each)
        merged = [da.merge(db, on="k", how=how) for how in HOWS]
        each.execute(*[m.data for m in merged])
        for how, got in zip(HOWS, merged):
            assert shuffle_boundaries(got.data) == {plan == "range shuffle"}
            want = pf.merge(a, b, on="k", how=how)
            assert sorted(rows(got.fetch())) == sorted(rows(want)), \
                (plan, how)


@pytest.mark.parametrize("left,right", PAIRS,
                         ids=[f"{l}-{r}" for l, r in PAIRS])
def test_equal_keys_share_a_partition(left, right):
    """The kernels themselves: keys that ``merge`` matches hash alike
    and fall between the same cuts, whatever their dtypes — with every
    distinct key of both sides a cut, so ``2**53 + 3`` is one."""
    a, b = frames(left, right)
    pairs = pf.merge(a, b, on="k")
    la, rb = pairs["a"].values, pairs["b"].values
    distinct = {rank(cell): cell for cell in itertools.chain(
        a["k"].values.tolist(), b["k"].values.tolist())}
    cuts = [distinct[ranked] for ranked in sorted(distinct) if ranked != (0,)]
    for side_a, side_b in (
            (hash_array(a["k"].values), hash_array(b["k"].values)),
            (assign_range_partitions(a["k"].values, cuts),
             assign_range_partitions(b["k"].values, cuts))):
        assert (side_a[la] == side_b[rb]).all()


@pytest.mark.parametrize("kind", KINDS)
def test_distributed_groupby_and_sort(sessions, kind):
    local = pf.DataFrame({"k": key_column(kind, 7), "v": np.arange(N)})
    dist = from_frame(local, sessions["range shuffle"])
    got = dist.groupby("k").agg({"v": "sum"})
    got.execute()
    assert shuffle_boundaries(got.data) == {True}
    want = local.groupby("k").agg({"v": "sum"})
    assert rows(got.fetch().reset_index()) == rows(want.reset_index())
    for ascending in (True, False):
        got = dist.sort_values("k", ascending=ascending)
        got.execute()
        assert shuffle_boundaries(got.data) == {True}
        want = local.sort_values("k", ascending=ascending)
        assert rows(got.fetch()) == rows(want), ascending


ITEMS = [[1, 2.0, True, 0.5], [2**63 + 1, 2.0**63, -2, np.float32(1.5)],
         [np.nan, 3], [None, "s1", 1], [NAT, np.datetime64(3, "ns")], []]


@pytest.mark.parametrize("kind", KINDS)
def test_frame_isin(kind):
    column = key_column(kind, 11)
    for items in ITEMS:
        got = pf.Series(column).isin(items).values
        assert reference.signature(got) == reference.signature(
            reference.isin(column, items)), items


@pytest.mark.parametrize("kind", KINDS)
def test_frame_unique(kind):
    column = key_column(kind, 13)
    want = {rank(cell): cell for cell in column.tolist()}
    got = pf.Series(column).unique().tolist()
    assert sorted(map(rank, got)) == sorted(want)


@pytest.mark.parametrize("kind", KINDS)
def test_frame_drop_duplicates(kind):
    local = pf.DataFrame({"k": key_column(kind, 17),
                          "g": np.arange(N) % 3})
    for subset, keep in itertools.product((None, ["k"]), ("first", "last")):
        columns = [local[name].values for name in subset or ["k", "g"]]
        kept = ~reference.duplicated(columns, keep)
        got = local.drop_duplicates(subset=subset, keep=keep)
        assert got.index.to_list() == np.flatnonzero(kept).tolist()
        assert rows(got) == rows(local.iloc[np.flatnonzero(kept)])
    assert local["k"].duplicated().values.tolist() == \
        reference.duplicated([local["k"].values]).tolist()


OBJECT_KINDS = [kind for kind in KINDS if "/" in kind]


@pytest.mark.parametrize("column", [
    *(key_column(kind, 19) for kind in OBJECT_KINDS),
    dtypes.object_array([float("nan"), float("nan"), None, "a", None]),
], ids=[*OBJECT_KINDS, "nan-objects"])
def test_unique_holds_the_cells_duplicated_keeps(column):
    """Missing cells are one value for ``unique`` as for ``duplicated``:
    the first missing cell stands for them all."""
    series = pf.Series(column)
    kept = series[~series.duplicated()].values.tolist()
    got = series.unique().tolist()
    assert len(got) == len(kept)
    assert all(map(operator.is_, got, kept))


def group_key_column(kind: str) -> np.ndarray:
    """``N`` object keys of ints and floats: all exact in ``float64``
    (tightened to it), ints past ``int64`` among small ones (kept as
    Python ints), or ints past 2**53 among floats (kept as cells)."""
    cells = key_column("int/float", 23).tolist()
    if kind == "past int64":
        cells = [int(v) * 2**62 if i % 5 else int(v) for i, v in
                 enumerate(cells)]
    elif kind == "past 2**53":
        cells[3::11] = [2**53 + 1] * len(cells[3::11])
        cells[6::13] = [2**63 + 1] * len(cells[6::13])
    return dtypes.object_array(cells)


def test_group_key_tightens_only_when_exact():
    """An object key of ints and floats becomes ``float64`` only when
    every key is exact there; ``2**63 + 1`` is not ``2.0**63``."""
    def labels(cells):
        frame = pf.DataFrame({"k": dtypes.object_array(cells),
                              "v": np.arange(len(cells))})
        return frame.groupby("k").agg({"v": "sum"}).index.values

    exact = labels([3, 2.5, 1, 2.5])
    assert exact.dtype == np.float64 and exact.tolist() == [1.0, 2.5, 3.0]
    inexact = labels([2**63 + 1, 2.5, 1, 2**53 + 1])
    assert inexact.dtype == object
    assert [(type(c), c) for c in inexact.tolist()] == [
        (int, 1), (float, 2.5), (int, 2**53 + 1), (int, 2**63 + 1)]


@pytest.mark.parametrize("limit", [250, 600, 1500, 10**6])
@pytest.mark.parametrize("reduce", ["tree", "shuffle"])
@pytest.mark.parametrize("kind", ["exact", "past int64", "past 2**53"])
def test_group_labels_are_the_frame_labels(kind, reduce, limit):
    """Distributed group labels have the single-node dtype, values and
    cell types (``2**53 + 1`` stays an int, and so does ``1`` beside it)
    over any chunking and either reduce: the keys are tightened once,
    over all of them, wherever a partial or a reducer holds only some."""
    local = pf.DataFrame({"k": group_key_column(kind), "v": np.arange(N)})
    want = local.groupby("k").agg({"v": "sum"})
    cfg = Config()
    cfg.chunk_store_limit = limit
    cfg.tree_reduce_threshold = 1 if reduce == "shuffle" else 1 << 30
    with Session(cfg) as each:
        got = from_frame(local, each).groupby("k").agg({"v": "sum"}).fetch()
    labels, want_labels = got.index.values, want.index.values
    assert labels.dtype == want_labels.dtype
    assert list(map(rank, labels.tolist())) == \
        list(map(rank, want_labels.tolist()))
    assert got["v"].values.tolist() == want["v"].values.tolist()
    assert list(map(type, labels.tolist())) == \
        list(map(type, want_labels.tolist()))


@pytest.mark.parametrize("limit", [400, 1500, 10**6])
def test_left_merge_of_ints_past_2_53_is_the_frame_float64(limit):
    """A left merge's unmatched rows turn an ``int64`` value column past
    2**53 into ``float64`` on one node.  Distributed, a reducer whose
    rows all match keeps ``int64``; its piece concatenates with the
    others into that same ``float64`` column, as NumPy and pandas
    promote, not into an object column of mixed cells."""
    keys = np.arange(N)
    left = pf.DataFrame({"k": keys, "a": keys})
    right = pf.DataFrame({"k": keys[N // 3:],
                          "big": 2**53 + 1 + keys[N // 3:] * 2**12})
    want = pf.merge(left, right, on="k", how="left").sort_values("k")
    assert want["big"].values.dtype == np.float64
    cfg = Config()
    cfg.chunk_store_limit = limit
    with Session(cfg) as each:
        got = from_frame(left, each).merge(
            from_frame(right, each), on="k", how="left").fetch()
    got = got.sort_values("k")
    assert got["big"].values.dtype == np.float64
    np.testing.assert_array_equal(got["big"].values, want["big"].values)
    assert got["k"].values.tolist() == want["k"].values.tolist()


def test_values_of_ints_past_2_53_beside_floats_are_float64():
    """``DataFrame.values`` promotes ``int64`` and ``float64`` columns
    to one ``float64`` matrix, ints past 2**53 rounded, as NumPy does."""
    ints = np.array([2**53 + 1, 5], dtype=np.int64)
    matrix = pf.DataFrame({"t": ints, "f": [0.5, 1.5]}).values
    assert matrix.dtype == np.float64
    assert matrix[:, 0].tolist() == ints.astype(np.float64).tolist()
