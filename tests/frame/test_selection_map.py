"""A filter's row selection read by the groupby map, against the kernels
it replaced: gathering the filtered frame whole, then grouping it
(``reference_kernels.filter_rows`` / ``groupby_map``).  On random
selections over every key kind the map returns the same cells, of the
same types, and the same float bits; the selection itself reports its
frame's bytes without gathering and materializes to the gathered frame.
"""

import numpy as np
import pytest

from repro.dataframe.groupby import GroupByAgg
from repro.engine.columnar import encode_column
from repro.frame import DataFrame, dtypes
from repro.frame.index import Index

from .reference_kernels import filter_rows, groupby_map, signature

#: above ``dtypes.IDENTITY_ROWS``, so a key of a few shared objects is
#: numbered on the base column
N = 1500


def _objects(rng, n, with_na=True):
    cells = np.array([f"g{i}" for i in rng.integers(0, 6, n)], dtype=object)
    if with_na:
        cells[rng.random(n) < 0.1] = None
        cells[rng.random(n) < 0.05] = np.nan
    return cells


KEYS = {
    "int": lambda rng, n: rng.integers(-4, 20, n),
    "float_nan": lambda rng, n: np.where(
        rng.random(n) < 0.2, np.nan, rng.integers(0, 9, n).astype(float)),
    "object_na": _objects,
    "object_many": lambda rng, n: np.array(
        [f"m{i}" for i in rng.integers(0, 300, n)], dtype=object),
    # equal cells of different types: the label is the first one selected
    "object_mixed": lambda rng, n: np.array(
        [(1, 1.0, True, 2, "a")[i] for i in rng.integers(0, 5, n)],
        dtype=object),
    "datetime": lambda rng, n: np.datetime64("2020-01-01") + rng.integers(
        0, 30, n).astype("timedelta64[D]"),
    "dictionary": lambda rng, n: encode_column(_objects(rng, n, False)),
}

PLAN = [
    ("a", "v", "sum"), ("b", "v", "mean"), ("c", "v", "var"),
    ("d", "v", "std"), ("e", "w", "min"), ("f", "w", "max"),
    ("g", "w", "count"), ("h", "v", "size"), ("i", "s", "nunique"),
    ("j", "s", "first"), ("k", "s", "last"), ("l", "v", "median"),
    ("m", "b", "any"), ("n", "b", "all"),
]


def frame_of(rng, first: str, second: str) -> DataFrame:
    v = rng.normal(size=N) * 10.0 ** rng.integers(-3, 4, N)
    v[rng.random(N) < 0.05] = np.nan
    frame = DataFrame({
        "k1": KEYS[first](rng, N),
        "k2": KEYS[second](rng, N),
        "v": v,
        "w": rng.integers(-50, 50, N),
        "s": _objects(rng, N),
        "b": rng.random(N) < 0.5,
    })
    if rng.random() < 0.5:  # a chunk's labels are not always its positions
        frame = DataFrame._new(dict(frame._data),
                               Index(rng.permutation(N) * 3),
                               list(frame._columns))
    return frame


def masks(rng, depth: int, keep: float):
    """``depth`` random masks, each over the rows the earlier ones kept."""
    n = N
    for _ in range(depth):
        mask = rng.random(n) < keep
        yield mask
        n = int(mask.sum())


def assert_identical(got: DataFrame, want: DataFrame) -> None:
    assert got.columns.to_list() == want.columns.to_list()
    for name in want.columns.to_list():
        assert signature(got[name].values) == signature(want[name].values), \
            name


CASES = [(first, second) for first in KEYS for second in ("int", first)]


@pytest.mark.parametrize("first,second", CASES,
                         ids=[f"{a}-{b}" for a, b in CASES])
def test_map_reads_selection_like_the_gathered_frame(first, second):
    rng = np.random.default_rng(sum(map(ord, first + second)))
    for trial in range(6):
        base = frame_of(rng, first, second)
        depth, keep = int(rng.integers(1, 4)), float(
            rng.choice([0.0, 0.002, 0.3, 0.7, 1.0]))
        selected, gathered = base.select_rows(np.ones(N, dtype=bool)), base
        for mask in masks(rng, depth, keep):
            selected = selected.select_rows(mask)
            gathered = filter_rows(gathered, mask)
        by = ["k1"] if trial % 2 else ["k1", "k2"]
        op = GroupByAgg(by=by, plan=PLAN)
        # the selection is charged its frame's bytes before any gather
        assert selected.nbytes == gathered.nbytes
        assert_identical(op._execute_map(selected), groupby_map(
            gathered, by, PLAN))
        frame = selected.materialize()
        assert_identical(frame, gathered)
        assert frame.index.to_list() == gathered.index.to_list()


def test_first_selected_cell_labels_a_group_of_equal_cells():
    """``1.0``, ``True`` and ``1`` are one group, labelled by whichever
    the selection sees first — not by the base column's first."""
    cells = np.array([1.0] * 600 + [True] * 600 + [1] * 600, dtype=object)
    base = DataFrame({"k": cells, "v": np.arange(1800.0)})
    plan = [("a", "v", "sum")]
    labels = set()
    for start in (0, 600, 1200):
        mask = np.arange(1800) >= start
        got = GroupByAgg(by=["k"], plan=plan)._execute_map(
            base.select_rows(mask))
        assert_identical(got, groupby_map(filter_rows(base, mask), ["k"],
                                          plan))
        labels.add(repr(signature(got["k"].values)))
    assert len(labels) > 1


@pytest.mark.parametrize("key", KEYS)
def test_one_mask_selection_materializes_like_the_gathered_frame(
        key, monkeypatch):
    """A selection one mask made over its base compresses its object
    columns by that mask when it keeps most rows; it, its projections and
    its assignments materialize to the frame the ``int64`` gather
    builds, dictionaries included."""
    compressed = []
    take = dtypes.take

    def booked(arr, rows):
        compressed.append(getattr(rows, "dtype", None) == bool)
        return take(arr, rows)

    rng = np.random.default_rng(sum(map(ord, key)))
    for keep in (0.0, 0.002, 0.3, 0.99, 1.0):
        base = frame_of(rng, key, "int")
        mask = rng.random(N) < keep
        selected = base.select_rows(mask)
        assert (selected.mask is mask) is (keep > 0.9)
        gathered = filter_rows(base, mask)
        compressed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dtypes, "take", booked)
            frame = selected.materialize()
        assert any(compressed) is (keep > 0.9)
        assert_identical(frame, gathered)
        assert frame.index.to_list() == gathered.index.to_list()
        want = dtypes.dictionary_of(gathered["k1"].values)
        got = dtypes.dictionary_of(frame["k1"].values)
        assert (got is None) is (key != "dictionary") is (want is None)
        if want is not None:
            assert got[0] is want[0] and np.array_equal(got[1], want[1])
        narrow = selected[["k1", "v"]].assign(x=selected["v"] * 2.0)
        assert narrow.mask is selected.mask
        want = gathered[["k1", "v"]].assign(x=gathered["v"] * 2.0)
        assert_identical(narrow.materialize(), want)
