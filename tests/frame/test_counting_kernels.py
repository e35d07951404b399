"""Counting kernels answer exactly what the comparison sorts answered.

Each key cell is hashed once and the O(rows) integer work of grouping,
joining and partitioning is a count or a byte-wide radix sort.  Every such
kernel is run here next to its verbatim predecessor in
``reference_kernels`` on the inputs where the two could part: missing
cells of every kind, collapsing equal keys, zero rows, group and
partition counts either side of the 8- and 16-bit sort widths, code
spaces either side of the count table's memory bound, integer columns
either side of ``DENSE_RANGE``, and object columns either side of the
identity path's row floor, window and object bound.  "Exactly" is
values, dtypes, unique order and row order (``reference.signature``).
"""

import operator
from unittest import mock

import numpy as np
import pytest

from repro import frame as pf
from repro.engine import columnar
from repro.frame import Series, dtypes, groupby, join
from repro.frame.groupby import (
    DENSE_RANGE,
    Grouper,
    factorize,
    factorize_cells,
)
from repro.frame.sorting import id_runs

from . import reference_kernels as reference
from .reference_kernels import key_signature, signature

#: group / partition counts either side of the uint8 and uint16 widths
WIDTHS = [1, 255, 256, 257, 65_535, 65_536, 65_537]


def cells(*items) -> np.ndarray:
    return dtypes.object_array(items)


def same(got, want) -> None:
    assert len(got) == len(want)
    for got_part, want_part in zip(got, want):
        assert signature(got_part) == signature(want_part)


NA_COLUMNS = {
    "none-and-nan": cells("b", None, float("nan"), "a", None, "b"),
    # three NaN objects: each is its own dict key, and each is missing
    "distinct-nan-objects": cells(float("nan"), "a", float("nan"),
                                  np.float64("nan"), "a"),
    "one-collapse": cells(1, 1.0, True, None, 2, 0.5, False, 0),
    "true-first": cells(True, 1.0, 1, float("nan"), 0, False),
    "all-none": cells(None, None, None),
    "all-nan-objects": cells(float("nan"), float("nan")),
    "zero-rows": cells(),
}

na_columns = pytest.mark.parametrize("arr", NA_COLUMNS.values(),
                                     ids=NA_COLUMNS.keys())


def spread(n_rows: int, space: int, dtype="int64", low: int = 0) -> np.ndarray:
    """``n_rows`` integers from ``low`` whose range is exactly ``space``
    (both ends present), in a seeded order with repeats."""
    rng = np.random.default_rng(space)
    offsets = rng.integers(0, space, n_rows)
    offsets[:2] = 0, space - 1
    return (rng.permutation(offsets).astype(object) + low).astype(dtype)


I64, U64 = np.iinfo(np.int64), np.iinfo(np.uint64)

#: ``(column, counted)``: whether its range is within ``DENSE_RANGE``
INT_COLUMNS = {
    "range-2n": (spread(100, DENSE_RANGE * 100), True),
    "range-2n+1": (spread(100, DENSE_RANGE * 100 + 1), False),
    "negative": (spread(50, 80, low=-60), True),
    "int8-full-range": (spread(200, 256, "int8", low=-128), True),
    "int8-wide": (spread(20, 256, "int8", low=-128), False),
    "int32": (spread(1_000, 1_500, "int32", low=-700), True),
    "int64-at-min": (spread(10, 12, low=I64.min), True),
    "int64-at-max": (spread(10, 12, low=I64.max - 11), True),
    "int64-min-and-max": (np.array([I64.max, I64.min, 0]), False),
    "uint64-past-2**63": (spread(30, 40, "uint64", low=2**63 + 5), True),
    "uint64-at-max": (spread(10, 12, "uint64", low=U64.max - 11), True),
    "one-row": (np.array([-4], dtype=np.int64), True),
    "zero-rows": (np.array([], dtype=np.int32), False),
}


def scrambled_keys(n_groups: int, with_na: bool) -> np.ndarray:
    """``n_groups`` distinct float keys over about twice as many rows,
    in a seeded order, with NaN rows cycled in when ``with_na``."""
    rng = np.random.default_rng(n_groups)
    keys = rng.permutation(np.repeat(np.arange(n_groups, dtype=np.float64), 2))
    if with_na:
        keys[::7] = np.nan
        keys = np.concatenate([keys, np.arange(n_groups, dtype=np.float64)])
    return keys


class TestFactorize:
    @na_columns
    def test_matches_the_per_cell_loop(self, arr):
        same(factorize(arr), reference.factorize(arr))

    @na_columns
    def test_matches_the_two_pass_cells_on_what_is_present(self, arr):
        present = ~reference.isna_array(arr)
        codes, uniques = factorize_cells(arr)
        want_codes, want_uniques = reference.factorize_cells(
            arr[present].tolist())
        same((codes[present], uniques), (want_codes, want_uniques))
        assert (codes[~present] == -1).all()

    @pytest.mark.parametrize("arr, counted", INT_COLUMNS.values(),
                             ids=INT_COLUMNS.keys())
    def test_integer_columns_match_np_unique(self, arr, counted):
        with mock.patch.object(groupby, "dense_ids",
                               wraps=groupby.dense_ids) as dense_ids:
            got = factorize(arr)
        assert dense_ids.called == counted
        same(got, reference.factorize(arr))


def assert_first_seen_order_and_counts(arr: np.ndarray) -> None:
    """``Series.unique`` and ``value_counts`` against a per-cell loop.
    ``unique`` takes every missing cell as one value, as ``duplicated``
    does: the first stands for them all."""
    series = Series(arr)
    seen: dict = {}
    for cell in arr.tolist():
        missing = cell is None or (isinstance(cell, float) and cell != cell)
        seen.setdefault(None if missing else cell, cell)
    assert signature(series.unique()) == signature(
        np.array(list(seen.values()), dtype=object))
    counts = series.value_counts()
    present = ~reference.isna_array(arr)
    labels, freq = [], []
    for cell in arr[present].tolist():
        if cell in labels:
            freq[labels.index(cell)] += 1
        else:
            labels.append(cell)
            freq.append(1)
    order = np.argsort(np.array(freq, dtype=np.int64), kind="stable")[::-1]
    assert signature(counts.values) == signature(
        np.array(freq, dtype=np.int64)[order])
    assert signature(counts.index.values) == signature(
        np.array(labels, dtype=object)[order])


class TestSeriesUnique:
    """``Series.unique`` / ``value_counts`` once stood ``"__repro_na__"``
    in for ``None``, so a real cell of that text and ``None`` were one."""

    def test_none_and_the_old_sentinel_are_two_values(self):
        series = Series(["__repro_na__", None, "a"])
        assert series.nunique(dropna=False) == 3
        assert Series([None, "__repro_na__"]).nunique() == 1
        assert [type(v) for v in series.unique()] == [str, type(None), str]

    @na_columns
    def test_first_seen_order_and_counts(self, arr):
        assert_first_seen_order_and_counts(arr)

    def test_groupby_nunique_sees_both(self):
        frame = pf.DataFrame({"k": [1, 1, 1], "v": [None, "__repro_na__", "a"]})
        assert frame.groupby("k")["v"].agg("nunique").values.tolist() == [2]


ROWS, WINDOW, BOUND = (dtypes.IDENTITY_ROWS, dtypes.IDENTITY_WINDOW,
                       dtypes.IDENTITY_BOUND)


def fresh(text: str) -> str:
    """An equal string that is a new object."""
    return "".join(list(text))


def scattered(objects: list, n_rows: int = ROWS + 100,
              seed: int = 0) -> np.ndarray:
    """``n_rows`` cells, each one of ``objects`` (shared, not copied),
    every object present, in a seeded order."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(objects), n_rows)
    picks[:len(objects)] = np.arange(len(objects))
    return dtypes.object_array(objects[i] for i in rng.permutation(picks))


def runs(objects: list, run: int) -> np.ndarray:
    """``objects`` in order, each repeated ``run`` times: a sorted column."""
    return dtypes.object_array(o for o in objects for _ in range(run))


NAN = float("nan")
SHARED = [f"key-{i}" for i in range(BOUND + 1)]
STRIDED_BASE = scattered(SHARED[:3] + [None], 3 * ROWS + 1, seed=4)

#: ``(column, identity)``: whether it is numbered by address
IDENTITY_COLUMNS = {
    "shared-equal-objects": (scattered(["a", "b"]), True),
    "distinct-equal-objects": (scattered(
        [fresh("key"), fresh("key"), "x", fresh("x")]), True),
    "every-cell-its-own-object": (dtypes.object_array(
        fresh("key") for _ in range(ROWS)), False),
    "object-after-the-window": (dtypes.object_array(
        ["a"] * (WINDOW + 10) + ["z"] + ["a"] * ROWS), True),
    "sorted-window-one-object": (runs(SHARED[:3], ROWS // 2), True),
    "sorted-past-the-bound": (runs(SHARED + ["zz"], ROWS // 8), False),
    "k-at-the-bound": (scattered(SHARED[:BOUND]), True),
    "k-past-the-bound-in-window": (scattered(SHARED), False),
    "k-past-the-bound-after-window": (dtypes.object_array(
        SHARED[:BOUND] * (WINDOW // BOUND) + SHARED * (ROWS // BOUND)),
        False),
    "one-collapse": (scattered([1, 1.0, True, 0, False, 2.5]), True),
    "true-first": (scattered([True, 1, 1.0, None]), True),
    "str-and-np-str": (scattered(["a", np.str_("a"), "b"]), True),
    "none": (scattered([None, "a"]), True),
    "one-nan-object": (scattered([NAN, "a", None]), True),
    "several-nan-objects": (scattered(
        [float("nan"), "a", np.float64("nan"), float("nan")]), True),
    "strided": (STRIDED_BASE[::2], True),
    "reversed": (STRIDED_BASE[::-3], True),
    "zero-rows": (cells(), False),
    "one-row": (cells("a"), False),
    "window-rows": (scattered(["a", "b"], WINDOW), False),
    "window-plus-one-rows": (scattered(["a", "b"], WINDOW + 1), False),
    "rows-below-the-floor": (scattered(["a", "b"], ROWS - 1), False),
    "rows-at-the-floor": (scattered(["a", "b"], ROWS), True),
}


class TestIdentityPath:
    """A long column of a few shared objects is numbered by address and
    only its objects are hashed; the answers are the per-cell pass's."""

    @pytest.fixture(params=IDENTITY_COLUMNS.values(),
                    ids=IDENTITY_COLUMNS.keys())
    def column(self, request):
        arr, identity = request.param
        shared = dtypes.shared_objects(arr)
        assert (shared is not None) == identity
        return arr

    def test_first_seen_is_the_per_cell_pass(self, column):
        codes, distinct = dtypes.first_seen(column)
        want_codes, want_distinct = dtypes.hash_cells(column.tolist())
        assert signature(codes) == signature(want_codes)
        # the same representatives, not just equal ones
        assert len(distinct) == len(want_distinct)
        assert all(map(operator.is_, distinct, want_distinct))

    def test_shared_objects_are_the_cells(self, column):
        shared = dtypes.shared_objects(column)
        if shared is not None:
            ids, objects = shared
            assert len(set(map(id, objects))) == len(objects) <= BOUND
            rebuilt = dtypes.object_array(objects)[ids]
            assert all(map(operator.is_, rebuilt.tolist(), column.tolist()))

    def test_factorize_matches_the_per_cell_loop(self, column):
        same(factorize(column), reference.factorize(column))

    def test_factorize_cells_matches_the_two_pass_cells(self, column):
        present = ~reference.isna_array(column)
        codes, uniques = factorize_cells(column)
        want_codes, want_uniques = reference.factorize_cells(
            column[present].tolist())
        same((codes[present], uniques), (want_codes, want_uniques))
        assert (codes[~present] == -1).all()

    def test_series_unique_and_value_counts(self, column):
        assert_first_seen_order_and_counts(column)

    def test_encode_column_matches_the_per_cell_encode(self, column):
        got = columnar.encode_column(column)
        want = reference.encode_column(column)
        if want is None:
            assert dtypes.dictionary_of(got) is None
        else:
            categories, codes = dtypes.dictionary_of(got)
            same((categories, codes), want)


class TestSortedLayout:
    @pytest.mark.parametrize("n_groups", WIDTHS)
    @pytest.mark.parametrize("with_na", [False, True])
    def test_group_counts_around_the_sort_widths(self, n_groups, with_na):
        grouper = Grouper([scrambled_keys(n_groups, with_na)], ["k"])
        assert grouper.n_groups == n_groups
        same(grouper.sorted_layout(), reference.sorted_layout(grouper.codes))

    @na_columns
    def test_missing_and_empty_keys(self, arr):
        grouper = Grouper([arr], ["k"])
        same(grouper.sorted_layout(), reference.sorted_layout(grouper.codes))


def assert_same_compaction(key_arrays):
    factorized = [factorize(arr) for arr in key_arrays]
    grouper = Grouper(key_arrays, [f"k{i}" for i in range(len(key_arrays))])
    dense, present = reference.compact_codes(*zip(*factorized))
    assert signature(grouper.codes) == signature(dense)
    assert grouper.n_groups == len(present)
    same(grouper.sorted_layout(), reference.sorted_layout(dense))
    codes, n_groups, group_keys = reference.grouper(key_arrays)
    assert key_signature(grouper.group_keys) == key_signature(group_keys)


class TestMultiKeyCompaction:
    def test_counted_code_space(self):
        """10 x 10 codes over 1,000 rows: the count table fits."""
        rng = np.random.default_rng(1)
        names = dtypes.object_array(f"key-{i}" for i in range(10))
        first = names[rng.integers(0, 10, 1_000)]
        second = rng.integers(0, 10, 1_000).astype(np.float64)
        second[::9] = np.nan
        assert_same_compaction([first, second])

    def test_sorted_code_space_past_the_bound(self):
        """300 x 300 codes over 1,000 rows: the fallback sorts."""
        rng = np.random.default_rng(2)
        first = rng.integers(0, 300, 1_000)
        second = rng.integers(0, 300, 1_000).astype(np.float64)
        second[::11] = np.nan
        assert len(np.unique(first)) * len(np.unique(second[~np.isnan(second)])) > 1_000
        assert_same_compaction([first, second])

    @pytest.mark.parametrize("shape, counted", [
        ((9, 10), True),    # 90 codes over 45 rows: twice the rows
        ((7, 13), False),   # 91 codes over 45 rows: one past it
    ])
    def test_code_space_either_side_of_the_dense_range(self, shape, counted):
        """Float keys sort in ``factorize``, so the compaction is the
        only caller that may count."""
        rows = np.arange(45)
        keys = [(rows % n).astype(np.float64) for n in shape]
        assert np.prod(shape) == DENSE_RANGE * 45 + (not counted)
        with mock.patch.object(groupby, "dense_ids",
                               wraps=groupby.dense_ids) as dense_ids:
            assert_same_compaction(keys)
        assert dense_ids.called == counted

    @pytest.mark.parametrize("n_groups", WIDTHS)
    def test_group_counts_around_the_sort_widths(self, n_groups):
        keys = scrambled_keys(n_groups, with_na=True)
        assert_same_compaction([keys, np.zeros(len(keys), dtype=np.int64)])

    def test_missing_collapsing_and_empty_keys(self):
        for arr in NA_COLUMNS.values():
            other = np.arange(len(arr)) % 2
            assert_same_compaction([arr, other])
            assert_same_compaction([other, arr, other])


def join_codes(n_left: int, n_right: int, space: int, seed: int):
    """Join codes in ``[-1, space)`` — -1 is a missing key — with
    duplicates on both sides."""
    rng = np.random.default_rng(seed)
    return (rng.integers(-1, space, n_left).astype(np.int64),
            rng.integers(-1, space, n_right).astype(np.int64))


def both_orientations(case):
    """A case's codes as drawn, and with the sides swapped: each case runs
    with the left side smaller and with the right side smaller."""
    codes_l, codes_r = join_codes(*case, seed=case[2])
    space = case[2]
    return [(codes_l, codes_r, space), (codes_r, codes_l, space)]


def ranged_pairs(order, lo, counts):
    """The right rows each left row's range names, left row by left row."""
    starts = np.cumsum(counts) - counts
    flat = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
    return order[flat]


JOIN_CASES = {
    "counted": (400, 300, 50),
    "one-to-one-dimension": (2_000, 40, 40),
    "ids-at-uint8": (1_000, 500, 255),
    "ids-past-uint8": (1_000, 500, 256),
    "ids-at-uint16": (90_000, 40_000, 65_535),
    "ids-past-uint16": (90_000, 40_000, 65_536),
    # a code space far wider than the rows: ``_encode_keys`` compacts
    # such codes, but the kernel answers exactly on them too
    "wide-fallback": (300, 200, 1_000_000),
    # a broadcast side against a chunk, as on tpch_join
    "broadcast-probe": (60_000, 1_800, 60_000),
    "equal-sides": (300, 300, 100),
    "zero-left": (0, 50, 20),
    "zero-right": (50, 0, 20),
    "zero-rows": (0, 0, 5),
}

HOWS = ["inner", "left", "right", "outer"]


def merge_by_reference(left, right, how, on):
    """``merge`` on the oracle's exact key codes and indexers."""
    with mock.patch.object(join, "_encode_keys", reference.encode_keys), \
            mock.patch.object(join, "_join_indexers",
                              lambda codes_l, codes_r, how, space:
                              reference.join_indexers(codes_l, codes_r, how)):
        return pf.merge(left, right, how=how, on=on)


def assert_same_merge(got, want) -> None:
    assert got.columns.to_list() == want.columns.to_list()
    for name in got.columns.to_list():
        assert signature(got[name].values) == signature(want[name].values)


def ints(dtype, *values) -> np.ndarray:
    return np.array(values, dtype=dtype)


def around_dense_range(past: bool):
    """Two int64 key columns of 20 rows in all whose joint range is
    ``DENSE_RANGE`` times their rows, or one more."""
    span = DENSE_RANGE * 20 + past
    return (ints(np.int64, *range(-7, -7 + span, span // 11)[:10], -7 + span - 1),
            ints(np.int64, *range(-7, -7 + span, 4)[:9]))


INTEGER_KEY_PAIRS = {
    "negatives": (ints(np.int64, -5, -3, -3, 0, 2, -9),
                  ints(np.int64, -3, 2, 7, -5, -3)),
    "int8-full-range": (np.random.default_rng(8).permutation(
                            np.arange(-128, 128).astype(np.int8)),
                        ints(np.int8, 127, -128, 0, -1, 127, 5)),
    "uint64-past-2^63": (ints(np.uint64, 2**63 - 1, 2**63, 2**64 - 1, 2**63 + 5),
                         ints(np.uint64, 2**64 - 1, 2**63, 3, 2**63)),
    "uint64-past-2^63-wide": (ints(np.uint64, 0, 2**63, 2**64 - 1, 2**63 + 5),
                              ints(np.uint64, 2**64 - 1, 2**63, 3, 2**63)),
    "int32-int64": (ints(np.int32, -2**31, 2**31 - 1, 0, 7, 7),
                    ints(np.int64, 2**31 - 1, 2**31, -2**31, -2**31 - 1, 7)),
    "int32-int64-dense": (ints(np.int32, -3, -1, 0, 4, 4),
                          ints(np.int64, 4, -3, 2, 0)),
    "uint64-int64": (ints(np.uint64, 2**63 + 1, 5, 2**53 + 1, 2**64 - 1),
                     ints(np.int64, -1, 5, 2**53, 2**53 + 1, 2**63 - 1)),
    "uint64-int64-dense": (ints(np.uint64, 2**53 + 1, 2**53 + 3, 2**53 + 1),
                           ints(np.int64, 2**53, 2**53 + 1, 2**53 + 2)),
    "int64-uint64-past-2^63-dense": (ints(np.int64, 2**63 - 1, 2**63 - 3),
                                     ints(np.uint64, 2**63, 2**63 + 1, 2**63 - 1)),
    "just-inside-dense-range": around_dense_range(past=False),
    "just-past-dense-range": around_dense_range(past=True),
    "disjoint-dense": (ints(np.int64, *range(10)), ints(np.int64, *range(15, 25))),
    "disjoint-wide": (ints(np.int64, *range(10)),
                      ints(np.int64, *range(1_000, 1_010))),
    "empty-left": (ints(np.int64), ints(np.int64, 3, 1, 3)),
    "empty-right": (ints(np.uint16, 3, 1, 3), ints(np.uint16)),
    "empty-both": (ints(np.int8), ints(np.int64)),
    # a float equals an integer only when integral and in the int's range
    "int64-float64": (ints(np.int64, 2**53 + 1, 2**53, 3, -2**63, 2**63 - 1, 7),
                      np.array([2.0**53, 3.0, 3.5, np.nan, 2.0**63, -2.0**63,
                                np.inf, 7.0, -0.0])),
    "uint8-float32": (ints(np.uint8, 255, 0, 3, 3),
                      np.array([255.0, 256.0, -0.0, 3.0, -1.0, 2.5],
                               dtype=np.float32)),
}


class TestJoin:
    @pytest.mark.parametrize("case", JOIN_CASES.values(), ids=JOIN_CASES.keys())
    def test_match_ranges(self, case):
        """Each left row's range names the right rows the sorted right
        side gave it, in the same order, whichever side is smaller; a
        smaller left side orders only the right rows that match."""
        for codes_l, codes_r, space in both_orientations(case):
            order, lo, counts = join._match_ranges(codes_l, codes_r, space)
            want = reference.match_ranges(codes_l, codes_r)
            same((counts, ranged_pairs(order, lo, counts)),
                 (want[2], ranged_pairs(*want)))
            if len(codes_l) < len(codes_r):
                assert len(order) == len(np.unique(ranged_pairs(order, lo, counts)))

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("case", JOIN_CASES.values(), ids=JOIN_CASES.keys())
    def test_indexers(self, case, how):
        for codes_l, codes_r, space in both_orientations(case):
            same(join._join_indexers(codes_l, codes_r, how, space),
                 reference.join_indexers(codes_l, codes_r, how))

    def test_all_na_keys(self):
        codes = np.full(6, -1, dtype=np.int64)
        for how in HOWS:
            for codes_l, codes_r in [(codes, codes[:4]), (codes[:4], codes)]:
                same(join._join_indexers(codes_l, codes_r, how, 0),
                     reference.join_indexers(codes_l, codes_r, how))

    @pytest.mark.parametrize("how", HOWS)
    def test_merge_with_missing_keys(self, how):
        left = pf.DataFrame({
            "k": cells("a", None, "b", float("nan"), "a", 1, 1.0, True),
            "x": np.arange(8)})
        right = pf.DataFrame({"k": cells(None, "a", "c", 1, "a", float("nan")),
                              "y": np.arange(6) * 10})
        got = pf.merge(left, right, how=how, on="k")
        with mock.patch.object(join, "_join_indexers",
                               lambda codes_l, codes_r, how, space:
                               reference.join_indexers(codes_l, codes_r, how)):
            want = pf.merge(left, right, how=how, on="k")
        assert_same_merge(got, want)

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("pair", INTEGER_KEY_PAIRS.values(),
                             ids=INTEGER_KEY_PAIRS.keys())
    def test_merge_on_integer_keys(self, pair, how):
        """Integer keys match by exact value at any width and signedness,
        on the offset path and off it, with either side the smaller."""
        for keys_l, keys_r in [pair, pair[::-1]]:
            left = pf.DataFrame({"k": keys_l, "x": np.arange(len(keys_l))})
            right = pf.DataFrame({"k": keys_r,
                                  "y": np.arange(len(keys_r)) * 10.0})
            assert_same_merge(pf.merge(left, right, how=how, on="k"),
                              merge_by_reference(left, right, how, "k"))

    def test_offset_path_bound(self):
        """The offset path takes a single integer key pair up to a joint
        range of ``DENSE_RANGE`` times the rows, and no wider."""
        inside = around_dense_range(past=False)
        past = around_dense_range(past=True)
        bound = DENSE_RANGE * 20
        assert join._offsets(*inside, bound) is not None
        assert join._offsets(*past, bound) is None
        assert join._offsets(*INTEGER_KEY_PAIRS["disjoint-wide"], 40) is None
        assert join._offsets(*INTEGER_KEY_PAIRS["uint64-int64-dense"], 12) \
            is not None

    def test_mixed_signedness_matches_exactly(self):
        """int64 against uint64 matched through float64, where 2**53 and
        2**53 + 1 are one value."""
        left = pf.DataFrame({"k": ints(np.int64, 2**53, 2**53 + 1),
                             "x": np.arange(2)})
        right = pf.DataFrame({"k": ints(np.uint64, 2**53 + 1), "y": [7]})
        assert pf.merge(left, right, on="k")["x"].to_list() == [1]
        wide = pf.DataFrame({"k": ints(np.int64, 0, 2**53 + 1),
                             "x": np.arange(2)})
        far = pf.DataFrame({"k": ints(np.uint64, 2**53, 2**64 - 1),
                            "y": [7, 8]})
        assert len(pf.merge(wide, far, on="k")) == 0

    @pytest.mark.parametrize("how", ["outer", "right"])
    def test_coalesced_integer_key_is_exact(self, how):
        """The key column of a signed side against a uint64 side is int64
        when every value fits it, uint64 when none is negative, and
        object otherwise; never float64, which rounds past 2**53."""
        cases = [(ints(np.int64, 2**53 + 1), ints(np.uint64, 5), np.int64),
                 (ints(np.int64, 3), ints(np.uint64, 2**63 + 1), np.uint64),
                 (ints(np.int64, -1), ints(np.uint64, 2**63, 2**53 + 1),
                  object)]
        for keys_l, keys_r, dtype in cases:
            left = pf.DataFrame({"k": keys_l, "x": np.arange(len(keys_l))})
            right = pf.DataFrame({"k": keys_r, "y": np.arange(len(keys_r))})
            got = pf.merge(left, right, how=how, on="k")["k"].values
            want = (keys_l.tolist() if how == "outer" else []) \
                + keys_r.tolist()
            assert got.tolist() == want
            if how == "outer":
                assert got.dtype == dtype
            if got.dtype == object:  # cells are Python ints
                assert all(type(v) is int for v in got)

    def test_multi_key_dictionary_codes_do_not_overflow(self):
        """Two encoded keys of 60,000 categories each combine past the
        int32 range the dictionary codes come in."""
        n = 40_000

        def encoded(prefix, start):
            codes, categories = factorize(dtypes.object_array(
                [f"{prefix}{i}" for i in range(start, start + n)]))
            return dtypes.encoded(categories, codes.astype(np.int32))

        left = pf.DataFrame({"a": encoded("a", 0), "b": encoded("b", 0),
                             "x": np.arange(n)})
        right = pf.DataFrame({"a": encoded("a", n // 2),
                              "b": encoded("b", n // 2), "y": np.arange(n)})
        got = pf.merge(left, right, on=["a", "b"])
        assert got["x"].to_list() == list(range(n // 2, n))
        assert got["y"].to_list() == list(range(n // 2))

    @pytest.mark.parametrize("how", HOWS)
    def test_multi_key_wide_codes_are_compacted(self, how):
        """Several keys whose combined code space is far wider than the
        rows join exactly, and the count table stays within the bound."""
        rng = np.random.default_rng(3)
        left = pf.DataFrame({"a": rng.integers(0, 1_000, 300) * 1_000,
                             "b": rng.integers(0, 3, 300),
                             "c": cells(*rng.choice(["p", "q", None], 300)),
                             "x": np.arange(300)})
        right = pf.DataFrame({"a": rng.integers(0, 1_000, 200) * 1_000,
                              "b": rng.integers(0, 3, 200),
                              "c": cells(*rng.choice(["p", "q", None], 200)),
                              "y": np.arange(200)})
        keys = ["a", "b", "c"]
        codes_l, codes_r, space = join._encode_keys(
            [left[k].values for k in keys], [right[k].values for k in keys])
        assert space <= DENSE_RANGE * 500
        assert_same_merge(pf.merge(left, right, how=how, on=keys),
                          merge_by_reference(left, right, how, keys))


class TestPartitionOrder:
    """Both engines split a chunk in ``id_runs`` order."""

    @pytest.mark.parametrize("n_parts", WIDTHS)
    def test_partition_counts_around_the_sort_widths(self, n_parts):
        rng = np.random.default_rng(n_parts)
        assignment = rng.integers(0, n_parts, 2 * n_parts + 100).astype(np.int64)
        same(id_runs(assignment, n_parts),
             reference.partition_order(assignment, n_parts))

    def test_empty_partitions_and_zero_rows(self):
        for assignment in [np.array([3, 3, 0], dtype=np.int64),
                           np.array([], dtype=np.int64)]:
            same(id_runs(assignment, 5),
                 reference.partition_order(assignment, 5))
