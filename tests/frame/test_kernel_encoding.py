"""The C-speed kernels answer exactly what the per-cell loops answered.

One table of object columns, one per cell kind the loops special-cased or
silently tolerated; every kernel is run over it next to its verbatim
predecessor in ``reference_kernels``.  "Exactly" is values, dtypes, cell
types and unique order (``reference_kernels.signature``).
"""

import itertools
import operator

import numpy as np
import pytest

from repro import frame as pf
from repro.engine.columnar import encode_column
from repro.frame import AGGREGATIONS, Series, dtypes
from repro.frame.groupby import Grouper, factorize
from repro.frame.series import _tighten

from . import reference_kernels as reference
from .reference_kernels import key_signature, signature

NAN = float("nan")


def cells(*items) -> np.ndarray:
    return dtypes.object_array(items)


ENCODING_TABLE = {
    "all-str": cells("b", "a", "c", "a", "b"),
    "str-none": cells("b", None, "a", None, "b"),
    "str-nan": cells("b", NAN, "a", NAN, "b"),
    "str-none-nan": cells(None, "b", NAN, "a"),
    "empty-strings": cells("", "a", "", "\0", "b"),
    # 1 == 1.0 == True: one group, labelled by whichever came first
    "int-first-collapse": cells(1, 1.0, True, 2, 0.5, False, 0),
    "float-first-collapse": cells(1.0, 1, True, 2.5, 2),
    "bool-first-collapse": cells(True, 1, 1.0, False, 0.0),
    "float64-nan-cells": cells(np.float64("nan"), "a", np.float64(1.5), 1.5),
    # np.float32 is not a float subclass: its nan is a value, not NA
    "float32-nan-cells": cells(np.float32("nan"), np.float32(2.0), 2.0, 3),
    "bytes": cells(b"b", b"a", b"", b"a"),
    "str-and-bytes": cells("a", b"a", "b", b"b"),
    "tuples": cells((2, "x"), (1, "y"), (2, "x"), (1, "a")),
    "ragged-tuples": cells((2,), (1, "y"), (2,), ()),
    "np-str-cells": cells(np.str_("b"), "a", np.str_("a"), "b"),
    "np-int-cells": cells(np.int64(2), 2, np.int32(1), 1.0),
    "big-ints": cells(2 ** 70, 2 ** 70 + 1, 2 ** 70, -1),
    "zero-rows": cells(),
    "all-none": cells(None, None, None),
    "all-nan": cells(NAN, NAN),
    "single-row": cells("a"),
    "single-none": cells(None),
}

#: non-object key columns: untouched branches, pinned all the same
TYPED_COLUMNS = {
    "int64": np.array([3, 1, 3, 2, 1]),
    "float64-nan": np.array([1.5, np.nan, 0.5, 1.5, np.nan]),
    "bool": np.array([True, False, True, True, False]),
    "datetime-nat": np.array(["2024-01-02", "NaT", "2024-01-01", "2024-01-02",
                              "NaT"], dtype="datetime64[ns]"),
}

table = pytest.mark.parametrize("arr", ENCODING_TABLE.values(),
                                ids=ENCODING_TABLE.keys())


def assert_same_grouping(key_arrays):
    got = Grouper(key_arrays, [f"k{i}" for i in range(len(key_arrays))])
    codes, n_groups, group_keys = reference.grouper(key_arrays)
    assert signature(got.codes) == signature(codes)
    assert got.n_groups == n_groups
    assert key_signature(got.group_keys) == key_signature(group_keys)


class TestEncodingTable:
    @table
    def test_isna_array(self, arr):
        assert signature(dtypes.isna_array(arr)) == signature(
            reference.isna_array(arr))

    @table
    def test_factorize(self, arr):
        codes, uniques = factorize(arr)
        want_codes, want_uniques = reference.factorize(arr)
        assert signature(codes) == signature(want_codes)
        assert signature(uniques) == signature(want_uniques)

    @table
    def test_grouper_one_key(self, arr):
        assert_same_grouping([arr])

    @table
    def test_encode_column(self, arr):
        got, want = encode_column(arr), reference.encode_column(arr)
        if want is None:
            assert got is arr
        else:
            categories, codes = dtypes.dictionary_of(got)
            assert signature(categories) == signature(want[0])
            assert signature(codes) == signature(want[1])
            assert signature(got) == signature(arr)

    def test_float32_nan_is_a_value_not_na(self):
        arr = ENCODING_TABLE["float32-nan-cells"]
        assert not dtypes.isna_array(arr).any()
        assert (factorize(arr)[0] >= 0).all()

    def test_first_seen_labels_the_collapsed_group(self):
        for name, label in [("int-first-collapse", int),
                            ("float-first-collapse", float),
                            ("bool-first-collapse", bool)]:
            codes, uniques = factorize(ENCODING_TABLE[name])
            assert codes[0] == codes[1] == codes[2]
            assert type(uniques[codes[0]]) is label

    @pytest.mark.parametrize("name, arr", TYPED_COLUMNS.items(),
                             ids=TYPED_COLUMNS.keys())
    def test_typed_columns(self, name, arr):
        assert signature(dtypes.isna_array(arr)) == signature(
            reference.isna_array(arr))
        for got, want in zip(factorize(arr), reference.factorize(arr)):
            assert signature(got) == signature(want)
        assert_same_grouping([arr])


def outcome(fn):
    """``fn()``'s signature, or the type of what it raised: the loops
    raised too (``TypeError`` for ``"a" < 1``, ``OverflowError`` for
    ``2 ** 70 * "a"``, ``ValueError`` for the truth of
    ``np.float64(1.5) == (1, "y")``, which NumPy broadcasts)."""
    try:
        return signature(fn())
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1 / 0, 0 % 0 cells
class TestSeriesKernels:
    """``Series`` arithmetic / comparison over object cells, ``_tighten``
    and ``values_equal``."""

    OPERANDS = ["a", "", 1, 1.5, True, None, b"a", (1, "y")]

    @table
    @pytest.mark.parametrize("op", [operator.eq, operator.ne, operator.lt,
                                    operator.ge], ids=lambda op: op.__name__)
    def test_compare(self, arr, op):
        others = [*self.OPERANDS, arr[::-1].copy(), np.arange(len(arr)),
                  np.arange(len(arr)) * 0.5]
        for other in others:
            right = Series(other) if isinstance(other, np.ndarray) else other
            assert outcome(lambda: op(Series(arr), right).values) == outcome(
                lambda: reference.object_compare(arr, other, op))

    @table
    def test_arithmetic(self, arr):
        ops = [(operator.add, lambda s, o: s + o), (operator.mul, lambda s, o: s * o),
               (operator.sub, lambda s, o: s - o), (np.true_divide, lambda s, o: s / o),
               (np.mod, lambda s, o: s % o), (operator.and_, lambda s, o: s & o)]
        for func, apply in ops:
            for other in [*self.OPERANDS, 2, arr.copy()]:
                right = Series(other) if isinstance(other, np.ndarray) else other
                assert outcome(lambda: apply(Series(arr), right).values) == outcome(
                    lambda: reference.object_binop(arr, other, func))

    @table
    def test_reflected_arithmetic(self, arr):
        ops = [(lambda a, b: b + a, lambda s, o: o + s),
               (lambda a, b: b - a, lambda s, o: o - s),
               (lambda a, b: b * a, lambda s, o: o * s),
               (lambda a, b: np.true_divide(b, a), lambda s, o: o / s)]
        for func, apply in ops:
            for other in ["a", 2, 1.5, True, b"a"]:
                assert outcome(lambda: apply(Series(arr), other).values) == outcome(
                    lambda: reference.object_binop(arr, other, func))

    NUMERIC_CELLS = {
        "bools": cells(True, False),
        "ints-bools": cells(1, True, 2 ** 40),
        "ints-floats": cells(1, 2.5, True),
        "ints-floats-none": cells(1, None, 2.5, None),
        "all-none": cells(None, None),
        "nan-none": cells(NAN, None, 1),
        "np-scalars": cells(np.int64(1), 2),
    }

    @pytest.mark.parametrize(
        "arr", [*ENCODING_TABLE.values(), *NUMERIC_CELLS.values()],
        ids=[*ENCODING_TABLE.keys(), *NUMERIC_CELLS.keys()])
    def test_tighten(self, arr):
        assert outcome(lambda: _tighten(arr.copy())) == outcome(
            lambda: reference.tighten(arr.copy()))

    @table
    def test_values_equal(self, arr):
        others = [arr.copy(), arr[::-1].copy(), np.arange(len(arr)),
                  np.arange(len(arr)) * 1.0,
                  dtypes.object_array(range(len(arr)))]
        for other in others:
            for left, right in [(arr, other), (other, arr)]:
                assert outcome(lambda: dtypes.values_equal(left, right)) == \
                    outcome(lambda: reference.values_equal(left, right))


def _five_rows():
    """Every table column and typed column that can be cycled to five rows."""
    columns = {**ENCODING_TABLE, **TYPED_COLUMNS}
    return {name: arr[np.arange(5) % len(arr)]
            for name, arr in columns.items() if len(arr)}


class TestGrouperMultiKey:
    """Two and three keys: the combined code, its dense remap and the
    ``divmod`` that splits it back into per-level labels."""

    @pytest.mark.parametrize("left, right", itertools.combinations(
        _five_rows().values(), 2), ids=lambda arr: None)
    def test_two_keys(self, left, right):
        assert_same_grouping([left, right])
        assert_same_grouping([right, left])

    def test_three_keys(self):
        columns = list(_five_rows().values())
        for offset in range(len(columns)):
            picked = [columns[(offset + step) % len(columns)]
                      for step in (0, 3, 7)]
            assert_same_grouping(picked)

    def test_zero_rows_and_all_na_levels(self):
        empty = cells()
        assert_same_grouping([empty, empty])
        assert_same_grouping([empty, empty, np.array([], dtype=np.int64)])
        na = cells(None, None, None)
        assert_same_grouping([cells("a", "b", "a"), na])
        assert_same_grouping([na, cells("a", "b", "a"), np.arange(3)])


# ---------------------------------------------------------------------------
# concat: one copy per piece, same answer
# ---------------------------------------------------------------------------

def frame_signature(frame) -> tuple:
    """``signature`` of every column and of the index, plus the order."""
    if isinstance(frame, Series):
        return (frame.name, signature(frame.values),
                signature(frame.index.values))
    return (list(frame._columns),
            [signature(frame._data[name]) for name in frame._columns],
            signature(frame.index.values))


def _concat_cases():
    ints = pf.DataFrame({"a": np.arange(3), "k": cells("x", "y", "x")})
    floats = pf.DataFrame({"a": np.array([0.5, np.nan]),
                           "k": cells("z", None)})
    other_columns = pf.DataFrame({"b": np.array([True, False]),
                                  "k": cells("y", "y")})
    dates = pf.DataFrame({"a": np.array(["2024-01-01", "NaT"],
                                        dtype="datetime64[ns]")})
    no_rows = ints.iloc[:0]
    no_columns = pf.DataFrame({})
    labelled = pf.DataFrame({"a": np.arange(2)}, index=pf.Index(["r", "s"]))
    return {
        "same-dtypes": [ints, ints],
        "int-float": [ints, floats],
        "missing-column-blocks": [ints, other_columns, floats],
        "int-datetime-to-object": [ints, dates],
        "empty-pieces": [no_rows, ints, no_columns, no_rows, floats],
        "only-empty": [no_rows, no_rows],
        "single-piece": [floats],
        "labelled-index": [labelled, ints],
    }


class TestConcatKernel:
    @pytest.mark.parametrize("frames", _concat_cases().values(),
                             ids=_concat_cases().keys())
    @pytest.mark.parametrize("ignore_index", [True, False])
    def test_rows_match_the_two_copy_kernel(self, frames, ignore_index):
        got = pf.concat(frames, ignore_index=ignore_index)
        want = reference.concat_rows(frames, ignore_index)
        assert frame_signature(got) == frame_signature(want)

    @pytest.mark.parametrize("ignore_index", [True, False])
    def test_series_match_the_two_copy_kernel(self, ignore_index):
        for frames in _concat_cases().values():
            series = [f[f._columns[0]] for f in frames if f._columns]
            got = pf.concat(series, ignore_index=ignore_index)
            want = reference.concat_series(series, ignore_index)
            assert frame_signature(got) == frame_signature(want)

    @pytest.mark.parametrize("frames", _concat_cases().values(),
                             ids=_concat_cases().keys())
    def test_result_owns_its_memory(self, frames):
        """``astype(copy=False)`` hands ``np.concatenate`` the inputs
        themselves; what comes out must still alias none of them, a
        single piece included."""
        got = pf.concat(frames, ignore_index=True)
        inputs = [f._data[name] for f in frames for name in f._columns]
        for name in got._columns:
            assert not any(np.shares_memory(got._data[name], arr)
                           for arr in inputs if arr.dtype != object)
            assert not any(got._data[name] is arr for arr in inputs)
        series = [f[f._columns[0]] for f in frames if f._columns]
        out = pf.concat(series, ignore_index=True)
        assert not any(out.values is s.values for s in series)


# ---------------------------------------------------------------------------
# an encoded column and its plain twin are indistinguishable
# ---------------------------------------------------------------------------

def encode(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the columnar engine hands it to a kernel."""
    column = encode_column(arr)
    assert dtypes.dictionary_of(column) is not None
    return column


def assert_honest(arr: np.ndarray) -> None:
    """A dictionary that is still attached describes the cells."""
    dictionary = dtypes.dictionary_of(arr)
    if dictionary is None:
        return
    categories, codes = dictionary
    assert type(categories) is np.ndarray and codes.dtype == np.int32
    assert signature(categories[codes]) == signature(np.asarray(arr))
    assert categories.tolist() == sorted(set(categories.tolist()))


def assert_twins(run, *plain_frames):
    """``run`` answers the same on encoded inputs as on plain ones, cell
    type for cell type, and leaves only honest dictionaries behind."""
    twins = [pf.DataFrame({
        name: encode(f._data[name])
        if name in f.attrs_encoded else f._data[name]
        for name in f._columns}, index=f.index) for f in plain_frames]
    want, got = run(*plain_frames), run(*twins)
    assert outcome_of(got) == outcome_of(want)
    for arr in columns_of(got):
        assert_honest(arr)
    return got


def outcome_of(result):
    if isinstance(result, (pf.DataFrame, Series)):
        return frame_signature(result)
    return signature(result)


def columns_of(result) -> list:
    if isinstance(result, pf.DataFrame):
        return [result._data[name] for name in result._columns] + [
            result.index.values]
    if isinstance(result, Series):
        return [result.values, result.index.values]
    return [result]


class _Plain(pf.DataFrame):
    """A plain frame that says which of its columns a twin encodes."""

    __slots__ = ("attrs_encoded",)


def plain(encoded_columns, **columns) -> _Plain:
    frame = _Plain(columns)
    frame.attrs_encoded = set(encoded_columns)
    return frame


def _fact() -> _Plain:
    return plain(
        ["k", "k2", "s"],
        k=cells("b", "a", "c", "a", "b", "", "c", "a"),
        k2=cells("x", "x", "y", "y", "x", "y", "x", "x"),
        s=cells("q", "p", "p", "r", "q", "q", "r", "p"),
        n=np.array([3, 1, 3, 2, 1, 0, 2, 2]),
        v=np.array([1.5, np.nan, 0.5, 2.0, 4.0, 8.0, 16.0, 32.0]),
        flag=np.array([True, False, True, True, False, False, True, True]),
    )


def _dim() -> _Plain:
    return plain(["k"], k=cells("a", "c", "d", "e"),
                 label=np.array([10, 30, 40, 50]))


class TestEncodedColumnsAreIndistinguishable:
    def test_filter_iloc_take(self):
        mask = np.array([True, False, True, True, False, False, True, False])
        got = assert_twins(lambda f: f[mask], _fact())
        assert dtypes.dictionary_of(got._data["k"]) is not None
        assert_twins(lambda f: f[np.zeros(8, dtype=bool)], _fact())
        got = assert_twins(lambda f: f.iloc[2:6], _fact())
        assert dtypes.dictionary_of(got._data["k"]) is not None
        assert_twins(lambda f: f.iloc[3:3], _fact())
        assert_twins(lambda f: f.iloc[[7, 0, 0, -1]], _fact())
        assert_twins(lambda f: f.take([5, 2]), _fact())
        assert_twins(lambda f: f.iloc[2:6, 0], _fact())
        assert_twins(lambda f: f.loc[[6, 1], ["k", "v"]], _fact())
        assert_twins(lambda f: f.dropna(subset=["v"]), _fact())

    @pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
    def test_merge(self, how):
        got = assert_twins(lambda f, d: f.merge(d, how=how, on="k"),
                           _fact(), _dim())
        # the coalesced key of a string join never needs its cells hashed
        assert dtypes.dictionary_of(got._data["k"]) is not None
        assert_twins(lambda f, d: f.merge(d, how=how, on="k", sort=True),
                     _fact(), _dim())
        assert_twins(lambda f, d: f.merge(d.iloc[:0], how=how, on="k"),
                     _fact(), _dim())
        assert_twins(lambda f, d: f.iloc[:0].merge(d, how=how, on="k"),
                     _fact(), _dim())
        assert_twins(lambda f, d: f.iloc[:0].merge(d.iloc[:0], how=how,
                                                   on="k"), _fact(), _dim())
        # NA fill on the unmatched side reaches an encoded non-key column
        assert_twins(lambda f, d: d.merge(f[["k", "s"]], how=how, on="k"),
                     _fact(), _dim())
        # two keys, one of them typed; differently named keys
        assert_twins(lambda f, d: f.merge(
            d.assign(n=np.array([1, 3, 2, 2])), how=how, on=["k", "n"]),
            _fact(), _dim())
        assert_twins(lambda f, d: f.merge(
            d.rename(columns={"k": "kd"}), how=how, left_on="k",
            right_on="kd"), _fact(), _dim())

    def test_merge_against_a_plain_side(self):
        """One side encoded, the other not: the hashing path, same rows."""
        fact, dim = _fact(), _dim()
        dim.attrs_encoded = set()
        for how in ("inner", "outer"):
            assert_twins(lambda f, d: f.merge(d, how=how, on="k"), fact, dim)

    @pytest.mark.parametrize("how", AGGREGATIONS)
    @pytest.mark.parametrize("keys", [["k"], ["k", "k2"], ["k2", "n"]],
                             ids=["one-key", "two-keys", "str-and-int"])
    def test_groupby(self, how, keys):
        spec = {"v": how, "flag": how}
        if how in ("count", "size", "first", "last", "min", "max", "nunique"):
            spec["s"] = how
        for as_index in (True, False):
            got = assert_twins(
                lambda f: f.groupby(keys, as_index=as_index).agg(spec),
                _fact())
            if not as_index:  # the group-key column comes out encoded
                assert dtypes.dictionary_of(got._data[keys[0]]) is not None

    def test_groupby_corner_inputs(self):
        assert_twins(lambda f: f.iloc[:0].groupby("k").agg({"v": "sum"}),
                     _fact())
        assert_twins(lambda f: f.groupby("k").size(), _fact())
        assert_twins(lambda f: f["v"].groupby(f["k"]).sum(), _fact())
        assert_twins(lambda f: pf.concat(
            [g.assign(key=key) for key, g in f.groupby("k")]), _fact())
        assert_twins(lambda f: f.pivot_table(values="v", index="k",
                                             columns="k2", aggfunc="sum"),
                     _fact())

    def test_concat(self):
        fact = _fact()
        disjoint = plain(["k", "s"], k=cells("m", "n"), s=cells("u", "u"),
                         v=np.array([1.0, 2.0]))
        got = assert_twins(lambda a, b: pf.concat([a, b], ignore_index=True),
                           fact, disjoint)
        assert dtypes.dictionary_of(got._data["k"]) is not None
        # overlapping dictionaries; entries a filter left unused; an empty
        # piece, which is neutral; a piece that is the whole result
        assert_twins(lambda a, b: pf.concat([a, b.iloc[:0], a[a["n"] > 1]]),
                     fact, disjoint)
        assert_twins(lambda a: pf.concat([a[a["n"] > 2], a[a["n"] < 1]],
                                         ignore_index=True), fact)
        assert_twins(lambda a: pf.concat([a]), fact)
        assert_twins(lambda a: pf.concat([a["k"], a["s"]]), fact)
        # a block without the column fills it with None: plain cells
        got = assert_twins(lambda a, b: pf.concat([a, b[["v"]]]),
                           fact, disjoint)
        assert dtypes.dictionary_of(got._data["k"]) is None
        # a plain piece among encoded ones
        half = _fact()
        half.attrs_encoded = set()
        assert_twins(lambda a, b: pf.concat([a, b]), fact, half)

    def test_sort_values(self):
        for ascending in (True, False):
            assert_twins(lambda f: f.sort_values("k", ascending=ascending),
                         _fact())
            assert_twins(lambda f: f.sort_values(
                ["k2", "n", "k"], ascending=[ascending, False, True]),
                _fact())
        assert_twins(lambda f: f["k"].sort_values(), _fact())
        assert_twins(lambda f: f.iloc[:0].sort_values("k"), _fact())

    def test_sharing_kernels_keep_the_dictionary(self):
        for run in (lambda f: f.assign(x=lambda d: d["v"] * 2.0),
                    lambda f: f[["k", "v"]],
                    lambda f: f.rename(columns={"k": "key"}),
                    lambda f: f.copy(),
                    lambda f: f.set_index("k").reset_index(),
                    lambda f: f.drop(columns=["s"])):
            got = assert_twins(run, _fact())
            assert dtypes.dictionary_of(got._data[got._columns[0]]) is not None

    def test_writes_leave_no_stale_dictionary(self):
        def loc_write(f):
            f = f[list(f._columns)]
            f.loc[f["n"] > 2, "k"] = "zz"
            return f

        def set_column(f):
            f = f[list(f._columns)]
            f["k"] = f["k"].str.upper()
            return f

        def write_cell(f):
            f = f.copy()
            f["k"].values[0] = "zz"
            return f

        def write_through_a_slice(f):
            f = f.copy()
            f["k"].values[2:5][1] = "zz"
            return f

        for run in (loc_write, set_column, write_cell, write_through_a_slice,
                    lambda f: f.assign(k=lambda d: d["k"] + "!")):
            got = assert_twins(run, _fact())
            # and what a consumer reads off the written column is right
            assert_twins(lambda f: run(f).groupby("k").agg({"v": "sum"}),
                         _fact())
            assert_twins(lambda f: run(f).merge(_dim(), on="k", how="outer"),
                         _fact())
            assert got._data["k"].tolist() != _fact()._data["k"].tolist()
        assert_twins(lambda f: f.fillna({"k": "zz", "v": 0.0}), _fact())

    def test_a_copy_owns_its_dictionary(self):
        column = encode(cells("b", "a", "b"))
        copy = column.copy()
        copy[0] = "zz"
        assert dtypes.dictionary_of(copy) is None
        assert dtypes.dictionary_of(column) is not None
        assert column.tolist() == ["b", "a", "b"]

    def test_unknown_operations_see_plain_cells(self):
        for run in (lambda f: f["k"].str.upper(),
                    lambda f: f["k"] + f["k2"],
                    lambda f: f["k"] == "a",
                    lambda f: f["k"].map(len),
                    lambda f: f["k"].apply(lambda cell: cell * 2),
                    lambda f: f["k"].isin(["a", ""]),
                    lambda f: f["k"].value_counts(),
                    lambda f: f["k"].isna(),
                    lambda f: f["k"].unique(),
                    lambda f: f.apply(lambda row: row["k"] + row["s"],
                                      axis=1)):
            got = assert_twins(run, _fact())
            for arr in columns_of(got)[:1]:
                assert dtypes.dictionary_of(arr) is None

    def test_persist_equals_a_fresh_encode(self):
        """``persist`` stores a column that still knows its dictionary as
        it is, and that dictionary, cut to the entries in use, is the one
        hashing its cells would build."""
        column = encode(_fact()._data["k"])
        for arr in (column, dtypes.take(column, np.array([1, 3, 7])),
                    dtypes.take(column, slice(2, 2)),
                    pf.concat([Series(column), Series(column[1:4])]).values):
            got = encode_column(arr)
            assert (got is arr) == (dtypes.dictionary_of(arr) is not None)
            want = reference.encode_column(np.asarray(arr))
            if want is None:
                assert len(got) == 0
            else:
                used = dtypes.compact_dictionary(*dtypes.dictionary_of(got))
                assert signature(used[0]) == signature(want[0])
                assert signature(used[1]) == signature(want[1])

    def test_crosses_a_process_boundary_as_plain_cells(self):
        import pickle

        column = encode(cells("b", "a", "b"))
        for protocol in (4, 5):
            wire = pickle.dumps(column, protocol=protocol)
            assert wire == pickle.dumps(np.asarray(column).copy(),
                                        protocol=protocol)
            assert type(pickle.loads(wire)) is np.ndarray
