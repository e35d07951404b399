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

from repro.engine.columnar import DictColumn, encode_column
from repro.frame import Series, dtypes
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
            assert isinstance(got, DictColumn)
            assert signature(got.categories) == signature(want[0])
            assert signature(got.codes) == signature(want[1])

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
