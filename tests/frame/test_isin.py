"""``Series.isin`` on typed columns answers exactly what its per-row loop
(``reference.isin``) answers: values, dtype and row order, on the items
where a vectorized compare could part from Python's ``in`` — numbers of
another type that are equal (``1 == 1.0 == True``), integers past 2^53
next to the float that rounds to them, items outside the column's
range, NaN and NaT, datetimes of another unit — and on columns or items
of other kinds, which keep the loop.
"""

import numpy as np
import pytest

from repro import frame as pf
from repro.frame import dtypes, series

from . import reference_kernels as reference
from .reference_kernels import signature

NAN, NAT = float("nan"), np.datetime64("NaT", "ns")

COLUMNS = {
    "int64": np.array([0, 1, -1, 2**53, 2**53 + 1, 2**63 - 1, -2**63, 7],
                      dtype=np.int64),
    "int8": np.arange(-128, 128, 17).astype(np.int8),
    "uint64": np.array([0, 1, 2**53 + 1, 2**63, 2**64 - 1], dtype=np.uint64),
    "float64": np.array([0.0, -0.0, 1.0, 0.5, NAN, 2.0**53, np.inf, -np.inf,
                         1e300]),
    "float32": np.array([0.1, 1.0, 16777216.0, NAN, 0.5], dtype=np.float32),
    "bool": np.array([True, False, True]),
    "datetime-ns": np.array(["2024-01-01", "NaT", "2024-03-01T12:00"],
                            dtype="datetime64[ns]"),
    "datetime-day": np.array(["2024-01-01", "1970-01-01", "NaT"],
                             dtype="datetime64[D]"),
    "object": dtypes.object_array([1, "a", None, 2.0, True]),
    "empty-int": np.array([], dtype=np.int64),
}

ITEMS = {
    "equal-numbers": [1.0, True, 0],
    "past-2^53": [2.0**53, 2**53 + 1, 9007199254740993.0],
    # each rounds to the other as float64, and neither equals the other
    "int-past-2^53": [2**53 + 1],
    "numpy-int-past-2^53": [np.int64(2**53 + 1), np.uint64(2**53 + 1)],
    "float-at-2^53": [2.0**53],
    "out-of-range": [2**64, -2**63 - 1, 300, -129, 1e300, np.uint64(2**64 - 1),
                     2**1024 - 1, -2**2000],
    "nan-and-inf": [NAN, np.float32("nan"), np.inf, -np.inf],
    "fractions": [0.5, 1.5, np.float32(0.1), 0.1, np.float16(0.5)],
    # no float32 cell equals the float64 0.1, though one rounds to it
    "float64-fraction": [0.1],
    "numpy-scalars": [np.int64(7), np.uint8(1), np.int8(-1), np.bool_(False),
                      np.float64(16777216.0)],
    "datetimes-same-unit": [np.datetime64("2024-01-01", "ns"), NAT,
                            np.datetime64("2024-01-01", "D")],
    "datetimes-day": [np.datetime64("1970-01-01", "D"), np.datetime64("NaT", "D")],
    "other-kinds": [1, "a", None],
    "nothing": [],
}


@pytest.mark.parametrize("items", ITEMS.values(), ids=ITEMS.keys())
@pytest.mark.parametrize("column", COLUMNS.values(), ids=COLUMNS.keys())
def test_isin_answers_what_the_loop_answers(column, items):
    got = pf.Series(column).isin(items).values
    assert signature(got) == signature(reference.isin(column, items))


@pytest.mark.parametrize("name", ["int64", "int8", "uint64", "float64",
                                  "float32", "bool", "datetime-ns"])
def test_typed_columns_take_one_vectorized_compare(name):
    column = COLUMNS[name]
    items = (ITEMS["datetimes-same-unit"][:2] if column.dtype.kind == "M"
             else ITEMS["equal-numbers"])
    assert series._typed_isin(column, items) is not None


@pytest.mark.parametrize("column, items", [
    (COLUMNS["object"], [1]),
    (COLUMNS["int64"], [1, "a"]),
    (COLUMNS["int64"], [1, None]),
    (COLUMNS["datetime-ns"], [np.datetime64("2024-01-01", "D")]),
])
def test_other_kinds_keep_the_loop(column, items):
    assert series._typed_isin(column, items) is None


def test_a_set_and_a_generator_are_read_once():
    column = COLUMNS["int64"]
    assert pf.Series(column).isin({7, 0}).to_list() == \
        reference.isin(column, {7, 0}).tolist()
    assert pf.Series(column).isin(n for n in (7, 0)).to_list() == \
        reference.isin(column, [7, 0]).tolist()
