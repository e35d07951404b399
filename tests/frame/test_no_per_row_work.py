"""No per-row interpreter work in the hot kernels — counted, not timed.

``sys.settrace`` line and call events inside ``repro/frame/`` repeat
exactly from run to run, so the kernels are run at 2,000 and at 40,000
rows over the same ten distinct key values and the two counts must agree
to within 5 %: O(rows) work belongs to C, only O(uniques) work to
Python.  A ``for value in arr`` (or a generator fed to ``np.fromiter``)
multiplies the count by twenty and fails this without reading a clock.
"""

import os
import sys

import numpy as np
import pytest

from repro import frame as pf
from repro.frame import dtypes
from repro.frame.groupby import Grouper, factorize

FRAME_DIR = os.path.dirname(os.path.abspath(pf.__file__)) + os.sep
SMALL, LARGE = 2_000, 40_000


def interpreter_events(fn) -> int:
    """Line + call events executed in ``repro/frame/`` while ``fn`` runs."""
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return on_line

    def on_call(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(FRAME_DIR):
            return None
        count += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def string_keys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two key columns of ten distinct strings; all 100 pairs occur."""
    names = dtypes.object_array(f"key-{i}" for i in range(10))
    rows = np.arange(n)
    return names[rows % 10], names[(rows // 10) % 10]


def few_keys(n: int) -> np.ndarray:
    """A column of five shared objects, ``None`` among them: within
    ``dtypes.IDENTITY_BOUND``, so answered once per object."""
    names = dtypes.object_array(["key-0", "key-1", None, "key-3", "key-4"])
    return names[np.arange(n) % 5]


def with_cells(n: int, *extra) -> np.ndarray:
    """A string column with ``extra`` cells cycled in at every third row."""
    column = string_keys(n)[0].copy()
    for offset, cell in enumerate(extra):
        column[offset::3 * len(extra)] = cell
    return column


def frame_of(n: int) -> pf.DataFrame:
    first, second = string_keys(n)
    return pf.DataFrame({"k1": first, "k2": second,
                         "v": np.arange(n, dtype=np.float64),
                         "w": np.arange(n)})


def encoded_frame_of(n: int) -> pf.DataFrame:
    """``frame_of`` as the columnar engine hands it to a kernel: the
    string columns are real cells that still know their dictionary."""
    frame = frame_of(n)
    for name in ("k1", "k2"):
        codes, categories = factorize(frame[name].values)
        frame[name] = dtypes.encoded(categories, codes.astype(np.int32))
    return frame


def dimension() -> pf.DataFrame:
    names = encoded_frame_of(10)["k1"].values
    return pf.DataFrame({"k1": names, "label": np.arange(10) % 3})


KERNELS = {
    "grouper-one-key": lambda n: (
        lambda keys=string_keys(n): Grouper(keys[:1], ["k1"])),
    "grouper-two-keys": lambda n: (
        lambda keys=string_keys(n): Grouper(keys, ["k1", "k2"])),
    "groupby-agg": lambda n: (
        lambda df=frame_of(n): df.groupby(["k1", "k2"]).agg(
            {"v": "sum", "w": "max"})),
    "factorize": lambda n: (
        lambda arr=string_keys(n)[0]: factorize(arr)),
    "factorize-none-nan": lambda n: (
        lambda arr=with_cells(n, None, float("nan")): factorize(arr)),
    "series-unique": lambda n: (
        lambda s=pf.Series(with_cells(n, None)): s.unique()),
    "series-value-counts": lambda n: (
        lambda s=pf.Series(with_cells(n, None, float("nan"))):
            s.value_counts()),
    "merge-left": lambda n: (
        lambda df=frame_of(n), dim=pf.DataFrame(
            {"k1": string_keys(10)[0][:7], "label": np.arange(7)}):
            df.merge(dim, on="k1", how="left")),
    "merge-int-offset": lambda n: (
        lambda df=frame_of(n), dim=pf.DataFrame(
            {"w": np.arange(0, n, 5), "label": np.arange(0, n, 5) % 3}):
            dim.merge(df, on="w", how="outer")),
    "isin-int": lambda n: (
        lambda s=pf.Series(np.arange(n) % 10): s.isin([1, 2.0, True])),
    "isin-float": lambda n: (
        lambda s=pf.Series(np.arange(n) / 4.0): s.isin([0.25, 3, float("nan")])),
    "isin-datetime": lambda n: (
        lambda s=pf.Series(np.arange(n).astype("datetime64[s]")):
            s.isin([np.datetime64(5, "s")])),
    "isna-all-str": lambda n: (
        lambda arr=string_keys(n)[0]: dtypes.isna_array(arr)),
    "isna-none": lambda n: (
        lambda arr=with_cells(n, None): dtypes.isna_array(arr)),
    "isna-nan": lambda n: (
        lambda arr=with_cells(n, float("nan"), np.float64("nan")):
            dtypes.isna_array(arr)),
    "iloc-slice": lambda n: (
        lambda df=frame_of(n): df.iloc[n // 4: n // 2]),
    "assign": lambda n: (
        lambda df=frame_of(n): df.assign(x=lambda d: d["v"] * 2.0)),
    "nbytes": lambda n: (
        lambda df=frame_of(n): df.nbytes),
    "compare-str": lambda n: (
        lambda df=frame_of(n): df["k1"] == "key-3"),
    "compare-shared": lambda n: (
        lambda s=pf.Series(few_keys(n)): s < "key-3"),
    "isin-shared": lambda n: (
        lambda s=pf.Series(few_keys(n)): s.isin(["key-1", None])),
    "str-shared": lambda n: (
        lambda s=pf.Series(few_keys(n)): s.str.upper()),
    "str-contains-shared": lambda n: (
        lambda s=pf.Series(few_keys(n)): s.str.contains("-1")),
    "isnone": lambda n: (
        lambda arr=with_cells(n, None): dtypes.isnone_array(arr)),
    # the same kernels on dictionary-carrying columns, and the ones that
    # are per-row on plain strings but integer work on codes
    "encoded-groupby-agg": lambda n: (
        lambda df=encoded_frame_of(n): df.groupby(["k1", "k2"]).agg(
            {"v": "sum", "w": "max"})),
    "encoded-groupby-one-key": lambda n: (
        lambda df=encoded_frame_of(n): df.groupby(
            "k1", as_index=False).agg({"v": "sum"})),
    "encoded-merge": lambda n: (
        lambda df=encoded_frame_of(n), dim=dimension():
            df.merge(dim, on="k1", how="outer")),
    "encoded-concat": lambda n: (
        lambda df=encoded_frame_of(n): pf.concat(
            [df, df.iloc[n // 2:]], ignore_index=True)),
    "encoded-sort-values": lambda n: (
        lambda df=encoded_frame_of(n): df.sort_values(
            ["k2", "k1"], ascending=[True, False])),
    "encoded-filter": lambda n: (
        lambda df=encoded_frame_of(n): df[df["w"].values % 3 == 0]),
    "encoded-isna": lambda n: (
        lambda df=encoded_frame_of(n): df.isna()),
}


@pytest.mark.parametrize("build", KERNELS.values(), ids=KERNELS.keys())
def test_events_do_not_grow_with_rows(build):
    small = interpreter_events(build(SMALL))
    large = interpreter_events(build(LARGE))
    assert small > 0
    assert abs(large - small) < 0.05 * small, (small, large)


def test_the_counter_sees_a_per_row_loop():
    """The guard guards: the loops this replaced, run through the same
    counter, grow twenty-fold."""
    def per_row(n):
        arr = string_keys(n)[0]
        return lambda: pf.Series(arr).apply(len)

    small = interpreter_events(per_row(SMALL))
    large = interpreter_events(per_row(LARGE))
    assert large > 10 * small
