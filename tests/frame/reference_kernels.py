"""The per-cell kernels ``repro.frame`` ran before they moved to C speed.

These are the loop bodies of ``dtypes.isna_array`` / ``values_equal``,
``groupby.factorize``, ``groupby.Grouper.__init__``,
``series._object_binop`` / ``_tighten``,
``engine.columnar.encode_column`` and ``concat._concat_rows`` /
``_concat_series`` as of the commit that replaced them,
kept verbatim as the oracle: the library's
kernels must return identical values, dtypes and unique order on every
cell kind (``test_kernel_encoding.py``, ``test_property_based.py``).
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np


def isna_array(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "f":
        return np.isnan(arr)
    if arr.dtype.kind == "M":
        return np.isnat(arr)
    if arr.dtype == object:
        mask = np.empty(len(arr), dtype=bool)
        for i, value in enumerate(arr):
            mask[i] = value is None or (isinstance(value, float) and np.isnan(value))
        return mask
    return np.zeros(len(arr), dtype=bool)


def _mixed_key(value):
    if isinstance(value, (int, float, np.integer, np.floating)):
        return ("", float(value))
    return (type(value).__name__, value)


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = isna_array(values)
    if values.dtype == object:
        kept = values[~mask]
        first_seen: dict = {}
        provisional = np.fromiter(
            (first_seen.setdefault(v, len(first_seen)) for v in kept.tolist()),
            dtype=np.int64, count=len(kept),
        )
        uniques_list = sorted(first_seen, key=_mixed_key)
        remap = np.empty(len(uniques_list), dtype=np.int64)
        for sorted_pos, value in enumerate(uniques_list):
            remap[first_seen[value]] = sorted_pos
        codes = np.full(len(values), -1, dtype=np.int64)
        if len(kept):
            codes[~mask] = remap[provisional]
        uniques = np.array(uniques_list, dtype=object)
        return codes, uniques
    uniques, inverse = np.unique(values[~mask], return_inverse=True)
    codes = np.full(len(values), -1, dtype=np.int64)
    codes[~mask] = inverse
    return codes, uniques


def grouper(key_arrays) -> tuple[np.ndarray, int, list[tuple]]:
    """``Grouper.__init__``: ``(codes, n_groups, group_keys)``."""
    codes_list, uniques_list = [], []
    for arr in key_arrays:
        codes, uniques = factorize(arr)
        codes_list.append(codes)
        uniques_list.append(uniques)
    combined = codes_list[0].copy()
    valid = codes_list[0] >= 0
    for codes, uniques in zip(codes_list[1:], uniques_list[1:]):
        combined = combined * len(uniques) + codes
        valid &= codes >= 0
    combined[~valid] = -1
    present = np.unique(combined[valid]) if valid.any() else np.array([], dtype=np.int64)
    remap = {code: i for i, code in enumerate(present.tolist())}
    dense = np.full(len(combined), -1, dtype=np.int64)
    for i, code in enumerate(combined):
        if code >= 0:
            dense[i] = remap[code]
    group_keys: list[tuple] = []
    sizes = [len(u) for u in uniques_list]
    for code in present.tolist():
        parts = []
        rest = code
        for size in reversed(sizes[1:]):
            rest, part = divmod(rest, size)
            parts.append(part)
        parts.append(rest)
        parts.reverse()
        group_keys.append(
            tuple(uniques_list[level][p] for level, p in enumerate(parts))
        )
    return dense, len(present), group_keys


def encode_column(arr: np.ndarray):
    """``columnar.encode_column``: ``(categories, int32 codes)``, or
    ``None`` where the column stays raw."""
    if arr.dtype.kind != "O" or arr.size == 0:
        return None
    for v in arr.tolist():
        if type(v) is not str:
            return None
    categories, codes = np.unique(arr, return_inverse=True)
    return categories, codes.astype(np.int32)


def object_binop(left: np.ndarray, right, func, na_result=None) -> np.ndarray:
    out = np.empty(len(left), dtype=object)
    right_is_seq = isinstance(right, np.ndarray)
    for i, lv in enumerate(left):
        rv = right[i] if right_is_seq else right
        if lv is None or rv is None:
            out[i] = na_result
        else:
            out[i] = func(lv, rv)
    return out


def object_compare(left: np.ndarray, right, func) -> np.ndarray:
    """``Series._compare``'s object branch."""
    result = object_binop(left, right, func, na_result=False)
    return np.array([bool(v) for v in result], dtype=bool)


def tighten(arr: np.ndarray) -> np.ndarray:
    if len(arr) == 0:
        return arr
    kinds = {type(v) for v in arr}
    if kinds <= {bool}:
        return arr.astype(bool)
    if kinds <= {int, bool}:
        return arr.astype(np.int64)
    if kinds <= {int, float, bool} or kinds <= {int, float, bool, type(None)}:
        return np.array([np.nan if v is None else v for v in arr], dtype=np.float64)
    return arr


def values_equal(left: np.ndarray, right: np.ndarray) -> bool:
    if len(left) != len(right):
        return False
    left_na = isna_array(left)
    right_na = isna_array(right)
    if not np.array_equal(left_na, right_na):
        return False
    if left.dtype == object or right.dtype == object:
        for lv, rv, na in zip(left, right, left_na):
            if na:
                continue
            if lv != rv:
                return False
        return True
    mask = ~left_na
    return bool(np.array_equal(left[mask], right[mask]))


def concat_rows(frames, ignore_index: bool):
    """``concat._concat_rows`` when it copied every piece twice
    (``astype`` with its default ``copy=True``, then ``np.concatenate``)
    and knew no dictionary."""
    from repro.frame import DataFrame, dtypes
    from repro.frame.index import default_index

    non_empty = [f for f in frames if len(f.columns) > 0]
    if not non_empty:
        return DataFrame({})
    columns: list = []
    for frame in non_empty:
        for name in frame._columns:
            if name not in columns:
                columns.append(name)
    total = sum(len(f) for f in non_empty)
    data: dict = {}
    for name in columns:
        pieces = []
        present_dtypes = [
            f._data[name].dtype for f in non_empty if name in f._data
        ]
        has_missing_block = any(name not in f._data for f in non_empty)
        dtype = dtypes.common_dtype(present_dtypes)
        if has_missing_block and dtype.kind in ("i", "u", "b"):
            dtype = np.dtype(np.float64)
        for frame in non_empty:
            if name in frame._data:
                pieces.append(frame._data[name].astype(dtype))
            else:
                fill = dtypes.na_value_for(dtype)
                pieces.append(np.full(len(frame), fill, dtype=dtype))
        data[name] = np.concatenate(pieces) if pieces else np.empty(0)
        if len(data[name]) != total:
            raise AssertionError("concat length bookkeeping error")
    if ignore_index:
        index = default_index(total)
    else:
        index = non_empty[0].index
        for frame in non_empty[1:]:
            index = index.append(frame.index)
    return DataFrame(data, index=index, columns=columns)


def concat_series(series_list, ignore_index: bool):
    """``concat._concat_series`` as of the same commit."""
    from repro.frame import Series, dtypes
    from repro.frame.index import default_index

    dtype = dtypes.common_dtype([s.dtype for s in series_list])
    values = np.concatenate([s.values.astype(dtype) for s in series_list])
    if ignore_index:
        index = default_index(len(values))
    else:
        index = series_list[0].index
        for s in series_list[1:]:
            index = index.append(s.index)
    names = {s.name for s in series_list}
    name = names.pop() if len(names) == 1 else None
    return Series(values, index=index, name=name)


# ---------------------------------------------------------------------------
# comparing, and running the library on the old kernels
# ---------------------------------------------------------------------------

def signature(arr) -> tuple:
    """Everything "identical" means for a kernel result: dtype, shape and
    each cell's exact type and value (``nan`` equal to ``nan``)."""
    arr = np.asarray(arr)
    return (arr.dtype, arr.shape, [(type(c), repr(c)) for c in arr.ravel()])


def key_signature(group_keys) -> list:
    return [[(type(c), repr(c)) for c in key] for key in group_keys]


@contextmanager
def installed():
    """Run ``repro.frame`` on the reference kernels: what ``groupby`` /
    ``merge`` answered before the kernels changed."""
    from repro.frame import dtypes, groupby

    def init(self, key_arrays, key_names):
        if not key_arrays:
            raise ValueError("groupby requires at least one key")
        self.key_names = list(key_names)
        self.codes, self.n_groups, self.group_keys = grouper(key_arrays)
        self.levels = [dtypes.object_array(key[level] for key in self.group_keys)
                       for level in range(len(key_arrays))]

    with mock.patch.object(dtypes, "isna_array", isna_array), \
            mock.patch.object(groupby, "factorize", factorize), \
            mock.patch.object(groupby.Grouper, "__init__", init):
        yield
