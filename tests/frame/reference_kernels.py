"""The kernels ``repro.frame`` ran before they were made faster.

Two generations are kept verbatim as the oracle, each as of the commit
that replaced it:

- **per-cell loops**, before the kernels moved to C speed or to one
  answer per shared object: the loop bodies of ``dtypes.isna_array`` /
  ``isnone_array`` / ``values_equal``, ``groupby.factorize``,
  ``groupby.Grouper.__init__``, ``series._object_binop`` /
  ``_tighten``, ``Series.isin``, ``StringMethods._map``,
  ``engine.columnar.encode_column`` and ``concat._concat_rows`` /
  ``_concat_series``, and the ``.str`` predicates' object map followed
  by ``fillna(False).astype(bool)`` (``str_predicate``);
- **a set of the keys seen**, before duplicate rows were found through
  ``factorize`` codes: ``Series.duplicated`` / ``DataFrame.duplicated``
  (``duplicated``), with one change — a column's missing cells are one
  value, as the key contract has them (the loop once never marked a
  NaN row);
- **second hashes and comparison sorts**, before each key cell was
  hashed once and integer work became a count or a byte-wide radix
  sort: ``groupby.factorize_cells``, ``Grouper.sorted_layout``, the
  multi-key compaction of ``Grouper.__init__``, ``join._match_ranges``
  / ``_join_indexers`` and the partition order of
  ``partition.split_by_assignment``.

- **gather, then aggregate**, before a filter handed on a row selection:
  the filtered frame built whole, one gather per column
  (``DataFrame._filter_mask``), and ``GroupByAgg``'s map stage run on it
  through the public ``groupby(...).agg(...)`` (``filter_rows``,
  ``groupby_map``), with one change — a lone object key keeps its
  cells, each group labelled by its first, since a map partial leaves
  tightening the key to the stage that sees every key.

One oracle is not a predecessor: ``encode_keys`` numbers join keys by
their Python values, because ``join._encode_keys`` once matched
``int64`` against ``uint64`` through ``float64`` and was not exact.

The library's kernels must return identical values, dtypes, unique order
and row order on every cell kind and size (``test_kernel_encoding.py``,
``test_counting_kernels.py``, ``test_property_based.py``).  Nothing here
is imported by ``src/``.
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


def sorted_layout(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Grouper.sorted_layout`` of a grouper's ``codes``: ``(order,
    starts)``."""
    valid = np.flatnonzero(codes >= 0)
    order = valid[np.argsort(codes[valid], kind="stable")]
    sorted_codes = codes[order]
    if len(order) == 0:
        return order, np.array([], dtype=np.int64)
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_codes)) + 1]
    ).astype(np.int64)
    return order, starts


def compact_codes(codes_list, uniques_list) -> tuple[np.ndarray, np.ndarray]:
    """``Grouper.__init__``'s multi-key compaction of the keys' factorized
    codes: ``(dense codes, combined code of each dense group)``."""
    combined = codes_list[0].copy()
    valid = codes_list[0] >= 0
    for codes, uniques in zip(codes_list[1:], uniques_list[1:]):
        combined = combined * len(uniques) + codes
        valid &= codes >= 0
    combined[~valid] = -1
    # compress combined codes to dense 0..k-1 in sorted-key order
    present = np.unique(combined[valid])
    dense = np.full(len(combined), -1, dtype=np.int64)
    dense[valid] = np.searchsorted(present, combined[valid])
    return dense, present


def match_ranges(codes_l: np.ndarray, codes_r: np.ndarray):
    """For each left code, the range of matching positions in sorted right."""
    sort_r = np.argsort(codes_r, kind="stable")
    sorted_r = codes_r[sort_r]
    lo = np.searchsorted(sorted_r, codes_l, side="left")
    hi = np.searchsorted(sorted_r, codes_l, side="right")
    counts = hi - lo
    counts[codes_l < 0] = 0
    return sort_r, lo, counts


def inner_indexers(codes_l, codes_r):
    sort_r, lo, counts = match_ranges(codes_l, codes_r)
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(codes_l), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.array([], dtype=np.int64)
    out_starts = np.cumsum(counts) - counts
    flat = (np.arange(total, dtype=np.int64)
            - np.repeat(out_starts, counts)
            + np.repeat(lo, counts))
    right_idx = sort_r[flat]
    return left_idx, right_idx


def join_indexers(codes_l: np.ndarray, codes_r: np.ndarray, how: str):
    if how == "right":
        right_out, left_out = join_indexers(codes_r, codes_l, "left")
        return left_out, right_out
    inner_l, inner_r = inner_indexers(codes_l, codes_r)
    if how == "inner":
        return inner_l, inner_r
    _, __, counts = match_ranges(codes_l, codes_r)
    unmatched_l = np.flatnonzero(counts == 0)
    left_idx = np.concatenate([inner_l, unmatched_l]).astype(np.int64)
    right_idx = np.concatenate(
        [inner_r, np.full(len(unmatched_l), -1, dtype=np.int64)]
    )
    order = np.argsort(left_idx, kind="stable")
    left_idx, right_idx = left_idx[order], right_idx[order]
    if how == "left":
        return left_idx, right_idx
    # outer: also append right rows that matched nothing, in right order
    matched_r = np.zeros(len(codes_r), dtype=bool)
    matched_r[inner_r] = True
    extra_r = np.flatnonzero(~matched_r)
    left_idx = np.concatenate([left_idx, np.full(len(extra_r), -1, dtype=np.int64)])
    right_idx = np.concatenate([right_idx, extra_r]).astype(np.int64)
    return left_idx, right_idx


def encode_keys(left_arrays, right_arrays):
    """Join codes by each row's key as a tuple of Python values, so
    integers match exactly at any width and signedness; a key with a
    missing cell gets -1.  Returns ``_encode_keys``' ``(codes_l,
    codes_r, space)``."""
    table: dict = {}

    def missing(cell):
        return cell is None or (isinstance(cell, float) and np.isnan(cell))

    def codes(arrays):
        rows = zip(*[arr.tolist() for arr in arrays])
        return np.array([-1 if any(map(missing, row))
                         else table.setdefault(row, len(table))
                         for row in rows], dtype=np.int64)

    codes_l, codes_r = codes(left_arrays), codes(right_arrays)
    return codes_l, codes_r, len(table)


def partition_order(assignment: np.ndarray, n_parts: int):
    """``split_by_assignment``'s row order and partition bounds."""
    order = np.argsort(assignment, kind="stable")
    sorted_assign = assignment[order]
    bounds = np.searchsorted(sorted_assign, np.arange(n_parts + 1))
    return order, bounds


def factorize_cells(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """``groupby.factorize_cells`` when it hashed every cell twice: once
    into ``dict.fromkeys``, once more to look its code up."""
    seen = dict.fromkeys(cells)
    if set(map(type, seen)) <= {str}:
        uniques_list = sorted(seen)
    else:
        uniques_list = sorted(seen, key=_mixed_key)
    position = dict(zip(uniques_list, range(len(uniques_list))))
    codes = np.fromiter(map(position.__getitem__, cells),
                        dtype=np.int64, count=len(cells))
    return codes, np.array(uniques_list, dtype=object)


def filter_rows(frame, mask: np.ndarray):
    """``DataFrame._filter_mask``: every column gathered at the mask."""
    from repro.frame import DataFrame, dtypes

    indexer = np.flatnonzero(mask)
    data = {name: dtypes.take(frame._data[name], indexer)
            for name in frame._columns}
    return DataFrame._new(data, frame.index.take(indexer),
                          list(frame._columns))


def groupby_map(frame, by, plan):
    """``GroupByAgg._execute_map`` on a gathered frame: squares made as
    a column, then ``groupby(by, as_index=False).agg(**named)``."""
    from repro.dataframe.groupby import _map_stat_func, _partial_columns
    from repro.frame import dtypes

    work = frame[[c for c in frame.columns.to_list()]]
    prepared: dict = {}  # partial name -> source column
    for i, (_out, col, how) in enumerate(plan):
        for partial_name, _merge in _partial_columns(i, how):
            stat = partial_name.rsplit("_", 1)[1]
            if stat == "sumsq":
                sq_col = f"__sq{i}"
                if sq_col not in prepared.values():
                    work[sq_col] = work[col] * work[col]
                prepared[partial_name] = sq_col
            else:
                prepared[partial_name] = col
    named: dict = {}
    for i, (_out, col, how) in enumerate(plan):
        for partial_name, _merge in _partial_columns(i, how):
            stat = partial_name.rsplit("_", 1)[1]
            named[partial_name] = (prepared[partial_name],
                                   "sum" if stat == "sumsq"
                                   else _map_stat_func(stat))
    out = work.groupby(by, as_index=False).agg(**named)
    key = frame[by[0]].values
    if len(by) == 1 and key.dtype == object:
        first: dict = {}  # Python equality is the contract's on these cells
        for cell in key.tolist():
            if not dtypes.isna_cell(cell):
                first.setdefault(cell, cell)
        out[by[0]] = dtypes.object_array(
            [first[label] for label in out[by[0]].values.tolist()])
    return out


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


def isin(values: np.ndarray, lookup) -> np.ndarray:
    """``Series.isin``'s per-row loop: Python ``in`` on a set."""
    lookup = set(lookup)
    return np.fromiter((v in lookup for v in values), dtype=bool,
                       count=len(values))


def isnone_array(arr: np.ndarray) -> np.ndarray:
    """``dtypes.isnone_array``: ``is None``, cell by cell."""
    return np.array([value is None for value in arr], dtype=bool)


def str_map(values: np.ndarray, func, out_dtype=object) -> np.ndarray:
    """``StringMethods._map``'s loop: missing cells stay missing, and a
    typed result writes its NA marker where the loop left ``None``."""
    from repro.frame import dtypes

    mask = isna_array(values)
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = None if mask[i] else func(value)
    if out_dtype is not object:
        return np.array(
            [dtypes.na_value_for(np.dtype(out_dtype)) if v is None else v
             for v in out],
            dtype=out_dtype,
        )
    return out


def str_predicate(values: np.ndarray, func) -> np.ndarray:
    """``contains`` / ``startswith`` / ``endswith`` before a missing cell
    answered ``False`` inside ``_map``: the object map, then
    ``fillna(False).astype(bool)``."""
    return np.array([False if v is None else v for v in str_map(values, func)],
                    dtype=bool)


_NA = object()  # every missing cell, as one key


def duplicated(columns, keep: str = "first") -> np.ndarray:
    """``duplicated``'s per-row loop over key columns: a row whose key
    tuple an earlier row (a later one with ``keep="last"``) held is a
    duplicate; missing cells (``None``, NaN, NaT) are one value."""
    cells = [[_NA if v is None or (isinstance(v, float) and v != v) else v
              for v in np.asarray(column).tolist()] for column in columns]
    n = len(cells[0])
    seen: set = set()
    out = np.zeros(n, dtype=bool)
    order = range(n) if keep != "last" else range(n - 1, -1, -1)
    for i in order:
        key = tuple(column[i] for column in cells)
        if key in seen:
            out[i] = True
        else:
            seen.add(key)
    return out


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
        present = [f._data[name] for f in non_empty if name in f._data]
        has_missing_block = any(name not in f._data for f in non_empty)
        dtype = dtypes.common_dtype(present)  # it takes the arrays now
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

    dtype = dtypes.common_dtype([s.values for s in series_list])
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
