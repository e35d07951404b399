"""Relational joins for ``repro.frame``: hash/sort-merge ``merge``.

The distributed ``DataFrameMerge`` operator shuffles chunks by key hash and
then calls :func:`merge` on co-partitioned chunk pairs, so the semantics
here (NA keys never match, suffix handling, key coalescing for outer joins)
define the distributed behaviour too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import dtypes
from .dataframe import DataFrame
from .index import default_index
from .sorting import id_runs

_HOW_VALUES = ("inner", "left", "right", "outer")


def merge(left: DataFrame, right: DataFrame, how: str = "inner", on=None,
          left_on=None, right_on=None, suffixes: tuple[str, str] = ("_x", "_y"),
          sort: bool = False) -> DataFrame:
    """Pandas-style merge of two frames on key columns."""
    if how not in _HOW_VALUES:
        raise ValueError(f"how must be one of {_HOW_VALUES}, got {how!r}")
    left_keys, right_keys, shared = _resolve_keys(left, right, on, left_on, right_on)

    codes_l, codes_r = _encode_keys(
        [left._data[k] for k in left_keys],
        [right._data[k] for k in right_keys],
    )
    left_idx, right_idx = _join_indexers(codes_l, codes_r, how)

    data: dict = {}
    left_cols = list(left._columns)
    right_cols = list(right._columns)
    right_key_set = set(right_keys)
    # columns of right that will appear (shared 'on' keys collapse into one)
    right_out_cols = [
        c for c in right_cols if not (c in shared and c in right_key_set)
    ]
    overlap = (set(left_cols) & set(right_out_cols)) - set(shared)

    for name in left_cols:
        out_name = f"{name}{suffixes[0]}" if name in overlap else name
        if name in shared:
            data[out_name] = _coalesce_key(
                left._data[name], right._data[name], left_idx, right_idx
            )
        else:
            data[out_name] = _take_with_na(left._data[name], left_idx)
    for name in right_out_cols:
        out_name = f"{name}{suffixes[1]}" if name in overlap else name
        data[out_name] = _take_with_na(right._data[name], right_idx)

    result = DataFrame(data, index=default_index(len(left_idx)))
    if sort and shared:
        result = result.sort_values(list(shared))
        result = result.reset_index(drop=True)
    elif sort and left_keys:
        keys = [k for k in left_keys if k in result._data]
        if keys:
            result = result.sort_values(keys).reset_index(drop=True)
    return result


def join_on_index(left: DataFrame, right: DataFrame, how: str = "left",
                  lsuffix: str = "", rsuffix: str = "") -> DataFrame:
    """``DataFrame.join``: align ``right`` on ``left``'s index labels."""
    overlap = set(left._columns) & set(right._columns)
    if overlap and not (lsuffix or rsuffix):
        raise ValueError(f"overlapping columns {sorted(overlap)} need suffixes")
    left2 = left.rename(columns={c: f"{c}{lsuffix}" for c in overlap})
    right2 = right.rename(columns={c: f"{c}{rsuffix}" for c in overlap})
    left_key = left2.reset_index()
    key_name = left.index.name if left.index.name is not None else "index"
    right_key = right2.reset_index()
    right_key_name = right.index.name if right.index.name is not None else "index"
    right_key = right_key.rename(columns={right_key_name: key_name})
    merged = merge(left_key, right_key, how=how, on=key_name)
    return merged.set_index(key_name)


def _resolve_keys(left: DataFrame, right: DataFrame, on, left_on, right_on):
    if on is not None:
        keys = [on] if isinstance(on, str) else list(on)
        _check_keys(left, keys, "left")
        _check_keys(right, keys, "right")
        return keys, keys, list(keys)
    if left_on is not None or right_on is not None:
        if left_on is None or right_on is None:
            raise ValueError("left_on and right_on must both be given")
        lk = [left_on] if isinstance(left_on, str) else list(left_on)
        rk = [right_on] if isinstance(right_on, str) else list(right_on)
        if len(lk) != len(rk):
            raise ValueError("left_on and right_on must have equal length")
        _check_keys(left, lk, "left")
        _check_keys(right, rk, "right")
        shared = [l for l, r in zip(lk, rk) if l == r]
        return lk, rk, shared
    common = [c for c in left._columns if c in set(right._columns)]
    if not common:
        raise ValueError("no common columns to merge on")
    return common, common, common


def _check_keys(frame: DataFrame, keys: Sequence[str], side: str) -> None:
    missing = [k for k in keys if k not in frame._data]
    if missing:
        raise KeyError(f"{side} merge keys not found: {missing}")


def _encode_keys(left_arrays: Sequence[np.ndarray],
                 right_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Factorize key columns over the union of both sides.

    Returns combined single-integer codes per row with -1 marking rows whose
    key contains a missing value (those never match, as in pandas).
    """
    from .groupby import factorize

    n_left = len(left_arrays[0]) if left_arrays else 0
    codes_l = np.zeros(n_left, dtype=np.int64)
    codes_r = np.zeros(len(right_arrays[0]) if right_arrays else 0, dtype=np.int64)
    valid_l = np.ones(len(codes_l), dtype=bool)
    valid_r = np.ones(len(codes_r), dtype=bool)
    for la, ra in zip(left_arrays, right_arrays):
        if dtypes.dictionary_of(la) and dtypes.dictionary_of(ra):
            uniques, (cl, cr) = dtypes.union_dictionaries([la, ra])
        else:
            dtype = dtypes.common_dtype([la.dtype, ra.dtype])
            both = np.concatenate([la.astype(dtype, copy=False),
                                   ra.astype(dtype, copy=False)])
            codes, uniques = factorize(both)
            cl, cr = codes[: len(la)], codes[len(la):]
        valid_l &= cl >= 0
        valid_r &= cr >= 0
        codes_l = codes_l * (len(uniques) + 1) + np.maximum(cl, 0)
        codes_r = codes_r * (len(uniques) + 1) + np.maximum(cr, 0)
    codes_l[~valid_l] = -1
    codes_r[~valid_r] = -1
    return codes_l, codes_r


def _match_ranges(codes_l: np.ndarray, codes_r: np.ndarray):
    """The right rows in stable code order (NA first), and for each left
    row where its matches start in that order and how many there are.

    Counted when the count table (one entry per code) is no longer than
    the codes; a wider code space is sorted and searched instead.
    """
    space = max(codes_l.max(initial=-1), codes_r.max(initial=-1)) + 2
    if space > len(codes_l) + len(codes_r):
        sort_r = np.argsort(codes_r, kind="stable")
        sorted_r = codes_r[sort_r]
        lo = np.searchsorted(sorted_r, codes_l, side="left")
        counts = np.searchsorted(sorted_r, codes_l, side="right") - lo
    else:
        # code + 1 is the id, so NA (-1) is id 0
        sort_r, bounds = id_runs(codes_r + 1, space)
        ids_l = codes_l + 1
        lo = bounds[ids_l]
        counts = bounds[ids_l + 1] - lo
    counts[codes_l < 0] = 0
    return sort_r, lo, counts


def _pairs_in_left_order(codes_l: np.ndarray, codes_r: np.ndarray,
                         keep_unmatched: bool):
    """Row pairs of the inner join, in left order and, within a left row,
    in right order; ``keep_unmatched`` adds each left row that matched
    nothing once, paired with -1."""
    sort_r, lo, counts = _match_ranges(codes_l, codes_r)
    emitted = np.maximum(counts, 1) if keep_unmatched else counts
    left_idx = np.repeat(np.arange(len(codes_l), dtype=np.int64), emitted)
    total = len(left_idx)
    if total == 0:
        return left_idx, np.array([], dtype=np.int64)
    # output slot k of left row i pairs with sorted right row lo[i] + k
    out_starts = np.cumsum(emitted) - emitted
    flat = np.arange(total, dtype=np.int64) + np.repeat(lo - out_starts, emitted)
    if not keep_unmatched:
        return left_idx, sort_r[flat]
    matched = np.repeat(counts > 0, emitted)
    right_idx = np.full(total, -1, dtype=np.int64)
    right_idx[matched] = sort_r[flat[matched]]
    return left_idx, right_idx


def _join_indexers(codes_l: np.ndarray, codes_r: np.ndarray, how: str):
    if how == "right":
        right_out, left_out = _join_indexers(codes_r, codes_l, "left")
        return left_out, right_out
    left_idx, right_idx = _pairs_in_left_order(
        codes_l, codes_r, keep_unmatched=how != "inner")
    if how != "outer":
        return left_idx, right_idx
    # outer: also append right rows that matched nothing, in right order
    matched_r = np.zeros(len(codes_r), dtype=bool)
    matched_r[right_idx[right_idx >= 0]] = True
    extra_r = np.flatnonzero(~matched_r)
    left_idx = np.concatenate([left_idx, np.full(len(extra_r), -1, dtype=np.int64)])
    right_idx = np.concatenate([right_idx, extra_r]).astype(np.int64)
    return left_idx, right_idx


def _take_with_na(values: np.ndarray, indexer: np.ndarray) -> np.ndarray:
    """Gather values; -1 positions become the dtype's missing marker."""
    if len(indexer) == 0:
        return values[:0]
    missing = indexer < 0
    if not missing.any():
        return dtypes.take(values, indexer)
    out_values = dtypes.promote_for_na(values)
    if len(values) == 0:  # nothing to gather from: every position is NA
        return np.full(len(indexer), dtypes.na_value_for(out_values.dtype),
                       dtype=out_values.dtype)
    out = out_values[np.where(missing, 0, indexer)]
    if out.dtype == object:
        out = out.copy()
        out[missing] = None
    else:
        out = out.copy()
        out[missing] = dtypes.na_value_for(out.dtype)
    return out


def _coalesce_key(left_values: np.ndarray, right_values: np.ndarray,
                  left_idx: np.ndarray, right_idx: np.ndarray) -> np.ndarray:
    """Key column of the result: left value where present, else right."""
    use_right = left_idx < 0
    if not use_right.any():
        return _take_with_na(left_values, left_idx)
    if (len(left_values) and dtypes.dictionary_of(left_values)
            and dtypes.dictionary_of(right_values)):
        # every row has its key on one side: gather codes, not cells
        union, (codes_l, codes_r) = dtypes.union_dictionaries(
            [left_values, right_values])
        return dtypes.encoded(union, np.where(
            use_right, codes_r[right_idx], codes_l[left_idx]))
    base = _take_with_na(left_values, left_idx)
    filler = _take_with_na(right_values, right_idx)
    dtype = dtypes.common_dtype([base.dtype, filler.dtype])
    out = base.astype(dtype).copy()
    out[use_right] = filler.astype(dtype)[use_right]
    return out
