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
from .selection import Selection, column_of, taker
from .sorting import id_dtype, id_runs

_HOW_VALUES = ("inner", "left", "right", "outer")


def merge(left: DataFrame, right: DataFrame, how: str = "inner", on=None,
          left_on=None, right_on=None, suffixes: tuple[str, str] = ("_x", "_y"),
          sort: bool = False) -> DataFrame:
    """Pandas-style merge of two frames on key columns.

    Either side may be a :class:`~repro.frame.selection.Selection`: its
    keys are read at the selected length, and each output column is
    gathered once, through the selection's rows composed with the join's
    indexer.
    """
    if how not in _HOW_VALUES:
        raise ValueError(f"how must be one of {_HOW_VALUES}, got {how!r}")
    left_keys, right_keys, shared = _resolve_keys(left, right, on, left_on, right_on)

    codes_l, codes_r, space = _encode_keys(
        [column_of(left, k) for k in left_keys],
        [column_of(right, k) for k in right_keys],
    )
    left_idx, right_idx = _join_indexers(codes_l, codes_r, how, space)
    # only a right or outer join leaves a left slot empty, only a left or
    # outer join a right one
    missing_l = _unmatched(left_idx) if how in ("right", "outer") else None
    missing_r = _unmatched(right_idx) if how in ("left", "outer") else None
    take_l = _side_taker(left, left_idx, missing_l)
    take_r = _side_taker(right, right_idx, missing_r)

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
                left, right, name, left_idx, right_idx, missing_l, take_l)
        else:
            data[out_name] = take_l(name)
    for name in right_out_cols:
        out_name = f"{name}{suffixes[1]}" if name in overlap else name
        data[out_name] = take_r(name)

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
    missing = [k for k in keys if k not in frame]
    if missing:
        raise KeyError(f"{side} merge keys not found: {missing}")


def _encode_keys(left_arrays: Sequence[np.ndarray],
                 right_arrays: Sequence[np.ndarray]):
    """Codes of each row's key, equal exactly where the keys are equal.

    Returns ``(codes_l, codes_r, space)`` with every code in
    ``[-1, space)``; -1 marks a key that can match nothing (a missing
    cell, as in pandas, or an integer the other side's dtype cannot
    hold).  ``space`` is at most ``DENSE_RANGE`` times the rows of both
    sides: a wider code space is compacted, so the matching kernel's
    count table stays linear in the rows.
    """
    from .groupby import DENSE_RANGE

    bound = DENSE_RANGE * (len(left_arrays[0]) + len(right_arrays[0]))
    if len(left_arrays) == 1:
        offsets = _offsets(left_arrays[0], right_arrays[0], bound)
        if offsets is not None:
            return offsets
    codes_l, codes_r, space = _encode_pair(left_arrays[0], right_arrays[0])
    for la, ra in zip(left_arrays[1:], right_arrays[1:]):
        if space > bound:
            codes_l, codes_r, space = _compacted(codes_l, codes_r)
        cl, cr, width = _encode_pair(la, ra)
        codes_l = np.where((codes_l < 0) | (cl < 0), -1, codes_l * width + cl)
        codes_r = np.where((codes_r < 0) | (cr < 0), -1, codes_r * width + cr)
        space *= width
    if space > bound:
        codes_l, codes_r, space = _compacted(codes_l, codes_r)
    return codes_l, codes_r, space


def _offsets(la: np.ndarray, ra: np.ndarray, bound: int):
    """A single integer key pair's offsets from its joint minimum, when its
    joint range is at most ``bound``: codes that need no sort, no
    concatenation and no arithmetic across the two sides; else ``None``.

    Each side's offsets from its own minimum are read unsigned, so a
    signed type's wrap-around cannot make them negative, at any width
    and either signedness; the gap between the two minimums is a Python
    int, so it is exact too.
    """
    if not (dtypes.is_integer(la.dtype) and dtypes.is_integer(ra.dtype)):
        return None
    lows = [side.min() if len(side) else None for side in (la, ra)]
    highs = [int(side.max()) for side in (la, ra) if len(side)]
    low = min((int(own) for own in lows if own is not None), default=0)
    space = max(highs, default=low - 1) - low + 1
    if space > bound:
        return None
    codes_l, codes_r = (_offsets_from(side, own, low)
                        for side, own in zip((la, ra), lows))
    return codes_l, codes_r, space


def _offsets_from(side: np.ndarray, own, low: int) -> np.ndarray:
    """``side - low`` as int64, given the side's own minimum ``own``."""
    if own is None:
        return np.zeros(0, dtype=np.int64)
    ids = (side - own).view(f"u{side.itemsize}")
    ids = ids.view(np.int64) if side.itemsize == 8 else ids.astype(np.int64)
    if int(own) != low:
        ids += int(own) - low
    return ids


def _encode_pair(la: np.ndarray, ra: np.ndarray):
    """One key column pair's codes over the union of both sides, and
    their width: dictionary codes, or ``factorize`` of the two sides in
    a dtype that holds both exactly."""
    from .groupby import factorize

    if dtypes.dictionary_of(la) and dtypes.dictionary_of(ra):
        # int64, so that combining several keys' codes cannot overflow
        uniques, (cl, cr) = dtypes.union_dictionaries([la, ra])
        return cl.astype(np.int64), cr.astype(np.int64), len(uniques)
    if {la.dtype.kind, ra.dtype.kind} in ({"i", "f"}, {"u", "f"}):
        return _encode_int_float(la, ra)
    dtype = dtypes.common_dtype([la.dtype, ra.dtype])
    cut = None
    if dtypes.is_integer(la.dtype) and dtypes.is_integer(ra.dtype) \
            and dtype.kind == "f":
        # uint64 against a signed type meets in float64, which is not
        # exact past 2^53.  A uint64 past the int64 range equals no
        # signed value, so it matches nothing; the rest meet in int64.
        dtype = np.dtype(np.int64)
        cut = np.concatenate([
            side > np.iinfo(np.int64).max if side.dtype.kind == "u"
            else np.zeros(len(side), dtype=bool) for side in (la, ra)])
    both = np.concatenate([la.astype(dtype, copy=False),
                           ra.astype(dtype, copy=False)])
    codes, uniques = factorize(both)
    if cut is not None:
        codes[cut] = -1
    return codes[: len(la)], codes[len(la):], len(uniques)


def _encode_int_float(la: np.ndarray, ra: np.ndarray):
    """An integer key column against a float one. In float64 the two
    meet inexactly past 2^53, so a float is compared as an integer
    instead: only an integral float inside the integer dtype's range
    can equal one, and every other float matches nothing."""
    ints, floats = (la, ra) if dtypes.is_integer(la.dtype) else (ra, la)
    info = np.iinfo(ints.dtype)
    # NaN fails the first test, an infinity the range
    fits = ((floats == np.floor(floats)) & (floats >= float(info.min))
            & (floats < float(info.max) + 1))
    codes_i, codes_f, width = _encode_pair(
        ints, np.where(fits, floats, 0).astype(ints.dtype))
    codes_f[~fits] = -1
    if ints is la:
        return codes_i, codes_f, width
    return codes_f, codes_i, width


def _compacted(codes_l: np.ndarray, codes_r: np.ndarray):
    """The codes renumbered densely over the ones present; -1 stays."""
    both = np.concatenate([codes_l, codes_r])
    valid = both >= 0
    present, both[valid] = np.unique(both[valid], return_inverse=True)
    return both[: len(codes_l)], both[len(codes_l):], len(present)


def _match_ranges(codes_l: np.ndarray, codes_r: np.ndarray, space: int):
    """The right rows that can match, in runs of equal key (each run in
    right order), and for each left row where its run starts in that
    order and how many rows it has.  Codes are in ``[-1, space)``; -1
    matches nothing.

    The smaller side is counted.  A left side smaller than the right (a
    broadcast side against a chunk) numbers its codes in a table of
    ``space + 1`` slots, each naming one of its rows that holds the code
    (0: none), and the right rows stream past it: only the few that hit
    are ordered, by slot, at the width the left's rows need.  Otherwise
    every right row is counted by code, missing ones first.
    """
    if len(codes_l) < len(codes_r):
        n_slots = len(codes_l) + 1
        slots = np.zeros(space + 1, dtype=id_dtype(n_slots + 1))
        slots[codes_l] = np.arange(1, n_slots)
        slots[-1] = 0  # code -1 lands on the extra last slot: no row
        ids_r = slots[codes_r]
        rows_r = np.flatnonzero(ids_r)
        order, bounds = id_runs(ids_r[rows_r], n_slots)
        order = rows_r[order]
        ids_l = slots[codes_l]
    else:
        # code + 1 is the id, so a missing code is id 0
        order, bounds = id_runs(codes_r + 1, space + 1)
        ids_l = codes_l + 1
    lo = bounds[ids_l]
    counts = bounds[ids_l + 1] - lo
    counts[codes_l < 0] = 0
    return order, lo, counts


def _pairs_in_left_order(codes_l: np.ndarray, codes_r: np.ndarray,
                         space: int, keep_unmatched: bool):
    """Row pairs of the inner join, in left order and, within a left row,
    in right order; ``keep_unmatched`` adds each left row that matched
    nothing once, paired with -1."""
    order_r, lo, counts = _match_ranges(codes_l, codes_r, space)
    emitted = np.maximum(counts, 1) if keep_unmatched else counts
    left_idx = np.repeat(np.arange(len(codes_l), dtype=np.int64), emitted)
    total = len(left_idx)
    if total == 0:
        return left_idx, np.array([], dtype=np.int64)
    # output slot k of left row i pairs with ordered right row lo[i] + k
    out_starts = np.cumsum(emitted) - emitted
    flat = np.arange(total, dtype=np.int64) + np.repeat(lo - out_starts, emitted)
    if not keep_unmatched:
        return left_idx, order_r[flat]
    matched = np.repeat(counts > 0, emitted)
    right_idx = np.full(total, -1, dtype=np.int64)
    right_idx[matched] = order_r[flat[matched]]
    return left_idx, right_idx


def _join_indexers(codes_l: np.ndarray, codes_r: np.ndarray, how: str,
                   space: int):
    if how == "right":
        right_out, left_out = _join_indexers(codes_r, codes_l, "left", space)
        return left_out, right_out
    left_idx, right_idx = _pairs_in_left_order(
        codes_l, codes_r, space, keep_unmatched=how != "inner")
    if how != "outer":
        return left_idx, right_idx
    # outer: also append right rows that matched nothing, in right order
    matched_r = np.zeros(len(codes_r), dtype=bool)
    matched_r[right_idx[right_idx >= 0]] = True
    extra_r = np.flatnonzero(~matched_r)
    left_idx = np.concatenate([left_idx, np.full(len(extra_r), -1, dtype=np.int64)])
    right_idx = np.concatenate([right_idx, extra_r]).astype(np.int64)
    return left_idx, right_idx


def _unmatched(indexer: np.ndarray):
    """The mask of an indexer's -1 positions, or ``None`` when it has
    none — decided once per side, not once per gathered column."""
    missing = indexer < 0
    return missing if missing.any() else None


def _side_taker(side, indexer: np.ndarray, missing):
    """``take(name)``: column ``name`` of a frame or a selection at
    ``indexer``, whose ``missing`` positions (-1) become the dtype's
    missing marker; each column is moved once."""
    if len(indexer) == 0:
        return lambda name: _no_rows(side, name)
    if missing is None:
        return taker(side, indexer)
    take = taker(side, np.where(missing, 0, indexer))

    def take_with_na(name) -> np.ndarray:
        if len(side) == 0:  # nothing to gather from: every position is NA
            dtype = dtypes.promote_for_na(column_of(side, name)).dtype
            return np.full(len(indexer), dtypes.na_value_for(dtype),
                           dtype=dtype)
        # a gather is a fresh array, and so is a promotion of one
        out = dtypes.promote_for_na(take(name))
        out[missing] = dtypes.na_value_for(out.dtype)
        return out

    return take_with_na


def _no_rows(side, name) -> np.ndarray:
    """Column ``name`` of ``side`` cut to no rows."""
    if type(side) is Selection:
        base = side.base_column(name)
        if base is not None:  # owned, not a view of the base
            return base[:0].copy()
    return column_of(side, name)[:0]


def _coalesce_key(left, right, name, left_idx: np.ndarray,
                  right_idx: np.ndarray, missing_l, take_l) -> np.ndarray:
    """Key column ``name`` of the result: left value where present, else
    right.  Every row has its key on exactly one side, so none is
    missing."""
    if missing_l is None:
        return take_l(name)
    left_values, right_values = column_of(left, name), column_of(right, name)
    if (len(left_values) and dtypes.dictionary_of(left_values)
            and dtypes.dictionary_of(right_values)):
        # every row has its key on one side: gather codes, not cells
        union, (codes_l, codes_r) = dtypes.union_dictionaries(
            [left_values, right_values])
        return dtypes.encoded(union, np.where(
            missing_l, codes_r[right_idx], codes_l[left_idx]))
    from_l = left_values[left_idx[~missing_l]]
    from_r = right_values[right_idx[missing_l]]
    out = np.empty(len(missing_l), dtype=_coalesced_dtype(from_l, from_r))
    out[~missing_l] = from_l
    out[missing_l] = from_r
    return out


def _coalesced_dtype(from_l: np.ndarray, from_r: np.ndarray) -> np.dtype:
    """Both sides' common dtype, unless that is float64 for two integer
    sides (a signed one against ``uint64``), which rounds past 2^53:
    then ``int64`` when every value fits it, ``uint64`` when none is
    negative, else object."""
    dtype = dtypes.common_dtype([from_l.dtype, from_r.dtype])
    if dtype.kind != "f" or not all(dtypes.is_integer(side.dtype)
                                    for side in (from_l, from_r)):
        return dtype
    sides = [side for side in (from_l, from_r) if len(side)]
    if all(side.dtype.kind == "i" or side.max() <= np.iinfo(np.int64).max
           for side in sides):
        return np.dtype(np.int64)
    if all(side.dtype.kind == "u" or side.min() >= 0 for side in sides):
        return np.dtype(np.uint64)
    return np.dtype(object)
