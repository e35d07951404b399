"""Concatenation of frames and series along either axis.

Row-wise concat is the kernel behind the engine's *auto merge* (Section
IV-C): small chunks produced by a filter or shuffle are concatenated back
into right-sized chunks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import dtypes
from .dataframe import DataFrame
from .index import Index, default_index
from .series import Series


def concat(objs: Sequence, axis: int = 0, ignore_index: bool = False):
    """Concatenate DataFrames or Series."""
    objs = [o for o in objs if o is not None]
    if not objs:
        raise ValueError("no objects to concatenate")
    if all(isinstance(o, Series) for o in objs):
        if axis == 1:
            return _concat_series_as_frame(objs)
        return _concat_series(objs, ignore_index=ignore_index)
    frames = [o.to_frame() if isinstance(o, Series) else o for o in objs]
    if axis == 1:
        return _concat_columns(frames)
    return _concat_rows(frames, ignore_index=ignore_index)


def _concat_values(pieces: list[np.ndarray]) -> np.ndarray:
    """One owned column out of same-dtype pieces.  When every piece that
    has rows is encoded, so is the result: the dictionaries are merged
    (O(uniques)) and the codes remapped, no cell is hashed."""
    values = np.concatenate(pieces)
    filled = [piece for piece in pieces if len(piece)]
    if filled and all(map(dtypes.dictionary_of, filled)):
        categories, codes = dtypes.union_dictionaries(filled)
        return dtypes.encoded(categories, np.concatenate(codes), cells=values)
    return values


def _concat_series(series_list: Sequence[Series], ignore_index: bool) -> Series:
    dtype = dtypes.common_dtype([s.values for s in series_list])
    values = _concat_values(
        [s.values.astype(dtype, copy=False) for s in series_list])
    if ignore_index:
        index = default_index(len(values))
    else:
        index = series_list[0].index
        for s in series_list[1:]:
            index = index.append(s.index)
    names = {s.name for s in series_list}
    name = names.pop() if len(names) == 1 else None
    return Series(values, index=index, name=name)


def _concat_series_as_frame(series_list: Sequence[Series]) -> DataFrame:
    data = {}
    for i, s in enumerate(series_list):
        name = s.name if s.name is not None else i
        data[name] = s.values
    return DataFrame(data, index=series_list[0].index)


def _concat_rows(frames: Sequence[DataFrame], ignore_index: bool) -> DataFrame:
    non_empty = [f for f in frames if len(f.columns) > 0]
    if not non_empty:
        return DataFrame({})
    # union of columns in first-seen order
    columns: list = []
    for frame in non_empty:
        for name in frame._columns:
            if name not in columns:
                columns.append(name)
    total = sum(len(f) for f in non_empty)
    data: dict = {}
    for name in columns:
        pieces = []
        has_missing_block = any(name not in f._data for f in non_empty)
        dtype = dtypes.common_dtype(
            f._data[name] for f in non_empty if name in f._data)
        if has_missing_block and dtype.kind in ("i", "u", "b"):
            dtype = np.dtype(np.float64)
        for frame in non_empty:
            if name in frame._data:
                pieces.append(frame._data[name].astype(dtype, copy=False))
            else:
                fill = dtypes.na_value_for(dtype)
                pieces.append(np.full(len(frame), fill, dtype=dtype))
        data[name] = _concat_values(pieces)
        if len(data[name]) != total:
            raise AssertionError("concat length bookkeeping error")
    if ignore_index:
        index: Index = default_index(total)
    else:
        index = non_empty[0].index
        for frame in non_empty[1:]:
            index = index.append(frame.index)
    return DataFrame(data, index=index, columns=columns)


def _concat_columns(frames: Sequence[DataFrame]) -> DataFrame:
    n = len(frames[0])
    if any(len(f) != n for f in frames):
        raise ValueError("axis=1 concat requires equal lengths")
    data: dict = {}
    for frame in frames:
        for name in frame._columns:
            out_name = name
            counter = 0
            while out_name in data:
                counter += 1
                out_name = f"{name}_{counter}"
            data[out_name] = frame._data[name]
    return DataFrame(data, index=frames[0].index)
