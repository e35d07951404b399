"""Shared shuffle partition kernels: assign rows to partitions, split frames.

Every shuffle-map operator (merge, groupby shuffle-reduce, distributed
sort) does the same two things to a chunk: compute a per-row partition id
from the key column, then split the chunk into one frame per partition.
This module owns both as array-at-a-time kernels: one pass over the key
column (``hash_array`` / ``np.searchsorted``) and one stable
``argsort``/gather sweep that materializes all N output frames in two
passes total. The scalar per-row definitions they must match bit for bit
— same rows, same within-partition order (stable sort == boolean mask
order), same index labels — live in
``tests/dataframe/test_partition_kernels.py`` as the parity oracle.

Both engines share these kernels.  A key column that carries its
dictionary (``frame.dtypes.DictArray``, the columnar engine's string
columns) is assigned over its categories and gathered by its codes:
elementwise maps commute with gathers, so the draw is the one its cells
would get, at dictionary cost — partition assignment is part of the
deterministic accounting walk, so it must not depend on the engine.

Both follow the key contract of ``frame.dtypes``: missing keys (one
``isna_array`` mask for every dtype) fall into the **last** range
partition and hash to partition 0; keys equal across dtypes hash alike
and fall between the same cuts.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ..frame import DataFrame
from ..frame import dtypes
from ..frame.hashing import hash_array
from ..frame.sorting import id_runs


def assign_hash_partitions(keys: np.ndarray, n_parts: int) -> np.ndarray:
    """Per-row partition ids via the deterministic content hash."""
    dictionary = dtypes.dictionary_of(keys)
    if dictionary is not None:
        categories, codes = dictionary
        return (hash_array(categories) % n_parts)[codes]
    return hash_array(keys) % n_parts


def assign_range_partitions(keys: np.ndarray,
                            boundaries: list) -> np.ndarray:
    """Per-row partition ids via search over the sampled boundaries.

    Partition ``r`` receives keys with ``boundaries[r-1] < key <=
    boundaries[r]`` in the key contract's order; missing keys land in
    the last partition.
    """
    if not boundaries:
        return np.zeros(len(keys), dtype=np.int64)
    dictionary = dtypes.dictionary_of(keys)
    if dictionary is not None:
        categories, codes = dictionary  # str cells, none missing
        return _cuts_below(categories, boundaries)[codes]
    keys = np.asarray(keys)
    missing = dtypes.isna_array(keys)
    if not missing.any():
        return _cuts_below(keys, boundaries)
    out = np.full(len(keys), len(boundaries), dtype=np.int64)
    out[~missing] = _cuts_below(keys[~missing], boundaries)
    return out


def _cuts_below(keys: np.ndarray, cuts: list) -> np.ndarray:
    """How many ``cuts`` lie below each present key: a typed column
    searches them in its dtype, Python cells by ``dtypes.sort_key``."""
    if keys.dtype.kind == "b":  # False and True are the integers 0 and 1
        keys = keys.view(np.uint8)
    elif keys.dtype == np.dtype("datetime64[ns]"):  # cells are ns ints
        keys = keys.view(np.int64)
    if keys.dtype.kind in "iuf" and all(isinstance(cut, (int, float))
                                        for cut in cuts):
        below, bounds = _floors(keys.dtype, cuts)
        return below + np.searchsorted(bounds, keys, side="left")
    keys = keys.astype(object, copy=False)  # Python cells
    key = dtypes.sort_key(chain(keys, cuts))
    if key is not None:
        keys, cuts = dtypes.object_array(map(key, keys)), map(key, cuts)
    return np.searchsorted(dtypes.object_array(cuts), keys, side="left")


def _floors(dtype: np.dtype, cuts: list) -> tuple[int, np.ndarray]:
    """Each cut as the largest value of ``dtype`` not above it, below a
    key exactly when the cut is; cuts below the whole dtype are counted."""
    if dtype.kind == "f":
        bounds = np.array(cuts, dtype=dtype)
        for i, cut in enumerate(cuts):
            if float(bounds[i]) > cut:  # rounded up: the float below it
                bounds[i] = np.nextafter(bounds[i], dtype.type(-np.inf))
        return 0, bounds
    info = np.iinfo(dtype)
    floors = [math.floor(min(max(cut, info.min - 1), info.max))
              for cut in cuts]
    below = sum(floor < info.min for floor in floors)
    return below, np.array(floors[below:], dtype=dtype)


def split_by_assignment(frame: DataFrame, assignment: np.ndarray,
                        n_parts: int) -> list[DataFrame]:
    """Split ``frame`` into ``n_parts`` frames by per-row partition id.

    Reorders the frame once (``sorting.id_runs``) and slices each
    partition out of the gathered columns — two passes over the data
    regardless of ``n_parts``. Row order within each partition is the
    original chunk order.
    """
    order, bounds = id_runs(assignment, n_parts)
    gathered = {name: dtypes.take(frame._data[name], order)
                for name in frame._columns}
    parts: list[DataFrame] = []
    for r in range(n_parts):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        data = {name: dtypes.take(arr, slice(lo, hi))
                for name, arr in gathered.items()}
        index = frame.index.take(order[lo:hi])
        parts.append(DataFrame._new(data, index, list(frame._columns)))
    return parts
