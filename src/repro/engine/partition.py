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

NA routing convention (inherited from the original binary search, where
``None <= boundary`` was simply never true): missing keys — ``None`` and
``NaN`` — fall into the **last** range partition and hash to partition
``0 % n_parts`` in hash mode.
"""

from __future__ import annotations

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
    boundaries[r]``; missing keys land in the last partition.
    """
    if not boundaries:
        return np.zeros(len(keys), dtype=np.int64)
    dictionary = dtypes.dictionary_of(keys)
    if dictionary is not None:
        categories, codes = dictionary
        return assign_range_partitions(categories, boundaries)[codes]
    keys = np.asarray(keys)
    if keys.dtype.kind in ("O", "U", "S"):
        bounds = dtypes.object_array(boundaries)
        keys = dtypes.as_array(keys)
        out = np.full(len(keys), len(boundaries), dtype=np.int64)
        present = ~dtypes.isna_array(keys)
        out[present] = np.searchsorted(bounds, keys[present], side="left")
        return out
    bounds = np.asarray(boundaries)
    # NaN sorts after every number in NumPy's order, so float NA keys
    # fall out of searchsorted already assigned to the last partition.
    return np.searchsorted(bounds, keys, side="left").astype(np.int64)


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
