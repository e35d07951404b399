"""Stable, NA-aware sorting kernels shared by Series and DataFrame."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import dtypes


def argsort_values(values: np.ndarray, ascending: bool = True,
                   na_position: str = "last") -> np.ndarray:
    """Stable argsort with missing values pinned to one end.

    Descending order is implemented by reversing a stable ascending sort of
    the non-missing block, which keeps ties in their original relative order
    reversed — matching pandas' ``kind='stable'`` behaviour closely enough
    for the workloads here.
    """
    if na_position not in ("first", "last"):
        raise ValueError(f"invalid na_position {na_position!r}")
    dictionary = dtypes.dictionary_of(values)
    if dictionary is not None:
        # categories are sorted and no cell is NA: the codes' order is
        # the cells' order
        order = np.argsort(dictionary[1], kind="stable")
        return (order if ascending else order[::-1]).astype(np.int64)
    na_mask = dtypes.isna_array(values)
    valid_positions = np.flatnonzero(~na_mask)
    na_positions = np.flatnonzero(na_mask)
    valid = values[valid_positions]
    if dtypes.is_object(valid.dtype):
        # one C-level sort; mixed cell types sort by their order keys
        cells = valid.tolist()
        key = dtypes.sort_key(cells)
        if key is not None:
            valid = dtypes.object_array(map(key, cells))
    order = np.argsort(valid, kind="stable")
    if not ascending:
        order = order[::-1]
    sorted_valid = valid_positions[order]
    if na_position == "first":
        return np.concatenate([na_positions, sorted_valid]).astype(np.int64)
    return np.concatenate([sorted_valid, na_positions]).astype(np.int64)


def id_dtype(n_ids: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ids in ``[0, n_ids)``, or
    ``intp``: NumPy radix-sorts 8- and 16-bit keys in O(rows)."""
    if n_ids <= 1 << 8:
        return np.dtype(np.uint8)
    if n_ids <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.intp)


def id_runs(ids: np.ndarray, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(ids, kind="stable")`` of ids in ``[0, n_ids)``, and the
    ``n_ids + 1`` bounds of each id's run in that order.

    The bounds are a count of the ids.  A stable sort's answer is unique,
    so the ids are sorted at the narrowest width that holds them
    (``id_dtype``).
    """
    bounds = np.zeros(n_ids + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n_ids), out=bounds[1:])
    return np.argsort(ids.astype(id_dtype(n_ids), copy=False),
                      kind="stable"), bounds


def lexsort_columns(columns: Sequence[np.ndarray],
                    ascending: Sequence[bool],
                    na_position: str = "last") -> np.ndarray:
    """Multi-key stable sort: first column is the primary key.

    Implemented as repeated stable argsorts from the least significant key
    to the most significant one.
    """
    if len(columns) != len(ascending):
        raise ValueError("columns and ascending must have equal length")
    if not columns:
        raise ValueError("need at least one sort key")
    n = len(columns[0])
    indexer = np.arange(n, dtype=np.int64)
    for values, asc in zip(reversed(list(columns)), reversed(list(ascending))):
        partial = argsort_values(dtypes.take(values, indexer), ascending=asc,
                                 na_position=na_position)
        indexer = indexer[partial]
    return indexer
