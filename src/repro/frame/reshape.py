"""Reshaping and encoding helpers: ``cut``/``qcut`` binning,
``get_dummies`` one-hot encoding, and ``melt`` — the feature-engineering
surface the paper's DS pipelines (census, plasticc) lean on."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import dtypes
from .dataframe import DataFrame
from .index import default_index
from .series import Series


def cut(series: Series, bins, labels: Optional[Sequence] = None,
        right: bool = True) -> Series:
    """Bin values into discrete intervals.

    ``bins`` is either an int (equal-width bins over the data range) or an
    explicit ascending edge sequence. Returns an object Series of labels;
    values outside the edges become missing.
    """
    values = np.asarray(series.values, dtype=np.float64)
    if isinstance(bins, (int, np.integer)):
        if bins <= 0:
            raise ValueError("bins must be positive")
        finite = values[~np.isnan(values)]
        if len(finite) == 0:
            raise ValueError("cannot cut an all-NaN series")
        lo, hi = float(finite.min()), float(finite.max())
        if lo == hi:
            lo -= 0.001 * abs(lo) + 0.001
        edges = np.linspace(lo, hi, int(bins) + 1)
        edges[0] -= (hi - lo) * 0.001  # include the minimum
    else:
        edges = np.asarray(list(bins), dtype=np.float64)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be ascending and >= 2")
    return _assign_bins(series, values, edges, labels, right)


def qcut(series: Series, q: int, labels: Optional[Sequence] = None) -> Series:
    """Quantile-based binning into ``q`` near-equal-count buckets."""
    if q <= 0:
        raise ValueError("q must be positive")
    values = np.asarray(series.values, dtype=np.float64)
    finite = values[~np.isnan(values)]
    if len(finite) == 0:
        raise ValueError("cannot qcut an all-NaN series")
    edges = np.quantile(finite, np.linspace(0, 1, q + 1))
    edges = np.unique(edges)
    if len(edges) < 2:
        raise ValueError("too few distinct values for the requested q")
    edges[0] -= abs(edges[0]) * 0.001 + 0.001
    return _assign_bins(series, values, edges, labels, right=True)


def _assign_bins(series: Series, values: np.ndarray, edges: np.ndarray,
                 labels: Optional[Sequence], right: bool) -> Series:
    side = "left" if right else "right"
    positions = np.searchsorted(edges, values, side=side) - 1
    n_bins = len(edges) - 1
    if labels is not None:
        if len(labels) != n_bins:
            raise ValueError(f"need {n_bins} labels, got {len(labels)}")
        label_list = list(labels)
    else:
        label_list = [
            f"({edges[i]:.4g}, {edges[i + 1]:.4g}]" for i in range(n_bins)
        ]
    out = np.empty(len(values), dtype=object)
    for i, pos in enumerate(positions):
        if np.isnan(values[i]) or not 0 <= pos < n_bins:
            out[i] = None
        else:
            out[i] = label_list[pos]
    return Series(out, index=series.index, name=series.name)


def get_dummies(data: Series | DataFrame, prefix: Optional[str] = None,
                columns: Optional[Sequence] = None) -> DataFrame:
    """One-hot encode categorical values (0/1 float columns)."""
    if isinstance(data, Series):
        return _dummies_for(data, prefix if prefix is not None else data.name)
    frame = data
    targets = (
        list(columns) if columns is not None
        else [c for c in frame.columns.to_list()
              if dtypes.is_object(frame[c].dtype)]
    )
    pieces: dict = {}
    for name in frame.columns.to_list():
        if name in targets:
            encoded = _dummies_for(frame[name], str(name))
            for col in encoded.columns.to_list():
                pieces[col] = encoded[col].values
        else:
            pieces[name] = frame[name].values
    return DataFrame(pieces, index=frame.index)


def _dummies_for(series: Series, prefix) -> DataFrame:
    categories = sorted((v for v in series.unique().tolist()
                         if not dtypes.isna_cell(v)), key=dtypes.order_key)
    data: dict = {}
    values = series.values
    for category in categories:
        name = f"{prefix}_{category}" if prefix is not None else category
        data[name] = (values == category).astype(np.float64)
    if not data:
        raise ValueError("no categories to encode")
    return DataFrame(data, index=series.index)


def melt(frame: DataFrame, id_vars: Sequence, value_vars: Optional[Sequence] = None,
         var_name: str = "variable", value_name: str = "value") -> DataFrame:
    """Unpivot from wide to long format."""
    id_list = [id_vars] if isinstance(id_vars, str) else list(id_vars)
    if value_vars is None:
        value_list = [c for c in frame.columns.to_list() if c not in set(id_list)]
    else:
        value_list = list(value_vars)
    if not value_list:
        raise ValueError("nothing to melt")
    n = len(frame)
    out: dict = {}
    for key in id_list:
        out[key] = np.concatenate(
            [frame[key].values] * len(value_list)
        ) if n else frame[key].values
    variable = np.empty(n * len(value_list), dtype=object)
    for j, name in enumerate(value_list):
        variable[j * n:(j + 1) * n] = str(name)
    out[var_name] = variable
    value_dtype = dtypes.common_dtype(frame[c].values for c in value_list)
    out[value_name] = np.concatenate(
        [frame[c].values.astype(value_dtype) for c in value_list]
    ) if n else np.empty(0, dtype=value_dtype)
    return DataFrame(out, index=default_index(n * len(value_list)))
