"""``.str`` and ``.dt`` accessors for :class:`repro.frame.Series`."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import dtypes


class StringMethods:
    """Vectorized string methods over an object-dtype Series.

    Missing entries propagate as missing, like pandas; a predicate
    (``contains``, ``startswith``, ``endswith``) answers ``False`` on
    them, as a ``bool`` column.
    """

    def __init__(self, series):
        from .series import Series

        if not dtypes.is_object(series.dtype):
            raise AttributeError(".str accessor requires string (object) values")
        self._series = series
        self._series_cls = Series

    def _map(self, func: Callable, out_dtype=object):
        values = self._series.values
        na = (False if out_dtype is bool
              else dtypes.na_value_for(np.dtype(out_dtype)))
        cell = partial(_map_cell, func, na)
        out = dtypes.per_object(values, cell, out_dtype)  # one call per object
        if out is None:
            out = dtypes.map_cells(values.tolist(), cell, out_dtype)
        return self._series_cls(out, index=self._series.index, name=self._series.name)

    def lower(self):
        return self._map(str.lower)

    def upper(self):
        return self._map(str.upper)

    def strip(self):
        return self._map(str.strip)

    def len(self):
        return self._map(len, out_dtype=np.float64)

    def contains(self, pat: str):
        return self._map(lambda s: pat in s, bool)

    def startswith(self, prefix: str):
        return self._map(lambda s: s.startswith(prefix), bool)

    def endswith(self, suffix: str):
        return self._map(lambda s: s.endswith(suffix), bool)

    def replace(self, old: str, new: str):
        return self._map(lambda s: s.replace(old, new))

    def slice(self, start=None, stop=None, step=None):
        return self._map(lambda s: s[start:stop:step])

    def get(self, i: int):
        return self._map(lambda s: s[i] if -len(s) <= i < len(s) else None)

    def cat(self, other, sep: str = ""):
        other_values = other.values if hasattr(other, "values") else np.asarray(other)
        values = self._series.values
        out = np.empty(len(values), dtype=object)
        for i in range(len(values)):
            left, right = values[i], other_values[i]
            out[i] = None if left is None or right is None else f"{left}{sep}{right}"
        return self._series_cls(out, index=self._series.index, name=self._series.name)


def _map_cell(func: Callable, na, cell):
    """One cell of :meth:`StringMethods._map`: ``na`` where the cell is
    missing or ``func`` answers ``None``, else ``func``'s answer."""
    if dtypes.isna_cell(cell):
        return na
    out = func(cell)
    return na if out is None else out


class DatetimeMethods:
    """``.dt`` accessor over a ``datetime64[ns]`` Series."""

    def __init__(self, series):
        from .series import Series

        if not dtypes.is_datetime(series.dtype):
            raise AttributeError(".dt accessor requires datetime64 values")
        self._series = series
        self._series_cls = Series

    def _field(self, unit: str, base_unit: str, modulo: int | None = None, offset: int = 0):
        values = self._series.values
        coarse = values.astype(f"datetime64[{unit}]").astype(np.int64)
        if modulo is not None:
            coarse = coarse % modulo
        out = (coarse + offset).astype(np.float64)
        out[np.isnat(values)] = np.nan
        return self._series_cls(out, index=self._series.index, name=self._series.name)

    @property
    def year(self):
        return self._field("Y", "Y", offset=1970)

    @property
    def month(self):
        return self._field("M", "M", modulo=12, offset=1)

    @property
    def day(self):
        values = self._series.values
        days = (
            values.astype("datetime64[D]").astype(np.int64)
            - values.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        )
        out = (days + 1).astype(np.float64)
        out[np.isnat(values)] = np.nan
        return self._series_cls(out, index=self._series.index, name=self._series.name)

    @property
    def dayofweek(self):
        values = self._series.values
        days = values.astype("datetime64[D]").astype(np.int64)
        out = ((days + 3) % 7).astype(np.float64)  # 1970-01-01 was a Thursday
        out[np.isnat(values)] = np.nan
        return self._series_cls(out, index=self._series.index, name=self._series.name)
