"""``.str`` and ``.dt`` accessors for :class:`repro.frame.Series`."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import dtypes


class StringMethods:
    """Vectorized string methods over an object-dtype Series.

    Missing entries propagate as missing, like pandas.
    """

    def __init__(self, series):
        from .series import Series

        if not dtypes.is_object(series.dtype):
            raise AttributeError(".str accessor requires string (object) values")
        self._series = series
        self._series_cls = Series

    def _map(self, func: Callable, out_dtype=object):
        values = self._series.values
        na = dtypes.na_value_for(np.dtype(out_dtype))
        out = dtypes.per_object(  # one call per object
            values, partial(_map_cell, func, na), out_dtype)
        if out is not None:
            return self._series_cls(out, index=self._series.index, name=self._series.name)
        mask = dtypes.isna_array(values)
        out = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            out[i] = None if mask[i] else func(value)
        if out_dtype is not object:
            filled = np.array(
                [dtypes.na_value_for(np.dtype(out_dtype)) if v is None else v for v in out],
                dtype=out_dtype,
            )
            return self._series_cls(filled, index=self._series.index, name=self._series.name)
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
        result = self._map(lambda s: pat in s)
        return result.fillna(False).astype(bool)

    def startswith(self, prefix: str):
        result = self._map(lambda s: s.startswith(prefix))
        return result.fillna(False).astype(bool)

    def endswith(self, suffix: str):
        result = self._map(lambda s: s.endswith(suffix))
        return result.fillna(False).astype(bool)

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
