""":class:`Series` — a labelled 1-D column, the building block of
:class:`repro.frame.DataFrame`.

Semantics follow pandas where the paper's workloads need them: NaN-skipping
reductions, boolean masking, ``map``/``isin``/``value_counts``, and the
``.str``/``.dt`` accessors.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import dtypes
from .index import Index, RangeIndex, default_index, ensure_index
from .sorting import argsort_values
from .strings import DatetimeMethods, StringMethods


#: the items a numeric column's ``isin`` compares as numbers
_NUMBERS = (bool, int, float, np.bool_, np.integer, np.float16, np.float32,
            np.float64)
_FLOATS = (float, np.floating)


def _typed_isin(values: np.ndarray, items: list):
    """``isin`` of a typed numeric or datetime column as one ``np.isin``,
    or ``None`` when the column or an item is of another kind.

    It answers what ``cell in set(items)`` answers cell by cell: a cell
    matches an item it equals exactly (``1 == 1.0 == True``, and an
    integer past 2^53 is not the float next to it), NaN and NaT match
    nothing (``np.isin`` compares with ``==``), and a datetime matches
    only items of its own unit.
    """
    kind = values.dtype.kind
    if kind == "M":
        if not all(type(v) is np.datetime64 and v.dtype == values.dtype
                   for v in items):
            return None
        wanted = items
    elif kind in "iub" and all(isinstance(v, _NUMBERS) for v in items):
        if kind == "b":  # False and True are the integers 0 and 1
            values = values.view(np.uint8)
        info = np.iinfo(values.dtype)
        floats = np.array([v for v in items if isinstance(v, _FLOATS)],
                          dtype=np.float64)
        ints = [int(v) for v in items if not isinstance(v, _FLOATS)]
        wanted = [*floats[dtypes.integral_in(floats, values.dtype)].tolist(),
                  *(n for n in ints if info.min <= n <= info.max)]
    elif kind == "f" and all(isinstance(v, _NUMBERS) for v in items):
        values = values.astype(np.float64, copy=False)  # exact for any float
        wanted = [f for f in map(dtypes.exact_float, items) if f is not None]
    else:
        return None
    return np.isin(values, np.array(wanted, dtype=values.dtype))


class _SeriesIloc:
    def __init__(self, series: "Series"):
        self._series = series

    def __getitem__(self, item):
        series = self._series
        if isinstance(item, (int, np.integer)):
            return series.values[int(item)]
        if isinstance(item, slice):
            return Series(
                series.values[item], index=series.index[item], name=series.name
            )
        indexer = np.asarray(item)
        if indexer.dtype == bool:
            indexer = np.flatnonzero(indexer)
        return Series(
            series.values[indexer],
            index=series.index.take(indexer),
            name=series.name,
        )


class _SeriesLoc:
    def __init__(self, series: "Series"):
        self._series = series

    def __getitem__(self, item):
        series = self._series
        if isinstance(item, Series) and dtypes.is_bool(item.dtype):
            return series[item]
        if isinstance(item, slice):
            indexer = series.index.slice_indexer(item.start, item.stop)
            return series.iloc[indexer]
        if isinstance(item, (list, np.ndarray)):
            indexer = series.index.get_indexer(list(item))
            return series.iloc[indexer]
        pos = series.index.get_indexer([item])[0]
        return series.values[pos]


class Series:
    """A 1-D labelled array of a single dtype."""

    __slots__ = ("_values", "_index", "name")

    def __init__(self, values: Any, index: Index | Iterable | None = None,
                 name: str | None = None):
        if isinstance(values, Series):
            if index is None:
                index = values._index
            if name is None:
                name = values.name
            values = values._values
        if isinstance(values, (int, float, bool, str, np.generic)) and index is not None:
            idx = ensure_index(index)
            arr = np.full(len(idx), values)
            self._values = dtypes.as_array(arr)
            self._index = idx
            self.name = name
            return
        self._values = dtypes.as_array(values)
        self._index = ensure_index(index, n=len(self._values))
        if len(self._index) != len(self._values):
            raise ValueError(
                f"index length {len(self._index)} != data length {len(self._values)}"
            )
        self.name = name

    # -- basic protocol ------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def index(self) -> Index:
        return self._index

    @property
    def dtype(self) -> np.dtype:
        return self._values.dtype

    @property
    def shape(self) -> tuple[int]:
        return (len(self._values),)

    @property
    def size(self) -> int:
        return len(self._values)

    @property
    def empty(self) -> bool:
        return len(self._values) == 0

    @property
    def nbytes(self) -> int:
        # same numbers as utils.sizeof, without the import/dispatch cost.
        values = self._values
        if values.dtype == object:
            return int(values.size) * 64 + 96 + self._index.nbytes
        return int(values.nbytes) + self._index.nbytes

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __repr__(self) -> str:
        head = ", ".join(
            f"{label!r}: {value!r}"
            for label, value in list(zip(self._index, self._values))[:8]
        )
        suffix = ", ..." if len(self) > 8 else ""
        return f"Series({{{head}{suffix}}}, name={self.name!r}, dtype={self.dtype})"

    # -- selection -----------------------------------------------------------
    @property
    def iloc(self) -> _SeriesIloc:
        return _SeriesIloc(self)

    @property
    def loc(self) -> _SeriesLoc:
        return _SeriesLoc(self)

    def __getitem__(self, item):
        if isinstance(item, Series) and dtypes.is_bool(item.dtype):
            mask = item._values
            return Series(
                self._values[mask],
                index=self._index.take(np.flatnonzero(mask)),
                name=self.name,
            )
        if isinstance(item, np.ndarray) and item.dtype == bool:
            return Series(
                self._values[item],
                index=self._index.take(np.flatnonzero(item)),
                name=self.name,
            )
        return self.loc[item]

    def head(self, n: int = 5) -> "Series":
        return self.iloc[:n]

    def tail(self, n: int = 5) -> "Series":
        return self.iloc[len(self) - min(n, len(self)):]

    def take(self, indexer) -> "Series":
        return self.iloc[np.asarray(indexer)]

    # -- alignment helper ----------------------------------------------------
    def _coerce_operand(self, other):
        if isinstance(other, Series):
            if len(other) != len(self):
                raise ValueError(
                    f"cannot align Series of lengths {len(self)} and {len(other)}"
                )
            return other._values
        if isinstance(other, np.ndarray):
            if other.ndim == 1 and len(other) != len(self):
                raise ValueError("operand length mismatch")
            return other
        return other

    def _binop(self, other, func: Callable, reflected: bool = False) -> "Series":
        """``func(self, other)`` elementwise; ``reflected`` swaps them."""
        other_values = self._coerce_operand(other)
        left = self._values
        if dtypes.is_object(left.dtype):
            result = _object_binop(left, other_values, func, reflected=reflected)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                result = (func(other_values, left) if reflected
                          else func(left, other_values))
        return Series(result, index=self._index, name=self.name)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        return self._binop(other, operator.add)

    def __radd__(self, other):
        return self._binop(other, operator.add, reflected=True)

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __rsub__(self, other):
        return self._binop(other, operator.sub, reflected=True)

    def __mul__(self, other):
        return self._binop(other, operator.mul)

    def __rmul__(self, other):
        return self._binop(other, operator.mul, reflected=True)

    def __truediv__(self, other):
        return self._binop(other, np.true_divide)

    def __rtruediv__(self, other):
        return self._binop(other, np.true_divide, reflected=True)

    def __floordiv__(self, other):
        return self._binop(other, np.floor_divide)

    def __mod__(self, other):
        return self._binop(other, np.mod)

    def __pow__(self, other):
        return self._binop(other, np.power)

    def __neg__(self):
        return Series(-self._values, index=self._index, name=self.name)

    def __abs__(self):
        return self.abs()

    # -- comparisons -----------------------------------------------------------
    def _compare(self, other, func: Callable) -> "Series":
        other_values = self._coerce_operand(other)
        values = self._values
        if dtypes.is_object(values.dtype):
            result = None
            if not isinstance(other_values, np.ndarray):  # one compare per object
                result = dtypes.per_object(
                    values, partial(_compare_cell, func, other_values), bool)
            if result is None:
                result = _object_binop(values, other_values, func, na_result=False)
        else:
            with np.errstate(invalid="ignore"):
                result = func(self._values, other_values)
        return Series(np.asarray(result, dtype=bool), index=self._index, name=self.name)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, operator.eq)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, operator.ne)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    __hash__ = None  # type: ignore[assignment]

    # -- logical ---------------------------------------------------------------
    def __and__(self, other):
        return self._binop(other, operator.and_)

    def __or__(self, other):
        return self._binop(other, operator.or_)

    def __xor__(self, other):
        return self._binop(other, operator.xor)

    def __invert__(self):
        return Series(~self._values, index=self._index, name=self.name)

    # -- missing data ------------------------------------------------------------
    def isna(self) -> "Series":
        return Series(dtypes.isna_array(self._values), index=self._index, name=self.name)

    def notna(self) -> "Series":
        return Series(~dtypes.isna_array(self._values), index=self._index, name=self.name)

    def fillna(self, value) -> "Series":
        mask = dtypes.isna_array(self._values)
        if not mask.any():
            return self.copy()
        values = self._values
        if dtypes.is_object(values.dtype) or isinstance(value, str):
            out = values.astype(object).copy()
            out[mask] = value
        else:
            out = values.copy()
            out[mask] = value
        return Series(out, index=self._index, name=self.name)

    def dropna(self) -> "Series":
        mask = ~dtypes.isna_array(self._values)
        return Series(
            self._values[mask], index=self._index.take(np.flatnonzero(mask)), name=self.name
        )

    # -- transforms ---------------------------------------------------------------
    def astype(self, dtype) -> "Series":
        target = np.dtype(dtype)
        values = self._values
        if target == object:
            out = values.astype(object)
        elif dtypes.is_object(values.dtype):
            out = np.array(
                [dtypes.na_value_for(target) if v is None else v for v in values],
                dtype=target,
            )
        else:
            out = values.astype(target)
        return Series(out, index=self._index, name=self.name)

    def abs(self) -> "Series":
        return Series(np.abs(self._values), index=self._index, name=self.name)

    def round(self, decimals: int = 0) -> "Series":
        return Series(np.round(self._values, decimals), index=self._index, name=self.name)

    def clip(self, lower=None, upper=None) -> "Series":
        return Series(np.clip(self._values, lower, upper), index=self._index, name=self.name)

    def map(self, mapper) -> "Series":
        values = self._values
        out = np.empty(len(values), dtype=object)
        if isinstance(mapper, Mapping):
            for i, value in enumerate(values):
                out[i] = mapper.get(value)
        else:
            mask = dtypes.isna_array(values)
            for i, value in enumerate(values):
                out[i] = None if mask[i] else mapper(value)
        return Series(_tighten(out), index=self._index, name=self.name)

    def apply(self, func: Callable) -> "Series":
        out = np.empty(len(self._values), dtype=object)
        for i, value in enumerate(self._values):
            out[i] = func(value)
        return Series(_tighten(out), index=self._index, name=self.name)

    def isin(self, values: Iterable) -> "Series":
        items = list(values)
        out = _typed_isin(self._values, items)
        if out is None:
            lookup = set(items)
            if dtypes.is_object(self._values.dtype):  # one ``in`` per object
                out = dtypes.per_object(self._values, lookup.__contains__, bool)
            if out is None:
                out = np.fromiter(
                    (v in lookup for v in self._values), dtype=bool,
                    count=len(self._values))
        return Series(out, index=self._index, name=self.name)

    def between(self, left, right, inclusive: str = "both") -> "Series":
        if inclusive == "both":
            mask = (self >= left) & (self <= right)
        elif inclusive == "neither":
            mask = (self > left) & (self < right)
        elif inclusive == "left":
            mask = (self >= left) & (self < right)
        elif inclusive == "right":
            mask = (self > left) & (self <= right)
        else:
            raise ValueError(f"invalid inclusive value {inclusive!r}")
        mask.name = self.name
        return mask

    def where(self, cond: "Series", other=np.nan) -> "Series":
        mask = cond._values if isinstance(cond, Series) else np.asarray(cond, dtype=bool)
        values = dtypes.promote_for_na(self._values)
        other_values = other._values if isinstance(other, Series) else other
        out = np.where(mask, values, other_values)
        return Series(out, index=self._index, name=self.name)

    def shift(self, periods: int = 1) -> "Series":
        values = dtypes.promote_for_na(self._values)
        out = np.empty(len(values), dtype=values.dtype if values.dtype.kind == "f" else object)
        na = dtypes.na_value_for(np.dtype(out.dtype))
        if periods >= 0:
            out[:periods] = na
            out[periods:] = values[: len(values) - periods]
        else:
            out[periods:] = na
            out[:periods] = values[-periods:]
        return Series(out, index=self._index, name=self.name)

    def diff(self, periods: int = 1) -> "Series":
        return self - self.shift(periods)

    # -- uniqueness / counting ------------------------------------------------------
    def unique(self) -> np.ndarray:
        """The distinct values: an object column's in first-seen order,
        its missing cells one value as ``duplicated`` has them; any
        other column's sorted, NaN last."""
        values = self._values
        if dtypes.is_object(values.dtype):
            return values[~self.duplicated()._values].view(np.ndarray)
        if dtypes.is_float(values.dtype):
            mask = np.isnan(values)
            uniques = np.unique(values[~mask])
            if mask.any():
                uniques = np.concatenate([uniques, [np.nan]])
            return uniques
        return np.unique(values)

    def nunique(self, dropna: bool = True) -> int:
        uniques = self.unique()
        if dropna:
            return int((~dtypes.isna_array(dtypes.as_array(uniques))).sum())
        return len(uniques)

    def value_counts(self, ascending: bool = False) -> "Series":
        values = self._values
        if dtypes.is_object(values.dtype):
            codes, distinct = dtypes.first_seen(values)
            present = ~dtypes.isna_cells(distinct)
            labels = np.array(list(compress(distinct, present.tolist())),
                              dtype=object)
            freq = np.bincount(codes, minlength=len(distinct))[present]
        else:
            labels, freq = np.unique(values[~dtypes.isna_array(values)],
                                     return_counts=True)
        order = np.argsort(freq, kind="stable")
        if not ascending:
            order = order[::-1]
        return Series(freq[order], index=Index(labels[order], name=self.name), name="count")

    def duplicated(self, keep: str = "first") -> "Series":
        from .groupby import duplicated

        return Series(duplicated([self._values], keep), index=self._index,
                      name=self.name)

    def drop_duplicates(self, keep: str = "first") -> "Series":
        mask = ~self.duplicated(keep=keep)._values
        return Series(
            self._values[mask], index=self._index.take(np.flatnonzero(mask)), name=self.name
        )

    # -- sorting ---------------------------------------------------------------------
    def sort_values(self, ascending: bool = True, na_position: str = "last") -> "Series":
        order = argsort_values(self._values, ascending=ascending, na_position=na_position)
        return self.iloc[order]

    def sort_index(self, ascending: bool = True) -> "Series":
        order = self._index.argsort()
        if not ascending:
            order = order[::-1]
        return self.iloc[order]

    def nlargest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=False).head(n)

    def nsmallest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=True).head(n)

    def argsort(self) -> np.ndarray:
        return argsort_values(self._values, ascending=True, na_position="last")

    def idxmax(self):
        values = dtypes.promote_for_na(self._values).astype(np.float64)
        return self._index[int(np.nanargmax(values))]

    def idxmin(self):
        values = dtypes.promote_for_na(self._values).astype(np.float64)
        return self._index[int(np.nanargmin(values))]

    # -- reductions ---------------------------------------------------------------------
    def _numeric_for_reduce(self) -> np.ndarray:
        values = self._values
        if dtypes.is_object(values.dtype):
            raise TypeError(f"cannot reduce object-dtype Series {self.name!r} numerically")
        return values

    def sum(self, skipna: bool = True):
        values = self._values
        if dtypes.is_object(values.dtype):
            kept = [v for v in values if v is not None]
            total = kept[0] if kept else 0
            for v in kept[1:]:
                total = total + v
            return total
        if dtypes.is_bool(values.dtype):
            return int(values.sum())
        return np.nansum(values) if skipna else values.sum()

    def prod(self, skipna: bool = True):
        values = self._numeric_for_reduce()
        return np.nanprod(values) if skipna else values.prod()

    def mean(self, skipna: bool = True):
        values = self._numeric_for_reduce().astype(np.float64)
        if len(values) == 0:
            return np.nan
        return np.nanmean(values) if skipna else values.mean()

    def median(self, skipna: bool = True):
        values = self._numeric_for_reduce().astype(np.float64)
        if len(values) == 0:
            return np.nan
        return np.nanmedian(values) if skipna else np.median(values)

    def min(self, skipna: bool = True):
        values = self._values
        if len(values) == 0:
            return np.nan
        if dtypes.is_object(values.dtype):
            kept = [v for v in values if v is not None]
            return min(kept) if kept else None
        if values.dtype.kind == "M":
            return values[~np.isnat(values)].min() if skipna else values.min()
        return np.nanmin(values) if skipna and values.dtype.kind == "f" else values.min()

    def max(self, skipna: bool = True):
        values = self._values
        if len(values) == 0:
            return np.nan
        if dtypes.is_object(values.dtype):
            kept = [v for v in values if v is not None]
            return max(kept) if kept else None
        if values.dtype.kind == "M":
            return values[~np.isnat(values)].max() if skipna else values.max()
        return np.nanmax(values) if skipna and values.dtype.kind == "f" else values.max()

    def count(self) -> int:
        return int((~dtypes.isna_array(self._values)).sum())

    def var(self, ddof: int = 1):
        values = self._numeric_for_reduce().astype(np.float64)
        n = int((~np.isnan(values)).sum())
        if n - ddof <= 0:
            return np.nan
        return np.nanvar(values, ddof=ddof)

    def std(self, ddof: int = 1):
        result = self.var(ddof=ddof)
        return np.sqrt(result) if not np.isnan(result) else np.nan

    def any(self) -> bool:
        return bool(np.any(self._values))

    def all(self) -> bool:
        return bool(np.all(self._values))

    def quantile(self, q: float = 0.5):
        values = self._numeric_for_reduce().astype(np.float64)
        kept = values[~np.isnan(values)]
        if len(kept) == 0:
            return np.nan
        return float(np.quantile(kept, q))

    def cumsum(self) -> "Series":
        values = self._numeric_for_reduce()
        if dtypes.is_float(values.dtype):
            mask = np.isnan(values)
            filled = np.where(mask, 0.0, values)
            out = np.cumsum(filled)
            out[mask] = np.nan
        else:
            out = np.cumsum(values)
        return Series(out, index=self._index, name=self.name)

    def cummax(self) -> "Series":
        values = self._numeric_for_reduce()
        return Series(np.maximum.accumulate(values), index=self._index, name=self.name)

    def cummin(self) -> "Series":
        values = self._numeric_for_reduce()
        return Series(np.minimum.accumulate(values), index=self._index, name=self.name)

    # -- accessors & conversion -------------------------------------------------------
    @property
    def str(self) -> StringMethods:
        return StringMethods(self)

    @property
    def dt(self) -> DatetimeMethods:
        return DatetimeMethods(self)

    def to_frame(self, name: str | None = None):
        from .dataframe import DataFrame

        col = name if name is not None else (self.name if self.name is not None else 0)
        return DataFrame({col: self._values}, index=self._index)

    def to_numpy(self) -> np.ndarray:
        return self._values.copy()

    def to_list(self) -> list:
        return self._values.tolist()

    def tolist(self) -> list:
        return self.to_list()

    def copy(self) -> "Series":
        return Series(self._values.copy(), index=self._index.copy(), name=self.name)

    def rename(self, name: str) -> "Series":
        return Series(self._values, index=self._index, name=name)

    def reset_index(self, drop: bool = False):
        if drop:
            return Series(self._values, index=default_index(len(self)), name=self.name)
        frame = self.to_frame()
        return frame.reset_index()

    def equals(self, other: "Series") -> bool:
        if not isinstance(other, Series):
            return False
        if len(self) != len(other):
            return False
        return dtypes.values_equal(self._values, other._values) and self._index.equals(
            other._index
        )

    def groupby(self, by):
        from .groupby import SeriesGroupBy

        return SeriesGroupBy(self, by)

    def rolling(self, window: int, min_periods=None):
        from .window import Rolling

        return Rolling(self, window, min_periods=min_periods)

    def rank(self, method: str = "average", ascending: bool = True) -> "Series":
        from .window import rank

        return rank(self, method=method, ascending=ascending)


def _compare_cell(func: Callable, other, cell) -> bool:
    """One cell's answer in an object column's comparison with a scalar:
    ``False`` where either side is ``None``, as :func:`_object_binop`
    answers with ``na_result=False``."""
    return False if cell is None or other is None else bool(func(cell, other))


def _object_binop(left: np.ndarray, right, func: Callable, na_result=None,
                  reflected: bool = False) -> np.ndarray:
    """Apply ``func`` elementwise over an object array, propagating NA.

    ``func`` is a C callable (``operator.*`` or a ufunc), so ``map`` runs
    it over the cells that have a value on both sides without a Python
    frame per row.
    """
    keep = ~dtypes.isnone_array(left)
    if isinstance(right, np.ndarray):
        rights = right
        if dtypes.is_object(right.dtype):
            keep &= ~dtypes.isnone_array(right)
    else:
        rights = repeat(right)
        keep &= right is not None
    out = np.full(len(left), na_result, dtype=object)
    selectors = keep.tolist()
    lefts, rights = compress(left, selectors), compress(rights, selectors)
    if reflected:
        lefts, rights = rights, lefts
    out[keep] = np.fromiter(map(func, lefts, rights), dtype=object)
    return out


def _tighten(arr: np.ndarray) -> np.ndarray:
    """Convert an object array to a specialized dtype when possible."""
    if len(arr) == 0:
        return arr
    kinds = set(map(type, arr.tolist()))
    if kinds <= {bool}:
        return arr.astype(bool)
    if kinds <= {int, bool}:
        return arr.astype(np.int64)
    if kinds <= {int, float, bool} or kinds <= {int, float, bool, type(None)}:
        arr = arr.copy()
        arr[dtypes.isnone_array(arr)] = np.nan
        return arr.astype(np.float64)
    return arr
