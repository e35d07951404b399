""":class:`DataFrame` — a labelled 2-D table of typed columns.

This is the single-node execution backend of the distributed engine,
standing in for pandas: the distributed ``repro.dataframe`` operators call
into these kernels on each chunk.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import dtypes
from .index import Index, RangeIndex, default_index, ensure_index, take_rows
from .selection import Selection
from .series import Series
from .sorting import lexsort_columns


class _ILoc:
    """Positional indexing: ``df.iloc[rows]`` or ``df.iloc[rows, cols]``."""

    def __init__(self, frame: "DataFrame"):
        self._frame = frame

    def __getitem__(self, item):
        frame = self._frame
        if isinstance(item, tuple):
            rows, cols = item
        else:
            rows, cols = item, slice(None)
        col_names = _resolve_positional_columns(frame, cols)
        if isinstance(rows, (int, np.integer)):
            row = int(rows)
            if row < 0:
                row += len(frame)
            if not 0 <= row < len(frame):
                raise IndexError(f"row {rows} out of bounds for length {len(frame)}")
            if isinstance(cols, (int, np.integer)):
                return frame._data[col_names[0]][row]
            values = dtypes.object_array(
                frame._data[name][row] for name in col_names
            )
            return Series(values, index=Index(dtypes.object_array(col_names)),
                          name=frame.index[row])
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
        if isinstance(cols, (int, np.integer)):
            name = col_names[0]
            return Series(take_rows(frame._data[name], rows),
                          index=frame.index.take(rows), name=name)
        data = {name: take_rows(frame._data[name], rows) for name in col_names}
        return DataFrame._new(data, frame.index.take(rows), list(col_names))


class _Loc:
    """Label indexing: ``df.loc[labels]``, ``df.loc[mask, cols]``."""

    def __init__(self, frame: "DataFrame"):
        self._frame = frame

    def __getitem__(self, item):
        frame = self._frame
        if isinstance(item, tuple):
            rows, cols = item
        else:
            rows, cols = item, slice(None)
        if isinstance(cols, slice) and cols == slice(None):
            col_names = list(frame.columns)
        elif isinstance(cols, str):
            col_names = [cols]
        else:
            col_names = list(cols)
        if isinstance(rows, Series) and dtypes.is_bool(rows.dtype):
            indexer = np.flatnonzero(rows.values)
        elif isinstance(rows, np.ndarray) and rows.dtype == bool:
            indexer = np.flatnonzero(rows)
        elif isinstance(rows, slice):
            indexer = frame.index.slice_indexer(rows.start, rows.stop)
        elif isinstance(rows, (list, np.ndarray)):
            indexer = frame.index.get_indexer(list(rows))
        else:
            indexer = frame.index.get_indexer([rows])
            if isinstance(cols, str):
                return frame._data[cols][indexer[0]]
            values = dtypes.object_array(
                frame._data[name][indexer[0]] for name in col_names
            )
            return Series(values, index=Index(dtypes.object_array(col_names)),
                          name=rows)
        if isinstance(cols, str):
            return Series(dtypes.take(frame._data[cols], indexer),
                          index=frame.index.take(indexer), name=cols)
        data = {name: dtypes.take(frame._data[name], indexer)
                for name in col_names}
        return DataFrame(data, index=frame.index.take(indexer), columns=col_names)

    def __setitem__(self, item, value):
        frame = self._frame
        if not isinstance(item, tuple):
            raise TypeError("loc assignment requires df.loc[rows, col] = value")
        rows, col = item
        if isinstance(rows, Series):
            mask = rows.values
        else:
            mask = np.asarray(rows, dtype=bool)
        if col not in frame._data:
            frame[col] = np.nan
        column = frame._data[col]
        if isinstance(value, str) and not dtypes.is_object(column.dtype):
            column = column.astype(object)
        elif (isinstance(value, float) or (isinstance(value, Series)
              and dtypes.is_float(value.dtype))) and dtypes.is_integer(column.dtype):
            column = column.astype(np.float64)
        column = column.copy()
        if isinstance(value, Series):
            column[mask] = value.values[mask]
        else:
            column[mask] = value
        frame[col] = column


def _resolve_positional_columns(frame: "DataFrame", cols) -> list:
    names = list(frame.columns)
    if isinstance(cols, slice):
        return names[cols]
    if isinstance(cols, (int, np.integer)):
        return [names[int(cols)]]
    return [names[int(c)] for c in cols]


class DataFrame:
    """A 2-D table: ordered, named, typed columns over a shared row index."""

    #: ``_nbytes`` caches :attr:`nbytes`; ``__setitem__`` is the only writer
    #: of a built frame's ``_data`` / ``_index`` and resets it.
    __slots__ = ("_data", "_index", "_columns", "_nbytes")

    def __init__(self, data: Any = None,
                 index: Index | Iterable | None = None,
                 columns: Sequence | None = None):
        if data is None:
            data = {}
        if isinstance(data, DataFrame):
            src = data
            data = {name: src._data[name] for name in src.columns}
            if index is None:
                index = src._index
        if isinstance(data, np.ndarray):
            if data.ndim != 2:
                raise ValueError("2-D array required to build a DataFrame")
            if columns is None:
                columns = list(range(data.shape[1]))
            data = {name: data[:, i] for i, name in enumerate(columns)}
        if isinstance(data, list):
            data = _records_to_columns(data, columns)
            columns = list(data.keys())
        if not isinstance(data, Mapping):
            raise TypeError(f"cannot build a DataFrame from {type(data).__name__}")

        arrays: dict[Any, np.ndarray] = {}
        n_rows: int | None = None
        for name, values in data.items():
            if isinstance(values, Series):
                values = values.values
            if np.isscalar(values) or values is None:
                arrays[name] = values  # broadcast later once length is known
                continue
            arr = dtypes.as_array(values)
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {n_rows}"
                )
            arrays[name] = arr
        if n_rows is None:
            n_rows = 0 if index is None else len(ensure_index(index))
        for name, values in arrays.items():
            if np.isscalar(values) or values is None:
                arrays[name] = dtypes.as_array(np.full(n_rows, values))

        self._data = arrays
        self._nbytes = None
        self._index = ensure_index(index, n=n_rows)
        if len(self._index) != n_rows:
            raise ValueError(
                f"index length {len(self._index)} != data length {n_rows}"
            )
        if columns is not None:
            ordered = list(columns)
            missing = [c for c in ordered if c not in arrays]
            if missing:
                raise KeyError(f"columns not in data: {missing}")
            self._columns = ordered
        else:
            self._columns = list(arrays.keys())

    @classmethod
    def _new(cls, data: dict, index: Index, columns: list) -> "DataFrame":
        """Internal fast constructor: callers guarantee aligned 1-D arrays.

        Hot paths (filtering, slicing, joins) construct thousands of small
        frames; this skips the public constructor's coercion/validation.
        """
        frame = cls.__new__(cls)
        frame._data = data
        frame._index = index
        frame._columns = columns
        frame._nbytes = None
        return frame

    # -- basic protocol ---------------------------------------------------------
    @property
    def index(self) -> Index:
        return self._index

    @property
    def columns(self) -> Index:
        return Index(dtypes.object_array(self._columns))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._index), len(self._columns))

    @property
    def dtypes(self) -> Series:
        return Series(
            dtypes.object_array(self._data[c].dtype for c in self._columns),
            index=Index(dtypes.object_array(self._columns)),
        )

    @property
    def empty(self) -> bool:
        return len(self._index) == 0 or not self._columns

    @property
    def values(self) -> np.ndarray:
        if not self._columns:
            return np.empty((len(self._index), 0))
        dtype = dtypes.common_dtype(self._data[c] for c in self._columns)
        out = np.empty((len(self._index), len(self._columns)), dtype=dtype)
        for i, name in enumerate(self._columns):
            out[:, i] = self._data[name]
        return out

    @property
    def nbytes(self) -> int:
        # inlined per-column sizing (same numbers as utils.sizeof), once
        # per frame: the executor reads it several times per chunk.
        if self._nbytes is None:
            total = self._index.nbytes + 64
            for name in self._columns:
                arr = self._data[name]
                if arr.dtype == object:
                    total += int(arr.size) * 64 + 96
                else:
                    total += int(arr.nbytes)
            self._nbytes = total
        return self._nbytes

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name) -> bool:
        return name in self._data

    def __iter__(self):
        return iter(self._columns)

    def __repr__(self) -> str:
        return self.to_string(max_rows=10)

    def to_string(self, max_rows: int = 30) -> str:
        """Plain-text rendering of (the head of) the frame."""
        n = min(len(self), max_rows)
        headers = ["" if self._index.name is None else str(self._index.name)]
        headers += [str(c) for c in self._columns]
        rows = []
        index_values = [self._index[i] for i in range(n)]
        for i in range(n):
            row = [str(index_values[i])]
            row += [_format_cell(self._data[c][i]) for c in self._columns]
            rows.append(row)
        widths = [max(len(h), *(len(r[j]) for r in rows)) if rows else len(h)
                  for j, h in enumerate(headers)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if len(self) > n:
            lines.append(f"... [{len(self)} rows x {len(self._columns)} columns]")
        return "\n".join(lines)

    # -- selection ------------------------------------------------------------------
    def __getitem__(self, item):
        if isinstance(item, str) or (not isinstance(item, (list, np.ndarray, Series, slice))
                                     and item in self._data):
            if item not in self._data:
                raise KeyError(item)
            return Series(self._data[item], index=self._index, name=item)
        if isinstance(item, Series) and dtypes.is_bool(item.dtype):
            return self._filter_mask(item.values)
        if isinstance(item, np.ndarray) and item.dtype == bool:
            return self._filter_mask(item)
        if isinstance(item, list):
            missing = [c for c in item if c not in self._data]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            data = {name: self._data[name] for name in item}
            return DataFrame._new(data, self._index, list(item))
        if isinstance(item, slice):
            return self.iloc[item]
        raise KeyError(item)

    def _filter_mask(self, mask: np.ndarray) -> "DataFrame":
        return self.select_rows(mask).materialize()

    def select_rows(self, mask) -> "Selection | DataFrame":
        """The rows where the boolean ``mask`` (an array or a series)
        holds, as a :class:`~repro.frame.selection.Selection`: chosen,
        not gathered.  Any other ``mask`` is ``self[mask]``."""
        values = mask.values if isinstance(mask, Series) else mask
        if not (isinstance(values, np.ndarray) and values.dtype == bool):
            return self[mask]
        if len(values) != len(self):
            raise ValueError("boolean mask length mismatch")
        return Selection(self, np.flatnonzero(values), mask=values)

    def __setitem__(self, name, value):
        if isinstance(value, Series):
            if len(value) != len(self) and len(self._columns) > 0:
                raise ValueError("cannot assign Series of different length")
            arr = value.values
        elif np.isscalar(value) or value is None:
            arr = dtypes.as_array(np.full(len(self), value))
        else:
            arr = dtypes.as_array(value)
            if len(self._columns) > 0 and len(arr) != len(self):
                raise ValueError(
                    f"length mismatch: assigning {len(arr)} values to {len(self)} rows"
                )
        if not self._columns and len(self._index) == 0:
            self._index = default_index(len(arr))
        self._data[name] = arr
        self._nbytes = None
        if name not in self._columns:
            self._columns.append(name)

    @property
    def iloc(self) -> _ILoc:
        return _ILoc(self)

    @property
    def loc(self) -> _Loc:
        return _Loc(self)

    def head(self, n: int = 5) -> "DataFrame":
        return self.iloc[:n]

    def tail(self, n: int = 5) -> "DataFrame":
        return self.iloc[len(self) - min(n, len(self)):]

    def take(self, indexer) -> "DataFrame":
        return self.iloc[np.asarray(indexer)]

    def get(self, name, default=None):
        if name in self._data:
            return self[name]
        return default

    def select_dtypes(self, include: str) -> "DataFrame":
        if include == "number":
            keep = [c for c in self._columns if dtypes.is_numeric(self._data[c].dtype)]
        elif include == "object":
            keep = [c for c in self._columns if dtypes.is_object(self._data[c].dtype)]
        else:
            raise ValueError(f"unsupported include={include!r}")
        return self[keep]

    # -- column mutation ----------------------------------------------------------------
    def assign(self, **new_columns) -> "DataFrame":
        # unchanged columns are shared, not copied: ``__setitem__`` rebinds
        # a column and nothing writes into a frame's arrays.
        out = self[self._columns]
        for name, value in new_columns.items():
            if callable(value):
                value = value(out)
            out[name] = value
        return out

    def rename(self, columns: Mapping | None = None) -> "DataFrame":
        if columns is None:
            return self.copy()
        new_names = [columns.get(c, c) for c in self._columns]
        data = {new: self._data[old] for new, old in zip(new_names, self._columns)}
        return DataFrame(data, index=self._index, columns=new_names)

    def drop(self, labels=None, columns=None, index=None) -> "DataFrame":
        if columns is None and labels is not None:
            columns = labels
        if columns is not None:
            if isinstance(columns, str):
                columns = [columns]
            missing = [c for c in columns if c not in self._data]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            keep = [c for c in self._columns if c not in set(columns)]
            return self[keep]
        if index is not None:
            if np.isscalar(index):
                index = [index]
            drop_positions = set(self._index.get_indexer(list(index)).tolist())
            mask = np.array([i not in drop_positions for i in range(len(self))],
                            dtype=bool)
            return self._filter_mask(mask)
        return self.copy()

    def astype(self, dtype) -> "DataFrame":
        out = self.copy()
        if isinstance(dtype, Mapping):
            for name, target in dtype.items():
                out[name] = out[name].astype(target)
        else:
            for name in out._columns:
                out[name] = out[name].astype(dtype)
        return out

    def copy(self) -> "DataFrame":
        return self._copy_onto(self._index.copy())

    def _copy_onto(self, index: Index) -> "DataFrame":
        """A deep copy of the columns over ``index`` (same length)."""
        data = {name: self._data[name].copy() for name in self._columns}
        return DataFrame._new(data, index, list(self._columns))

    # -- missing data ---------------------------------------------------------------------
    def isna(self) -> "DataFrame":
        data = {name: dtypes.isna_array(self._data[name]) for name in self._columns}
        return DataFrame(data, index=self._index, columns=self._columns)

    def notna(self) -> "DataFrame":
        data = {name: ~dtypes.isna_array(self._data[name]) for name in self._columns}
        return DataFrame(data, index=self._index, columns=self._columns)

    def fillna(self, value) -> "DataFrame":
        out = self.copy()
        if isinstance(value, Mapping):
            for name, fill in value.items():
                if name in out._data:
                    out[name] = out[name].fillna(fill)
        else:
            for name in out._columns:
                out[name] = out[name].fillna(value)
        return out

    def dropna(self, subset: Sequence | None = None, how: str = "any") -> "DataFrame":
        names = list(subset) if subset is not None else list(self._columns)
        masks = np.column_stack(
            [dtypes.isna_array(self._data[name]) for name in names]
        ) if names else np.zeros((len(self), 0), dtype=bool)
        if how == "any":
            drop = masks.any(axis=1)
        elif how == "all":
            drop = masks.all(axis=1) if names else np.zeros(len(self), dtype=bool)
        else:
            raise ValueError(f"invalid how={how!r}")
        return self._filter_mask(~drop)

    # -- index manipulation -------------------------------------------------------------------
    def reset_index(self, drop: bool = False) -> "DataFrame":
        from .index import MultiIndex

        if drop:
            return self._copy_onto(default_index(len(self)))
        data: dict = {}
        if isinstance(self._index, MultiIndex):
            names = self._index.names or [
                f"level_{i}" for i in range(self._index.nlevels)
            ]
            for level, name in enumerate(names):
                data[name if name is not None else f"level_{level}"] = (
                    self._index.get_level_values(level).values
                )
        else:
            name = self._index.name if self._index.name is not None else "index"
            data[name] = self._index.values
        for col in self._columns:
            data[col] = self._data[col]
        return DataFrame(data, index=default_index(len(self)))

    def set_index(self, keys, drop: bool = True) -> "DataFrame":
        from .index import MultiIndex

        if isinstance(keys, str):
            new_index: Index = Index(self._data[keys], name=keys)
            dropped = [keys]
        else:
            arrays = [self._data[k] for k in keys]
            new_index = MultiIndex.from_arrays(arrays, names=list(keys))
            dropped = list(keys)
        keep = [c for c in self._columns if not (drop and c in dropped)]
        data = {name: self._data[name] for name in keep}
        return DataFrame(data, index=new_index, columns=keep)

    # -- sorting / dedup --------------------------------------------------------------------------
    def sort_values(self, by, ascending=True, na_position: str = "last") -> "DataFrame":
        if isinstance(by, str):
            by = [by]
        if isinstance(ascending, bool):
            ascending = [ascending] * len(by)
        if len(ascending) != len(by):
            raise ValueError("ascending must match the number of sort keys")
        missing = [k for k in by if k not in self._data]
        if missing:
            raise KeyError(f"sort keys not found: {missing}")
        indexer = lexsort_columns(
            [self._data[k] for k in by], list(ascending), na_position=na_position
        )
        return self.iloc[indexer]

    def sort_index(self, ascending: bool = True) -> "DataFrame":
        order = self._index.argsort()
        if not ascending:
            order = order[::-1]
        return self.iloc[order]

    def nlargest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=False).head(n)

    def nsmallest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=True).head(n)

    def duplicated(self, subset: Sequence | None = None, keep: str = "first") -> Series:
        from .groupby import duplicated

        names = list(subset) if subset is not None else list(self._columns)
        return Series(duplicated([self._data[name] for name in names], keep),
                      index=self._index)

    def drop_duplicates(self, subset: Sequence | None = None, keep: str = "first") -> "DataFrame":
        mask = ~self.duplicated(subset=subset, keep=keep).values
        return self._filter_mask(mask)

    # -- joins / grouping ------------------------------------------------------------------------------
    def merge(self, right: "DataFrame", how: str = "inner", on=None,
              left_on=None, right_on=None, suffixes: tuple[str, str] = ("_x", "_y"),
              sort: bool = False) -> "DataFrame":
        from .join import merge

        return merge(self, right, how=how, on=on, left_on=left_on,
                     right_on=right_on, suffixes=suffixes, sort=sort)

    def join(self, right: "DataFrame", how: str = "left",
             lsuffix: str = "", rsuffix: str = "") -> "DataFrame":
        from .join import join_on_index

        return join_on_index(self, right, how=how, lsuffix=lsuffix, rsuffix=rsuffix)

    def groupby(self, by, as_index: bool = True, sort: bool = True):
        from .groupby import DataFrameGroupBy

        return DataFrameGroupBy(self, by, as_index=as_index, sort=sort)

    def pivot_table(self, values=None, index=None, columns=None, aggfunc="mean"):
        from .pivot import pivot_table

        return pivot_table(self, values=values, index=index, columns=columns,
                           aggfunc=aggfunc)

    # -- reductions ------------------------------------------------------------------------------
    def _reduce(self, method: str, numeric_only: bool = True, **kwargs) -> Series:
        names, results = [], []
        for name in self._columns:
            series = self[name]
            if numeric_only and not dtypes.is_numeric(series.dtype):
                continue
            names.append(name)
            results.append(getattr(series, method)(**kwargs))
        return Series(
            np.array(results, dtype=np.float64 if results else object),
            index=Index(dtypes.object_array(names)),
        )

    def sum(self, numeric_only: bool = True) -> Series:
        return self._reduce("sum", numeric_only=numeric_only)

    def mean(self, numeric_only: bool = True) -> Series:
        return self._reduce("mean", numeric_only=numeric_only)

    def min(self, numeric_only: bool = True) -> Series:
        return self._reduce("min", numeric_only=numeric_only)

    def max(self, numeric_only: bool = True) -> Series:
        return self._reduce("max", numeric_only=numeric_only)

    def median(self, numeric_only: bool = True) -> Series:
        return self._reduce("median", numeric_only=numeric_only)

    def std(self, numeric_only: bool = True, ddof: int = 1) -> Series:
        return self._reduce("std", numeric_only=numeric_only, ddof=ddof)

    def var(self, numeric_only: bool = True, ddof: int = 1) -> Series:
        return self._reduce("var", numeric_only=numeric_only, ddof=ddof)

    def count(self) -> Series:
        names = list(self._columns)
        values = np.array([self[name].count() for name in names], dtype=np.int64)
        return Series(values, index=Index(dtypes.object_array(names)))

    def nunique(self) -> Series:
        names = list(self._columns)
        values = np.array([self[name].nunique() for name in names], dtype=np.int64)
        return Series(values, index=Index(dtypes.object_array(names)))

    def describe(self) -> "DataFrame":
        from .describe import describe

        return describe(self)

    # -- function application -----------------------------------------------------------------------------
    def apply(self, func: Callable, axis: int = 0):
        if axis == 0:
            results = {name: func(self[name]) for name in self._columns}
            if all(isinstance(v, Series) for v in results.values()):
                return DataFrame(
                    {k: v.values for k, v in results.items()}, index=self._index
                )
            return Series(
                dtypes.object_array(results[name] for name in self._columns),
                index=Index(dtypes.object_array(self._columns)),
            )
        out = np.empty(len(self), dtype=object)
        for i, (_, row) in enumerate(self.iterrows()):
            out[i] = func(row)
        from .series import _tighten

        return Series(_tighten(out), index=self._index)

    def iterrows(self):
        for i in range(len(self)):
            yield self._index[i], self.iloc[i]

    def itertuples(self, index: bool = True):
        arrays = [self._data[name] for name in self._columns]
        for i in range(len(self)):
            row = tuple(arr[i] for arr in arrays)
            if index:
                yield (self._index[i],) + row
            else:
                yield row

    # -- elementwise arithmetic on whole frames -------------------------------------------------------------
    def _frame_binop(self, other, func: Callable) -> "DataFrame":
        data = {}
        if isinstance(other, DataFrame):
            for name in self._columns:
                data[name] = func(self._data[name], other._data[name])
        else:
            for name in self._columns:
                data[name] = func(self._data[name], other)
        return DataFrame(data, index=self._index, columns=self._columns)

    def __add__(self, other):
        return self._frame_binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._frame_binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._frame_binop(other, lambda a, b: a * b)

    def __truediv__(self, other):
        return self._frame_binop(other, lambda a, b: np.true_divide(a, b))

    __hash__ = None  # type: ignore[assignment]

    def equals(self, other: "DataFrame") -> bool:
        """Exact equality of columns, dtype-insensitive NA-aware values, and index."""
        if not isinstance(other, DataFrame):
            return False
        if self._columns != other._columns:
            return False
        if not self._index.equals(other._index):
            return False
        for name in self._columns:
            if not dtypes.values_equal(self._data[name], other._data[name]):
                return False
        return True

    # -- conversion ----------------------------------------------------------------------------------------
    def to_dict(self, orient: str = "list") -> dict:
        if orient == "list":
            return {name: self._data[name].tolist() for name in self._columns}
        if orient == "records":
            return [
                {name: self._data[name][i] for name in self._columns}
                for i in range(len(self))
            ]
        raise ValueError(f"unsupported orient={orient!r}")

    def to_numpy(self) -> np.ndarray:
        return self.values

    def to_csv(self, path, index: bool = False) -> None:
        from .io import to_csv

        to_csv(self, path, index=index)

    def to_parquet(self, path) -> None:
        from .io import to_parquet

        to_parquet(self, path)

    def sample(self, n=None, frac=None, seed=None,
               replace: bool = False) -> "DataFrame":
        from .window import sample

        return sample(self, n=n, frac=frac, seed=seed, replace=replace)

    def corr(self) -> "DataFrame":
        from .window import corr

        return corr(self)

    def cov(self) -> "DataFrame":
        from .window import cov

        return cov(self)

    def melt(self, id_vars, value_vars=None, var_name: str = "variable",
             value_name: str = "value") -> "DataFrame":
        from .reshape import melt

        return melt(self, id_vars, value_vars=value_vars,
                    var_name=var_name, value_name=value_name)

    def memory_usage(self) -> Series:
        from ..utils import sizeof

        names = list(self._columns)
        values = np.array(
            [sizeof(self._data[name]) for name in names], dtype=np.int64
        )
        return Series(values, index=Index(dtypes.object_array(names)))


def _records_to_columns(records: list, columns: Sequence | None) -> dict:
    """Convert a list of dicts (or tuples) to a column dict."""
    if not records:
        return {name: [] for name in (columns or [])}
    if isinstance(records[0], dict):
        names = list(columns) if columns is not None else list(records[0].keys())
        return {
            name: [rec.get(name) for rec in records] for name in names
        }
    names = list(columns) if columns is not None else list(range(len(records[0])))
    return {name: [rec[i] for rec in records] for i, name in enumerate(names)}


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)
