"""Group-by machinery: factorization of keys plus per-group aggregation.

The distributed ``GroupByAgg`` operator (map/combine/reduce stages) calls
these single-node kernels on each chunk, so the aggregation set here defines
what the engine can distribute.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import dtypes
from .dataframe import DataFrame
from .index import Index, MultiIndex
from .selection import Selection, column_of, taker
from .series import Series
from .sorting import id_runs

#: aggregations with a NumPy ``reduceat`` fast path.
_REDUCEAT_OPS = {"sum", "min", "max"}

#: every aggregation the engine understands.
AGGREGATIONS = (
    "sum", "mean", "min", "max", "count", "size", "std", "var",
    "nunique", "first", "last", "median", "prod", "any", "all",
)


#: an integer column whose value range (``max - min + 1``) is at most this
#: many times its rows is counted, not sorted; past it a count table costs
#: more than ``np.unique`` (DESIGN.md, "Local kernels", has the crossover)
DENSE_RANGE = 2


def dense_ids(ids: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of ``ids`` in ``[0, space)`` numbered in id order, and
    the ids present: a count, its running sum and one gather — what
    ``np.unique(ids, return_inverse=True)`` answers, without sorting."""
    used = np.bincount(ids, minlength=space) > 0
    return (np.cumsum(used) - 1)[ids], np.flatnonzero(used)


def factorize(values: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Encode values as integer codes; missing entries get code -1.

    Returns ``(codes, uniques)`` with uniques in sorted order, so equal key
    sets factorize identically on every chunk — a property the distributed
    shuffle relies on.  An encoded column's codes are compacted, not its
    cells hashed, and its uniques come back encoded; integers whose range
    is within ``DENSE_RANGE`` times the column are counted, not sorted.

    With ``rows`` the answer is ``factorize(values[rows])``'s, but an
    encoded column gathers only its codes and an object column of a few
    shared objects only their ids (``dtypes.first_seen``); the cells of
    neither move.
    """
    dictionary = dtypes.dictionary_of(values)
    if dictionary is not None:
        categories, codes = dictionary
        uniques, codes = dtypes.compact_dictionary(
            categories, codes if rows is None else codes[rows])
        return codes.astype(np.int64), dtypes.encoded(
            uniques, np.arange(len(uniques), dtype=np.int32))
    if dtypes.is_object(values.dtype):
        return factorize_cells(values, rows)
    if rows is not None:
        values = values[rows]
    if dtypes.is_integer(values.dtype) and len(values):
        low = values.min()
        space = int(values.max()) - int(low) + 1
        if space <= DENSE_RANGE * len(values):
            # offsets from the minimum, read unsigned: a signed type's
            # wrap-around cannot make them negative.  Uniques are rebuilt
            # in the column's dtype, where the add wraps back exactly.
            ids = (values - low).view(f"u{values.itemsize}").astype(np.int64)
            codes, used = dense_ids(ids, space)
            return codes, used.astype(values.dtype) + low
    present = ~dtypes.isna_array(values)
    codes = np.full(len(values), -1, dtype=np.int64)
    uniques, codes[present] = np.unique(values[present], return_inverse=True)
    return codes, uniques


def factorize_cells(values: np.ndarray,
                    rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Codes into the sorted uniques of an object column (of
    ``values[rows]``); missing cells (``None``, ``float`` NaN) get
    code -1.

    One first-seen pass hashes every cell once, or only the distinct
    objects of a column of a few, and fixes the equality (``1``, ``1.0``
    and ``True`` collapse onto the first seen); Python only finds the
    missing ones among the distinct cells, sorts the rest and numbers
    them, and a gather turns first-seen codes into sorted ones.
    """
    first, distinct = dtypes.first_seen(values, rows)
    present = ~dtypes.isna_cells(distinct)
    kept = list(compress(distinct, present.tolist()))
    key = (kept.__getitem__ if set(map(type, kept)) <= {str}
           else lambda i: _mixed_key(kept[i]))
    order = sorted(range(len(kept)), key=key)
    remap = np.full(len(distinct), -1, dtype=np.int64)
    remap[np.flatnonzero(present)[order]] = np.arange(len(order))
    uniques = np.array(list(map(kept.__getitem__, order)), dtype=object)
    return remap[first], uniques


def _mixed_key(value):
    if isinstance(value, (int, float, np.integer, np.floating)):
        return ("", float(value))
    return (type(value).__name__, value)


class Grouper:
    """Resolved grouping: row codes, group labels, and ordering.

    ``rows``, when given, holds per key ``None`` or the row positions its
    array is to be read at (``factorize(arr, rows)``).
    """

    def __init__(self, key_arrays: Sequence[np.ndarray], key_names: Sequence,
                 rows: Sequence | None = None):
        if not key_arrays:
            raise ValueError("groupby requires at least one key")
        self.key_names = list(key_names)
        codes_list, uniques_list = [], []
        for arr, at in zip(key_arrays, rows or [None] * len(key_arrays)):
            codes, uniques = factorize(arr, at)
            codes_list.append(codes)
            uniques_list.append(uniques)
        if len(key_arrays) == 1:
            # a lone key's codes are dense and in sorted-key order already
            self.codes, self.n_groups = codes_list[0], len(uniques_list[0])
            #: per key, the label of each dense group id
            self.levels: list[np.ndarray] = uniques_list
            return
        combined = codes_list[0]
        valid = codes_list[0] >= 0
        for codes, uniques in zip(codes_list[1:], uniques_list[1:]):
            combined = combined * len(uniques) + codes
            valid &= codes >= 0
        # compress combined codes to dense 0..k-1 in sorted-key order: by
        # counting within factorize's bound, else by sorting the codes;
        # with no NA key no row is masked out
        any_na = not valid.all()
        kept = combined[valid] if any_na else combined
        space = math.prod(map(len, uniques_list))
        if space <= DENSE_RANGE * len(combined):
            dense, present = dense_ids(kept, space)
        else:
            present = np.unique(kept)
            dense = np.searchsorted(present, kept)
        if any_na:
            self.codes = np.full(len(combined), -1, dtype=np.int64)
            self.codes[valid] = dense
        else:
            self.codes = dense.astype(np.int64, copy=False)
        self.n_groups = len(present)
        # per-level labels of each dense group id: peel the levels off the
        # combined code, last level first, then one gather per level
        parts, rest = [], present
        for uniques in reversed(uniques_list[1:]):
            rest, part = np.divmod(rest, len(uniques))
            parts.append(part)
        parts.append(rest)
        self.levels = [
            dtypes.take(uniques, part)
            for uniques, part in zip(uniques_list, reversed(parts))
        ]

    @cached_property
    def group_keys(self) -> list[tuple]:
        return list(zip(*self.levels))

    def key_columns(self) -> list[np.ndarray]:
        """The group labels as one column per key.  A 1-D level is its
        column as it stands, typed or not; a 2-D one (equal-length tuple
        keys) becomes a column of its rows.  A lone object key is
        tightened like any aggregate."""
        columns = [level if level.ndim == 1
                   else np.fromiter(level, dtype=object, count=len(level))
                   for level in self.levels]
        if len(columns) == 1 and dtypes.is_object(columns[0].dtype):
            return [_maybe_tighten(columns[0])]
        return columns

    def result_index(self) -> Index:
        columns = self.key_columns()
        if len(columns) == 1:
            return Index(columns[0], name=self.key_names[0])
        return MultiIndex(zip(*columns), names=self.key_names)

    def sorted_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Row order grouping equal keys together, plus group boundaries.

        Returns ``(order, starts)`` where ``order`` drops NA-key rows and
        ``starts`` has one entry per group (positions into ``order``).
        """
        # NA rows (code -1) run first as id 0 and are cut off the front;
        # every group id has rows, so each run starts a group
        order, bounds = id_runs(self.codes + 1, self.n_groups + 1)
        return order[bounds[1]:], bounds[1:-1] - bounds[1]


def _maybe_tighten(values: np.ndarray) -> np.ndarray:
    kinds = set(map(type, values.tolist()))
    if kinds and kinds <= {int, np.int64}:
        try:
            return values.astype(np.int64)
        except OverflowError:  # an int past 64 bits stays a Python int
            return values
    if kinds and kinds <= {int, float, np.int64, np.float64}:
        return values.astype(np.float64)
    return values


def _aggregate_column(values: np.ndarray, order: np.ndarray,
                      starts: np.ndarray, how: str | Callable) -> np.ndarray:
    """Aggregate one column over the grouped layout."""
    return aggregate_sorted(values[order], starts, how)


def aggregate_sorted(sorted_values: np.ndarray, starts: np.ndarray,
                     how: str | Callable) -> np.ndarray:
    """Aggregate one column already in group order (``starts``: where
    each group begins)."""
    n_groups = len(starts)
    n_rows = len(sorted_values)
    if callable(how):
        out = np.empty(n_groups, dtype=object)
        bounds = np.append(starts, n_rows)
        for g in range(n_groups):
            seg = sorted_values[starts[g]:bounds[g + 1]]
            out[g] = how(Series(seg))
        return _maybe_tighten(out)

    numeric = dtypes.is_numeric(sorted_values.dtype)
    if how in _REDUCEAT_OPS and numeric and n_rows and not (
        dtypes.is_float(sorted_values.dtype) and np.isnan(sorted_values).any()
    ):
        ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[how]
        work = sorted_values.astype(np.float64) if how == "sum" and dtypes.is_bool(
            sorted_values.dtype) else sorted_values
        return ufunc.reduceat(work, starts)
    if how in ("count", "size") and n_rows:
        bounds = np.append(starts, n_rows)
        lengths = np.diff(bounds)
        if how == "size":
            return lengths.astype(np.int64)
        na = dtypes.isna_array(sorted_values).astype(np.int64)
        na_per_group = np.add.reduceat(na, starts) if len(starts) else np.array([], dtype=np.int64)
        return (lengths - na_per_group).astype(np.int64)

    bounds = np.append(starts, n_rows)
    out = np.empty(n_groups, dtype=object)
    for g in range(n_groups):
        seg = Series(sorted_values[starts[g]:bounds[g + 1]])
        if how == "size":
            out[g] = len(seg)
        elif how == "first":
            non_na = seg.dropna()
            out[g] = non_na.values[0] if len(non_na) else None
        elif how == "last":
            non_na = seg.dropna()
            out[g] = non_na.values[-1] if len(non_na) else None
        else:
            out[g] = getattr(seg, how)()
    return _maybe_tighten(out)


def group_rows(source, by: Sequence) -> tuple[list, np.ndarray, Callable]:
    """Group a frame's or a :class:`~repro.frame.selection.Selection`'s
    rows by the columns ``by``, as ``groupby(by, as_index=False)``
    does: ``(key columns, starts, take)``, where ``take(name)`` is column
    ``name`` in group order, NA-key rows left out, and ``starts`` is where
    each group begins.

    A selection's object (or encoded) key is numbered on its base column
    and only the codes are gathered (``factorize(base, rows)``); any other
    key is read at the selected length.  ``take`` moves each column once,
    through ``rows[order]``.
    """
    arrays, rows = [], []
    for name in by:
        base = (source.base_column(name) if type(source) is Selection
                else None)
        if base is not None and dtypes.is_object(base.dtype):
            arrays.append(base)
            rows.append(source.rows)
        else:
            arrays.append(column_of(source, name))
            rows.append(None)
    grouper = Grouper(arrays, list(by), rows)
    order, starts = grouper.sorted_layout()
    return grouper.key_columns(), starts, taker(source, order)


def _normalize_spec(spec, columns: Sequence, key_names: Sequence,
                    named_kwargs: Mapping | None = None):
    """Normalize an agg spec to ``[(out_name, in_col, how), ...]``."""
    named_kwargs = named_kwargs or {}
    plan: list[tuple[Any, Any, Any]] = []
    if named_kwargs:
        for out_name, pair in named_kwargs.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise TypeError(
                    "named aggregation requires out_col=(column, func) pairs"
                )
            col, how = pair
            plan.append((out_name, col, how))
        return plan, False
    value_columns = [c for c in columns if c not in set(key_names)]
    if spec is None:
        raise TypeError("agg requires a specification")
    if isinstance(spec, str) or callable(spec):
        for col in value_columns:
            plan.append((col, col, spec))
        return plan, False
    if isinstance(spec, Mapping):
        multi = any(isinstance(v, (list, tuple)) for v in spec.values())
        for col, hows in spec.items():
            if isinstance(hows, (list, tuple)):
                for how in hows:
                    plan.append(((col, _how_name(how)), col, how))
            else:
                plan.append(((col, _how_name(hows)) if multi else col, col, hows))
        return plan, multi
    if isinstance(spec, (list, tuple)):
        for col in value_columns:
            for how in spec:
                plan.append(((col, _how_name(how)), col, how))
        return plan, True
    raise TypeError(f"unsupported agg spec: {spec!r}")


def _how_name(how) -> str:
    return how if isinstance(how, str) else getattr(how, "__name__", "agg")


class DataFrameGroupBy:
    """The object returned by :meth:`DataFrame.groupby`."""

    def __init__(self, frame: DataFrame, by, as_index: bool = True, sort: bool = True):
        self._frame = frame
        self.as_index = as_index
        self.sort = sort
        if isinstance(by, str):
            by = [by]
        if isinstance(by, Series):
            self._key_arrays = [by.values]
            self._key_names = [by.name if by.name is not None else "key"]
        else:
            missing = [k for k in by if isinstance(k, str) and k not in frame._data]
            if missing:
                raise KeyError(f"groupby keys not found: {missing}")
            self._key_arrays = [
                frame._data[k] if isinstance(k, str) else dtypes.as_array(k)
                for k in by
            ]
            self._key_names = [
                k if isinstance(k, str) else f"key_{i}" for i, k in enumerate(by)
            ]
        self._grouper = Grouper(self._key_arrays, self._key_names)

    def __getitem__(self, item):
        if isinstance(item, str):
            return _SelectedGroupBy(self, [item], scalar=True)
        return _SelectedGroupBy(self, list(item), scalar=False)

    # -- aggregation -----------------------------------------------------------
    def agg(self, spec=None, **named) -> DataFrame:
        plan, _multi = _normalize_spec(
            spec, self._frame._columns, self._key_names, named
        )
        return self._run_plan(plan)

    aggregate = agg

    def _run_plan(self, plan) -> DataFrame:
        order, starts = self._grouper.sorted_layout()
        data: dict = {}
        for out_name, col, how in plan:
            if col not in self._frame._data:
                raise KeyError(f"aggregation column {col!r} not found")
            data[out_name] = _aggregate_column(
                self._frame._data[col], order, starts, how
            )
        if self.as_index:
            return DataFrame(data, index=self._grouper.result_index())
        out = dict(zip(self._key_names, self._grouper.key_columns()))
        out.update(data)
        return DataFrame(out)

    def _single_how(self, how: str) -> DataFrame:
        value_columns = [
            c for c in self._frame._columns
            if c not in set(self._key_names)
            and (how in ("count", "size", "first", "last", "nunique", "min", "max")
                 or dtypes.is_numeric(self._frame._data[c].dtype))
        ]
        plan = [(c, c, how) for c in value_columns]
        return self._run_plan(plan)

    def sum(self) -> DataFrame:
        return self._single_how("sum")

    def mean(self) -> DataFrame:
        return self._single_how("mean")

    def min(self) -> DataFrame:
        return self._single_how("min")

    def max(self) -> DataFrame:
        return self._single_how("max")

    def count(self) -> DataFrame:
        return self._single_how("count")

    def median(self) -> DataFrame:
        return self._single_how("median")

    def std(self) -> DataFrame:
        return self._single_how("std")

    def var(self) -> DataFrame:
        return self._single_how("var")

    def nunique(self) -> DataFrame:
        return self._single_how("nunique")

    def first(self) -> DataFrame:
        return self._single_how("first")

    def last(self) -> DataFrame:
        return self._single_how("last")

    def size(self) -> Series:
        order, starts = self._grouper.sorted_layout()
        bounds = np.append(starts, len(order))
        sizes = np.diff(bounds).astype(np.int64)
        return Series(sizes, index=self._grouper.result_index(), name="size")

    def ngroups(self) -> int:
        return self._grouper.n_groups

    def apply(self, func: Callable) -> DataFrame:
        """Apply ``func`` to each sub-frame; concatenate DataFrame results."""
        from .concat import concat

        order, starts = self._grouper.sorted_layout()
        bounds = np.append(starts, len(order))
        pieces = []
        for g in range(self._grouper.n_groups):
            rows = order[starts[g]:bounds[g + 1]]
            piece = func(self._frame.iloc[rows])
            if isinstance(piece, Series):
                piece = piece.to_frame().reset_index(drop=True)
            pieces.append(piece)
        if not pieces:
            return DataFrame({})
        return concat(pieces, ignore_index=True)

    def __iter__(self):
        order, starts = self._grouper.sorted_layout()
        bounds = np.append(starts, len(order))
        for g, key in enumerate(self._grouper.group_keys):
            rows = order[starts[g]:bounds[g + 1]]
            yield (key[0] if len(key) == 1 else key), self._frame.iloc[rows]


class _SelectedGroupBy:
    """``df.groupby(k)[cols]`` — aggregation over a column subset."""

    def __init__(self, parent: DataFrameGroupBy, columns: list, scalar: bool):
        self._parent = parent
        self._columns = columns
        self._scalar = scalar

    def agg(self, spec=None, **named):
        if named:
            return self._parent.agg(**named)
        if isinstance(spec, str) or callable(spec):
            plan = [(c, c, spec) for c in self._columns]
            result = self._parent._run_plan(plan)
            if self._scalar and self._parent.as_index:
                return result[self._columns[0]]
            return result
        if isinstance(spec, (list, tuple)):
            plan = [((c, _how_name(h)), c, h) for c in self._columns for h in spec]
            return self._parent._run_plan(plan)
        if isinstance(spec, Mapping):
            return self._parent.agg(spec)
        raise TypeError(f"unsupported agg spec: {spec!r}")

    aggregate = agg

    def _single(self, how: str):
        return self.agg(how)

    def sum(self):
        return self._single("sum")

    def mean(self):
        return self._single("mean")

    def min(self):
        return self._single("min")

    def max(self):
        return self._single("max")

    def count(self):
        return self._single("count")

    def median(self):
        return self._single("median")

    def std(self):
        return self._single("std")

    def var(self):
        return self._single("var")

    def nunique(self):
        return self._single("nunique")

    def first(self):
        return self._single("first")

    def last(self):
        return self._single("last")

    def size(self):
        return self._parent.size()


class SeriesGroupBy:
    """``series.groupby(keys)`` — aggregation of one column."""

    def __init__(self, series: Series, by):
        self._series = series
        if isinstance(by, Series):
            key_arrays = [by.values]
            key_names = [by.name if by.name is not None else "key"]
        elif isinstance(by, (list, tuple)) and by and isinstance(by[0], Series):
            key_arrays = [s.values for s in by]
            key_names = [s.name if s.name is not None else f"key_{i}"
                         for i, s in enumerate(by)]
        else:
            key_arrays = [dtypes.as_array(by)]
            key_names = ["key"]
        self._grouper = Grouper(key_arrays, key_names)

    def agg(self, how) -> Series:
        order, starts = self._grouper.sorted_layout()
        values = _aggregate_column(self._series.values, order, starts, how)
        return Series(values, index=self._grouper.result_index(),
                      name=self._series.name)

    aggregate = agg

    def sum(self):
        return self.agg("sum")

    def mean(self):
        return self.agg("mean")

    def min(self):
        return self.agg("min")

    def max(self):
        return self.agg("max")

    def count(self):
        return self.agg("count")

    def nunique(self):
        return self.agg("nunique")

    def size(self):
        return self.agg("size")
