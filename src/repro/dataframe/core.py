"""User-facing distributed DataFrame and Series.

Drop-in mirrors of the single-node API (Listing 2 of the paper): the same
method names and semantics as ``repro.frame`` (standing in for pandas),
built lazily as tileable-graph nodes and materialized on demand —
*deferred evaluation*: ``repr``, ``len`` and friends trigger execution
without an explicit ``.compute()``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..core.session import Session, get_default_session
from ..engine.local import DataFrame as LocalFrame, Series as LocalSeries
from ..engine.local import _how_name
from ..graph.entity import TileableData
from .arithmetic import MapPartitions, build_elementwise
from .datasource import FromFrame, ReadCSV, ReadParquet
from .groupby import DISTRIBUTABLE, GroupByAgg, normalize_agg_spec
from .indexing import Filter, ILocRows
from .merge import Merge
from .misc import DropDuplicates, GatherApply, UniqueValues
from .reduction import DataFrameReduction, SeriesReduction
from .sort import SortValues


class Remote:
    """Shared behaviour of every deferred distributed object."""

    def __init__(self, data: TileableData, session: Session | None = None):
        self.data = data
        self._session = session

    @property
    def session(self) -> Session:
        return self._session if self._session is not None else get_default_session()

    def execute(self):
        """Force materialization; returns self (chainable)."""
        self.session.execute(self.data)
        self._refresh_shapes()
        return self

    def fetch(self):
        """Materialize (if needed) and return the full local value."""
        if not self.session.is_materialized(self.data):
            self.execute()
        return self.session.fetch(self.data)

    def cache(self):
        """Mark this object's results for the cluster result cache.

        With ``config.result_cache`` on, executing this object records
        it as an *explicit* cache entry — kept across runs regardless of
        the cache's byte budget — so any later query built on the same
        expression reuses it instead of recomputing. Returns self
        (chainable); a no-op while the cache is disabled.
        """
        self.data.cache_requested = True
        return self

    def _refresh_shapes(self) -> None:
        meta = self.session.meta
        for chunk in self.data.chunks:
            chunk_meta = meta.get(chunk.key)
            if chunk_meta is not None:
                chunk.shape = tuple(chunk_meta.shape)
        self.data.refresh_from_chunks()

    def __repr__(self) -> str:  # deferred evaluation (Section IV-C)
        return repr(self.fetch())

    def _wrap(self, data: TileableData):
        raise NotImplementedError


def run(*objects: "Remote") -> None:
    """Explicitly materialize objects now (``xorbits.run`` equivalent)."""
    if not objects:
        return
    session = objects[0].session
    session.execute(*[obj.data for obj in objects])
    for obj in objects:
        obj._refresh_shapes()


class Scalar(Remote):
    """A deferred scalar (reduction result)."""

    def __float__(self) -> float:
        return float(self.fetch())

    def __int__(self) -> int:
        return int(self.fetch())

    def __bool__(self) -> bool:
        return bool(self.fetch())

    def __eq__(self, other) -> bool:  # pragma: no cover - convenience
        return self.fetch() == other

    def __hash__(self):
        return id(self)


class Series(Remote):
    """Distributed 1-D column."""

    @property
    def name(self):
        return self.data.name

    @property
    def shape(self) -> tuple:
        if not self.data.has_known_shape:
            self.execute()
        return self.data.shape

    def __len__(self) -> int:
        return int(self.shape[0])

    # -- construction helpers ----------------------------------------------
    def _elementwise(self, func: Callable, other: Optional["Series"] = None,
                     out_dtype=None, name=None) -> "Series":
        inputs = [self.data] + ([other.data] if other is not None else [])
        rows = self.data.shape[0] if self.data.shape else None
        out = build_elementwise(
            inputs, func, "series", (rows,), out_dtype=out_dtype,
            out_name=name if name is not None else self.data.name,
        )
        return Series(out, self._session)

    def _binop(self, other, func2, funcs) -> "Series":
        if isinstance(other, Series):
            return self._elementwise(func2, other)
        return self._elementwise(lambda s: funcs(s, other))

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b, lambda s, o: s + o)

    def __radd__(self, other):
        return self._elementwise(lambda s: other + s)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b, lambda s, o: s - o)

    def __rsub__(self, other):
        return self._elementwise(lambda s: other - s)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b, lambda s, o: s * o)

    def __rmul__(self, other):
        return self._elementwise(lambda s: other * s)

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b, lambda s, o: s / o)

    def __rtruediv__(self, other):
        return self._elementwise(lambda s: other / s)

    def __floordiv__(self, other):
        return self._binop(other, lambda a, b: a // b, lambda s, o: s // o)

    def __mod__(self, other):
        return self._binop(other, lambda a, b: a % b, lambda s, o: s % o)

    def __pow__(self, other):
        return self._binop(other, lambda a, b: a ** b, lambda s, o: s ** o)

    def __neg__(self):
        return self._elementwise(lambda s: -s)

    def abs(self):
        return self._elementwise(lambda s: s.abs())

    def round(self, decimals: int = 0):
        return self._elementwise(lambda s: s.round(decimals))

    def clip(self, lower=None, upper=None):
        return self._elementwise(lambda s: s.clip(lower, upper))

    # -- comparisons -------------------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, lambda a, b: a == b, lambda s, o: s == o)

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, lambda a, b: a != b, lambda s, o: s != o)

    def __lt__(self, other):
        return self._binop(other, lambda a, b: a < b, lambda s, o: s < o)

    def __le__(self, other):
        return self._binop(other, lambda a, b: a <= b, lambda s, o: s <= o)

    def __gt__(self, other):
        return self._binop(other, lambda a, b: a > b, lambda s, o: s > o)

    def __ge__(self, other):
        return self._binop(other, lambda a, b: a >= b, lambda s, o: s >= o)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binop(other, lambda a, b: a & b, lambda s, o: s & o)

    def __or__(self, other):
        return self._binop(other, lambda a, b: a | b, lambda s, o: s | o)

    def __invert__(self):
        return self._elementwise(lambda s: ~s)

    # -- selection ------------------------------------------------------------------
    def __getitem__(self, item):
        if isinstance(item, Series):
            op = Filter(out_kind="series", out_name=self.data.name)
            out = op.new_tileable([self.data, item.data], "series", (None,),
                                  name=self.data.name)
            return Series(out, self._session)
        raise TypeError(f"unsupported series selection {item!r}")

    @property
    def iloc(self) -> "_SeriesILoc":
        return _SeriesILoc(self)

    def head(self, n: int = 5) -> "Series":
        op = ILocRows(slice(0, n), out_kind="series", out_name=self.data.name)
        out = op.new_tileable([self.data], "series", (None,),
                              name=self.data.name)
        return Series(out, self._session)

    # -- transforms --------------------------------------------------------------------
    def isna(self):
        return self._elementwise(lambda s: s.isna())

    def notna(self):
        return self._elementwise(lambda s: s.notna())

    def fillna(self, value):
        return self._elementwise(lambda s: s.fillna(value))

    def dropna(self):
        op = MapPartitions(func=lambda s: s.dropna(), out_kind="series")
        out = op.new_tileable([self.data], "series", (None,),
                              name=self.data.name)
        return Series(out, self._session)

    def astype(self, dtype):
        return self._elementwise(lambda s: s.astype(dtype))

    def isin(self, values):
        lookup = list(values)
        return self._elementwise(lambda s: s.isin(lookup))

    def between(self, left, right, inclusive: str = "both"):
        return self._elementwise(lambda s: s.between(left, right, inclusive))

    def where(self, cond: "Series", other=np.nan):
        return self._elementwise(lambda s, c: s.where(c, other), cond)

    def map(self, mapper):
        return self._elementwise(lambda s: s.map(mapper))

    def apply(self, func):
        return self._elementwise(lambda s: s.apply(func))

    @property
    def str(self) -> "_StrAccessor":
        return _StrAccessor(self)

    @property
    def dt(self) -> "_DtAccessor":
        return _DtAccessor(self)

    def to_frame(self, name=None) -> "DataFrame":
        col = name if name is not None else (self.data.name or 0)
        rows = self.data.shape[0] if self.data.shape else None
        out = build_elementwise(
            [self.data], lambda s: s.to_frame(col), "dataframe",
            (rows, 1), out_columns=[col],
        )
        return DataFrame(out, self._session)

    def rename(self, name) -> "Series":
        return self._elementwise(lambda s: s.rename(name), name=name)

    # -- reductions ------------------------------------------------------------------------
    def _reduce(self, how: str) -> Scalar:
        op = SeriesReduction(how=how)
        out = op.new_tileable([self.data], "scalar", ())
        return Scalar(out, self._session)

    def sum(self):
        return self._reduce("sum")

    def mean(self):
        return self._reduce("mean")

    def min(self):
        return self._reduce("min")

    def max(self):
        return self._reduce("max")

    def count(self):
        return self._reduce("count")

    def nunique(self):
        return self._reduce("nunique")

    def var(self):
        return self._reduce("var")

    def std(self):
        return self._reduce("std")

    def median(self):
        return self._reduce("median")

    def prod(self):
        return self._reduce("prod")

    def any(self):
        return self._reduce("any")

    def all(self):
        return self._reduce("all")

    def _scan(self, how: str) -> "Series":
        from .scan import CumScan

        op = CumScan(how=how)
        rows = self.data.shape[0] if self.data.shape else None
        out = op.new_tileable([self.data], "series", (rows,),
                              name=self.data.name)
        return Series(out, self._session)

    def cumsum(self) -> "Series":
        return self._scan("cumsum")

    def cummax(self) -> "Series":
        return self._scan("cummax")

    def cummin(self) -> "Series":
        return self._scan("cummin")

    def quantile(self, q: float = 0.5) -> Scalar:
        op = GatherApply(func=lambda s: s.quantile(q), out_kind="scalar")
        out = op.new_tileable([self.data], "scalar", ())
        return Scalar(out, self._session)

    def describe(self) -> "Series":
        op = GatherApply(
            func=lambda s: s.to_frame("v").describe()["v"],
            out_kind="series",
        )
        out = op.new_tileable([self.data], "series", (8,))
        return Series(out, self._session)

    def unique(self) -> np.ndarray:
        op = UniqueValues()
        out = op.new_tileable([self.data], "tensor", (None,))
        session = self.session
        session.execute(out)
        return session.fetch(out)

    def value_counts(self, ascending: bool = False) -> "Series":
        name = self.data.name if self.data.name is not None else "value"
        frame = self.to_frame(name)
        grouped = frame.groupby(name).agg(count=(name, "size"))
        ordered = grouped.sort_values("count", ascending=ascending)
        return ordered["count"]

    def sort_values(self, ascending: bool = True) -> "Series":
        name = self.data.name if self.data.name is not None else 0
        frame = self.to_frame(name).sort_values(name, ascending=ascending)
        return frame[name]

    def groupby(self, by):
        raise NotImplementedError(
            "series.groupby: group via a DataFrame, e.g. df.groupby(key)[col]"
        )


class _SeriesILoc:
    def __init__(self, series: Series):
        self._series = series

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            op = ILocRows(int(item), out_kind="scalar")
            out = op.new_tileable([self._series.data], "scalar", ())
            return Scalar(out, self._series._session).fetch()
        if isinstance(item, slice):
            op = ILocRows(item, out_kind="series",
                          out_name=self._series.data.name)
            out = op.new_tileable([self._series.data], "series", (None,),
                                  name=self._series.data.name)
            return Series(out, self._series._session)
        raise TypeError(f"unsupported iloc argument {item!r}")


class _StrAccessor:
    def __init__(self, series: Series):
        self._series = series

    def _call(self, method: str, *args, **kwargs) -> Series:
        return self._series._elementwise(
            lambda s: getattr(s.str, method)(*args, **kwargs)
        )

    def lower(self):
        return self._call("lower")

    def upper(self):
        return self._call("upper")

    def strip(self):
        return self._call("strip")

    def len(self):
        return self._call("len")

    def contains(self, pat):
        return self._call("contains", pat)

    def startswith(self, prefix):
        return self._call("startswith", prefix)

    def endswith(self, suffix):
        return self._call("endswith", suffix)

    def replace(self, old, new):
        return self._call("replace", old, new)

    def slice(self, start=None, stop=None, step=None):
        return self._call("slice", start, stop, step)


class _DtAccessor:
    def __init__(self, series: Series):
        self._series = series

    @property
    def year(self):
        return self._series._elementwise(lambda s: s.dt.year)

    @property
    def month(self):
        return self._series._elementwise(lambda s: s.dt.month)

    @property
    def day(self):
        return self._series._elementwise(lambda s: s.dt.day)

    @property
    def dayofweek(self):
        return self._series._elementwise(lambda s: s.dt.dayofweek)


class DataFrame(Remote):
    """Distributed 2-D table."""

    # -- metadata ------------------------------------------------------------
    @property
    def columns(self) -> list:
        if self.data.columns is not None:
            return list(self.data.columns)
        self.execute()
        first = self.data.chunks[0]
        meta = self.session.meta.get(first.key)
        if meta is not None and meta.columns is not None:
            self.data.columns = list(meta.columns)
            return list(meta.columns)
        return []

    @property
    def dtypes(self):
        if not self.session.is_materialized(self.data):
            self.execute()
        return self.session.storage.peek(self.data.chunks[0].key).dtypes

    @property
    def shape(self) -> tuple:
        if not self.data.has_known_shape:
            self.execute()
        rows = self.data.shape[0]
        cols = self.data.shape[1] if len(self.data.shape) > 1 else None
        if cols is None:
            cols = len(self.columns)
        return (rows, cols)

    def __len__(self) -> int:
        return int(self.shape[0])

    # -- selection -----------------------------------------------------------------
    def __getitem__(self, item):
        if isinstance(item, str):
            rows = self.data.shape[0] if self.data.shape else None
            out = build_elementwise(
                [self.data], lambda df: df[item], "series", (rows,),
                out_name=item, cols_required=[item],
            )
            return Series(out, self._session)
        if isinstance(item, list):
            rows = self.data.shape[0] if self.data.shape else None
            cols = list(item)
            out = build_elementwise(
                [self.data], lambda df: df[cols], "dataframe",
                (rows, len(cols)), out_columns=cols, cols_required=cols,
            )
            return DataFrame(out, self._session)
        if isinstance(item, Series):
            op = Filter(out_kind="dataframe", out_columns=self.data.columns)
            out = op.new_tileable(
                [self.data, item.data], "dataframe",
                (None, len(self.data.columns) if self.data.columns else None),
                columns=self.data.columns,
            )
            return DataFrame(out, self._session)
        raise TypeError(f"unsupported selection {item!r}")

    def __setitem__(self, name, value) -> None:
        columns = self._columns_plus(name)
        overwrites = self.data.columns is not None and name in self.data.columns

        series = [value.data] if isinstance(value, Series) else []
        scalar = None if series else value  # never close over a handle

        def assign(df, *aligned):
            out = df.assign(**{name: aligned[0] if aligned else scalar})
            if overwrites and name not in df.columns:
                # pruning dropped the old column from this chunk: the new
                # one still goes where the schema has it
                out = out[[c for c in columns if c in out.columns]]
            return out

        # the column is made here: pruning asks the frame for the rest of
        # what is required, and nothing on ``name``'s account
        self.data = build_elementwise(  # rebind: now denotes the new frame
            [self.data] + series, assign, "dataframe", self._shape_plus(name),
            out_columns=columns, cols_required=[], cols_produced=[name],
        )

    def _columns_plus(self, name) -> Optional[list]:
        if self.data.columns is None:
            return None
        cols = list(self.data.columns)
        if name not in cols:
            cols.append(name)
        return cols

    def _shape_plus(self, name) -> tuple:
        rows = self.data.shape[0] if self.data.shape else None
        cols = self._columns_plus(name)
        return (rows, len(cols) if cols is not None else None)

    def assign(self, **new_columns) -> "DataFrame":
        out = DataFrame(self.data, self._session)
        for name, value in new_columns.items():
            if callable(value):
                value = value(out)
            out[name] = value
        return out

    @property
    def iloc(self) -> "_FrameILoc":
        return _FrameILoc(self)

    def head(self, n: int = 5) -> "DataFrame":
        op = ILocRows(slice(0, n), out_kind="dataframe",
                      out_columns=self.data.columns)
        out = op.new_tileable(
            [self.data], "dataframe",
            (None, len(self.data.columns) if self.data.columns else None),
            columns=self.data.columns,
        )
        return DataFrame(out, self._session)

    # -- per-chunk transforms --------------------------------------------------------
    def _map_partitions(self, func: Callable, keeps_rows: bool,
                        columns: Optional[list] = None,
                        requires: Optional[Callable] = None) -> "DataFrame":
        op = MapPartitions(func=func, out_kind="dataframe",
                           out_columns=columns, keeps_rows=keeps_rows,
                           requires=requires)
        rows = self.data.shape[0] if (keeps_rows and self.data.shape) else None
        out = op.new_tileable(
            [self.data], "dataframe",
            (rows, len(columns) if columns is not None else None),
            columns=columns,
        )
        return DataFrame(out, self._session)

    # column-wise transforms work on whatever columns a chunk carries, so
    # pruning may pass what is required of them straight to their input.
    def fillna(self, value) -> "DataFrame":
        return self._map_partitions(lambda df: df.fillna(value), True,
                                    self.data.columns, requires=list)

    def dropna(self, subset=None, how: str = "any") -> "DataFrame":
        # without a subset every column decides which rows survive
        requires = (None if subset is None
                    else lambda required: sorted({*required, *subset}, key=str))
        return self._map_partitions(
            lambda df: df.dropna(subset=subset, how=how), False,
            self.data.columns, requires=requires,
        )

    def astype(self, dtype) -> "DataFrame":
        # a per-column mapping names columns the chunk must then carry
        requires = None if isinstance(dtype, Mapping) else list
        return self._map_partitions(lambda df: df.astype(dtype), True,
                                    self.data.columns, requires=requires)

    def rename(self, columns: Mapping) -> "DataFrame":
        new_cols = ([columns.get(c, c) for c in self.data.columns]
                    if self.data.columns is not None else None)
        old_name = {new: old for old, new in columns.items()}
        return self._map_partitions(
            lambda df: df.rename(columns=columns), True, new_cols,
            requires=lambda required: [old_name.get(c, c) for c in required],
        )

    def drop(self, columns=None, labels=None) -> "DataFrame":
        to_drop = columns if columns is not None else labels
        if isinstance(to_drop, str):
            to_drop = [to_drop]
        dropped = set(to_drop)
        if self.data.columns is None:
            # unknown schema: the chunk must carry what it is told to drop
            return self._map_partitions(
                lambda df: df.drop(columns=list(dropped)), True, None)
        missing = sorted(dropped - set(self.data.columns), key=str)
        if missing:
            raise KeyError(f"columns not found: {missing}")
        return self._map_partitions(
            lambda df: df[[c for c in df.columns if c not in dropped]], True,
            [c for c in self.data.columns if c not in dropped], requires=list,
        )

    def reset_index(self, drop: bool = False) -> "DataFrame":
        if drop:
            return self._map_partitions(
                lambda df: df.reset_index(drop=True), True, self.data.columns,
                requires=list,
            )
        # the index becomes columns no input column is read for
        return self._map_partitions(lambda df: df.reset_index(), True, None,
                                    requires=list)

    def apply(self, func: Callable, axis: int = 1) -> Series:
        if axis != 1:
            raise NotImplementedError("distributed apply supports axis=1")
        op = MapPartitions(func=lambda df: df.apply(func, axis=1),
                           out_kind="series", keeps_rows=True)
        rows = self.data.shape[0] if self.data.shape else None
        out = op.new_tileable([self.data], "series", (rows,))
        return Series(out, self._session)

    def map_partitions(self, func: Callable,
                       columns: Optional[list] = None) -> "DataFrame":
        return self._map_partitions(func, False, columns)

    # -- relational ---------------------------------------------------------------------
    def merge(self, right: "DataFrame", how: str = "inner", on=None,
              left_on=None, right_on=None,
              suffixes: tuple = ("_x", "_y")) -> "DataFrame":
        if on is not None:
            lk = [on] if isinstance(on, str) else list(on)
            rk = list(lk)
        elif left_on is not None:
            lk = [left_on] if isinstance(left_on, str) else list(left_on)
            rk = [right_on] if isinstance(right_on, str) else list(right_on)
        else:
            left_cols = self.data.columns or []
            right_cols = right.data.columns or []
            lk = [c for c in left_cols if c in set(right_cols)]
            rk = list(lk)
            if not lk:
                raise ValueError("no common columns to merge on")
        out_columns = _merged_columns(
            self.data.columns, right.data.columns, lk, rk, suffixes
        )
        op = Merge(how=how, left_on=lk, right_on=rk, suffixes=suffixes,
                   out_columns=out_columns)
        out = op.new_tileable(
            [self.data, right.data], "dataframe",
            (None, len(out_columns) if out_columns is not None else None),
            columns=out_columns,
        )
        return DataFrame(out, self._session)

    def groupby(self, by, as_index: bool = True) -> "DistGroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return DistGroupBy(self, keys, as_index=as_index)

    # -- ordering / dedup -------------------------------------------------------------------
    def sort_values(self, by, ascending=True) -> "DataFrame":
        keys = [by] if isinstance(by, str) else list(by)
        op = SortValues(by=keys, ascending=ascending,
                        out_columns=self.data.columns)
        out = op.new_tileable(
            [self.data], "dataframe",
            (self.data.shape[0] if self.data.shape else None,
             len(self.data.columns) if self.data.columns else None),
            columns=self.data.columns,
        )
        return DataFrame(out, self._session)

    def nlargest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=False).head(n)

    def nsmallest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=True).head(n)

    def drop_duplicates(self, subset=None) -> "DataFrame":
        op = DropDuplicates(subset=subset, out_kind="dataframe",
                            out_columns=self.data.columns)
        out = op.new_tileable(
            [self.data], "dataframe",
            (None, len(self.data.columns) if self.data.columns else None),
            columns=self.data.columns,
        )
        return DataFrame(out, self._session)

    # -- reductions -----------------------------------------------------------------------------
    def _reduce(self, how: str) -> Series:
        op = DataFrameReduction(how=how)
        out = op.new_tileable([self.data], "series", (None,))
        return Series(out, self._session)

    def sum(self):
        return self._reduce("sum")

    def mean(self):
        return self._reduce("mean")

    def min(self):
        return self._reduce("min")

    def max(self):
        return self._reduce("max")

    def count(self):
        return self._reduce("count")

    def nunique(self):
        return self._reduce("nunique")

    def describe(self) -> "DataFrame":
        op = GatherApply(func=lambda df: df.describe(), out_kind="dataframe")
        out = op.new_tileable([self.data], "dataframe", (8, None))
        return DataFrame(out, self._session)

    def pivot_table(self, values=None, index=None, columns=None,
                    aggfunc: str = "mean") -> "DataFrame":
        op = GatherApply(
            func=lambda df: df.pivot_table(values=values, index=index,
                                           columns=columns, aggfunc=aggfunc),
            out_kind="dataframe",
        )
        out = op.new_tileable([self.data], "dataframe", (None, None))
        return DataFrame(out, self._session)

    # -- IO ------------------------------------------------------------------------------------------
    def to_parquet(self, path) -> None:
        self.fetch().to_parquet(path)

    def to_csv(self, path) -> None:
        self.fetch().to_csv(path)


def _merged_columns(left_cols, right_cols, left_on, right_on, suffixes):
    if left_cols is None or right_cols is None:
        return None
    shared = [l for l, r in zip(left_on, right_on) if l == r]
    right_out = [c for c in right_cols if not (c in shared and c in set(right_on))]
    overlap = (set(left_cols) & set(right_out)) - set(shared)
    out = []
    for c in left_cols:
        out.append(f"{c}{suffixes[0]}" if c in overlap else c)
    for c in right_out:
        out.append(f"{c}{suffixes[1]}" if c in overlap else c)
    return out


class _FrameILoc:
    def __init__(self, frame: DataFrame):
        self._frame = frame

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            op = ILocRows(int(item), out_kind="series",
                          out_columns=self._frame.data.columns)
            out = op.new_tileable([self._frame.data], "series", (None,))
            return Series(out, self._frame._session)
        if isinstance(item, slice):
            op = ILocRows(item, out_kind="dataframe",
                          out_columns=self._frame.data.columns)
            out = op.new_tileable(
                [self._frame.data], "dataframe",
                (None, len(self._frame.data.columns)
                 if self._frame.data.columns else None),
                columns=self._frame.data.columns,
            )
            return DataFrame(out, self._frame._session)
        raise TypeError(f"unsupported iloc argument {item!r}")


class DistGroupBy:
    """Deferred ``df.groupby(keys)``."""

    def __init__(self, frame: DataFrame, by: list, as_index: bool = True):
        self.frame = frame
        self.by = by
        self.as_index = as_index

    def __getitem__(self, item):
        if isinstance(item, str):
            return _SelectedDistGroupBy(self, [item], scalar=True)
        return _SelectedDistGroupBy(self, list(item), scalar=False)

    def agg(self, spec=None, **named) -> DataFrame:
        value_columns = [
            c for c in (self.frame.data.columns or []) if c not in set(self.by)
        ]
        plan = normalize_agg_spec(spec, value_columns, named)
        for _out, _col, how in plan:
            how_name = _how_name(how)
            if not callable(how) and how_name not in DISTRIBUTABLE:
                raise ValueError(f"cannot distribute aggregation {how!r}")
        return self._build(plan)

    aggregate = agg

    def _build(self, plan) -> DataFrame:
        out_cols = [p[0] for p in plan]
        columns = out_cols if self.as_index else self.by + out_cols
        op = GroupByAgg(by=self.by, plan=plan, as_index=self.as_index)
        out = op.new_tileable(
            [self.frame.data], "dataframe", (None, len(columns)),
            columns=columns,
        )
        return DataFrame(out, self.frame._session)

    def _single(self, how: str) -> DataFrame:
        value_columns = [
            c for c in (self.frame.data.columns or []) if c not in set(self.by)
        ]
        plan = [(c, c, how) for c in value_columns]
        return self._build(plan)

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

    def nunique(self):
        return self._single("nunique")

    def first(self):
        return self._single("first")

    def last(self):
        return self._single("last")

    def size(self) -> Series:
        plan = [("size", self.by[0], "size")]
        frame = self._build(plan)
        return frame["size"]


class _SelectedDistGroupBy:
    def __init__(self, parent: DistGroupBy, columns: list, scalar: bool):
        self._parent = parent
        self._columns = columns
        self._scalar = scalar

    def agg(self, spec=None, **named):
        if named:
            return self._parent.agg(**named)
        if isinstance(spec, str) or callable(spec):
            plan = [(c, c, spec) for c in self._columns]
            result = self._parent._build(plan)
            if self._scalar:
                return result[self._columns[0]]
            return result
        if isinstance(spec, (list, tuple)):
            plan = [((c, _how_name(h)), c, h)
                    for c in self._columns for h in spec]
            return self._parent._build(plan)
        if isinstance(spec, dict):
            return self._parent.agg(spec)
        raise TypeError(f"unsupported agg spec {spec!r}")

    aggregate = agg

    def _single(self, how):
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

    def nunique(self):
        return self._single("nunique")

    def size(self):
        return self._parent.size()


# ---------------------------------------------------------------------------
# module-level constructors (the ``xorbits.pandas`` surface)
# ---------------------------------------------------------------------------

def from_frame(frame: LocalFrame, session: Session | None = None) -> DataFrame:
    """Distribute an in-memory ``repro.frame.DataFrame``."""
    columns = frame.columns.to_list()
    op = FromFrame(frame=frame)
    out = op.new_tileable([], "dataframe", (len(frame), len(columns)),
                          columns=columns)
    return DataFrame(out, session)


def from_dict(data: Mapping, session: Session | None = None) -> DataFrame:
    return from_frame(LocalFrame(dict(data)), session)


def read_parquet(path, columns: Optional[list] = None,
                 session: Session | None = None) -> DataFrame:
    from ..engine.local import parquet_metadata

    meta = parquet_metadata(path)
    all_columns = [c["name"] for c in meta["columns"]]
    use = list(columns) if columns is not None else all_columns
    op = ReadParquet(path, columns=columns)
    out = op.new_tileable([], "dataframe", (meta["n_rows"], len(use)),
                          columns=use)
    return DataFrame(out, session)


def read_csv(path, columns: Optional[list] = None,
             parse_dates: Optional[list] = None,
             session: Session | None = None) -> DataFrame:
    from ..engine.local import csv_row_count, read_csv as local_read_csv

    header = local_read_csv(path, nrows=1)
    all_columns = header.columns.to_list()
    use = list(columns) if columns is not None else all_columns
    op = ReadCSV(path, columns=columns, parse_dates=parse_dates)
    out = op.new_tileable([], "dataframe", (csv_row_count(path), len(use)),
                          columns=use)
    return DataFrame(out, session)


def concat(frames: Sequence[DataFrame],
           session: Session | None = None) -> DataFrame:
    """Distributed row concat: chunks are re-positioned, not copied."""
    from .concat_op import ConcatFrames

    datas = [f.data for f in frames]
    columns = datas[0].columns
    rows: Optional[int] = 0
    for data in datas:
        if data.shape and data.shape[0] is not None and rows is not None:
            rows += data.shape[0]
        else:
            rows = None
    op = ConcatFrames()
    out = op.new_tileable(
        datas, "dataframe",
        (rows, len(columns) if columns is not None else None),
        columns=columns,
    )
    return DataFrame(out, session if session is not None else frames[0]._session)
