"""Whole-column reductions (``series.sum()``, ``df.mean()``, ...).

Implemented as map → tree-combine → reduce: each chunk emits a small
partial-statistics record, combined pairwise with the same decompositions
the groupby operator uses (mean = sum+count, var = sum+sumsq+count, ...).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import DataFrame, Index, Series
from ..utils import combine_tree

REDUCTIONS = ("sum", "mean", "min", "max", "count", "nunique", "prod",
              "var", "std", "median", "any", "all")


def _map_partial(series: Series, how: str) -> dict:
    """The partial-statistics record of one chunk for one reduction."""
    if how in ("sum", "prod", "min", "max", "any", "all"):
        if series.count() == 0:
            return {"acc": None}
        return {"acc": getattr(series, how)()}
    if how == "count":
        return {"count": series.count()}
    if how == "mean":
        return {"sum": _nan_to_zero(series.sum()), "count": series.count()}
    if how in ("var", "std"):
        return {
            "sum": _nan_to_zero(series.sum()),
            "sumsq": _nan_to_zero((series * series).sum()),
            "count": series.count(),
        }
    if how == "nunique":
        return {"set": frozenset(series.dropna().values.tolist())}
    if how == "median":
        return {"values": [v for v in series.dropna().values.tolist()]}
    raise ValueError(f"unsupported reduction {how!r}")


def _nan_to_zero(value):
    if isinstance(value, float) and math.isnan(value):
        return 0.0
    return value


def _merge_partials(parts: list[dict], how: str) -> dict:
    if how in ("sum", "prod", "min", "max", "any", "all"):
        accs = [p["acc"] for p in parts if p["acc"] is not None]
        if not accs:
            return {"acc": None}
        if how == "sum":
            return {"acc": sum(accs)}
        if how == "prod":
            return {"acc": math.prod(accs)}
        if how == "min":
            return {"acc": min(accs)}
        if how == "max":
            return {"acc": max(accs)}
        if how == "any":
            return {"acc": any(accs)}
        return {"acc": all(accs)}
    if how == "count":
        return {"count": sum(p["count"] for p in parts)}
    if how == "mean":
        return {"sum": sum(p["sum"] for p in parts),
                "count": sum(p["count"] for p in parts)}
    if how in ("var", "std"):
        return {"sum": sum(p["sum"] for p in parts),
                "sumsq": sum(p["sumsq"] for p in parts),
                "count": sum(p["count"] for p in parts)}
    if how == "nunique":
        out: set = set()
        for p in parts:
            out |= p["set"]
        return {"set": frozenset(out)}
    if how == "median":
        values: list = []
        for p in parts:
            values.extend(p["values"])
        return {"values": values}
    raise ValueError(f"unsupported reduction {how!r}")


def _finalize_partial(part: dict, how: str):
    if how in ("sum", "prod"):
        return part["acc"] if part["acc"] is not None else 0
    if how in ("min", "max", "any", "all"):
        return part["acc"] if part["acc"] is not None else np.nan
    if how == "count":
        return part["count"]
    if how == "mean":
        return part["sum"] / part["count"] if part["count"] else np.nan
    if how in ("var", "std"):
        n = part["count"]
        if n <= 1:
            return np.nan
        var = (part["sumsq"] - part["sum"] * part["sum"] / n) / (n - 1)
        var = max(var, 0.0)
        return var if how == "var" else math.sqrt(var)
    if how == "nunique":
        return len(part["set"])
    if how == "median":
        return float(np.median(part["values"])) if part["values"] else np.nan
    raise ValueError(f"unsupported reduction {how!r}")


class SeriesReduction(Operator):
    """Reduce a distributed series to a scalar."""

    #: the final chunk's kind, shape and index
    out_kind, out_shape, out_index = "scalar", (), ()

    def __init__(self, how: str, **params):
        super().__init__(**params)
        self.how = how

    def _chunk_op(self, stage_role: str) -> Operator:
        return SeriesReductionChunk(how=self.how, stage_role=stage_role)

    def tile(self, ctx: TileContext):
        def partial(role, inputs):
            return self._chunk_op(role).new_chunk(inputs, "scalar", (), ())

        level = combine_tree(
            [partial("map", [chunk]) for chunk in self.inputs[0].chunks],
            lambda batch, _j: partial("combine", batch))
        out = self._chunk_op("reduce").new_chunk(
            level, self.out_kind, self.out_shape, self.out_index)
        return [([out], (self.out_shape,))]


class SeriesReductionChunk(Operator):
    def __init__(self, how: str, stage_role: str, **params):
        super().__init__(**params)
        self.how = how
        self.stage_role = stage_role

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        if self.stage_role == "map":
            return _map_partial(values[0], self.how)
        merged = _merge_partials(values, self.how)
        if self.stage_role == "combine":
            return merged
        return _finalize_partial(merged, self.how)


class DataFrameReduction(SeriesReduction):
    """Column-wise reduction of a distributed dataframe to a series."""

    out_kind, out_shape, out_index = "series", (None,), (0,)

    def __init__(self, how: str, numeric_only: bool = True, **params):
        super().__init__(how, **params)
        self.numeric_only = numeric_only

    def _chunk_op(self, stage_role: str) -> Operator:
        return DataFrameReductionChunk(how=self.how,
                                       numeric_only=self.numeric_only,
                                       stage_role=stage_role)


class DataFrameReductionChunk(Operator):
    def __init__(self, how: str, numeric_only: bool, stage_role: str,
                 **params):
        super().__init__(**params)
        self.how = how
        self.numeric_only = numeric_only
        self.stage_role = stage_role

    def execute(self, ctx: ExecContext):
        from ..engine.local import dtypes as frame_dtypes

        values = [ctx.get(c.key) for c in self.inputs]
        if self.stage_role == "map":
            frame: DataFrame = values[0]
            out: dict = {}
            for name in frame.columns.to_list():
                series = frame[name]
                if self.numeric_only and not frame_dtypes.is_numeric(series.dtype):
                    continue
                out[name] = _map_partial(series, self.how)
            return out
        merged: dict = {}
        column_order: list = []
        for part in values:
            for name in part:
                if name not in merged:
                    merged[name] = []
                    column_order.append(name)
                merged[name].append(part[name])
        combined = {
            name: _merge_partials(parts, self.how)
            for name, parts in merged.items()
        }
        if self.stage_role == "combine":
            return combined
        names = column_order
        out_values = np.array(
            [_finalize_partial(combined[name], self.how) for name in names],
            dtype=np.float64 if self.how not in ("min", "max", "any", "all")
            else object,
        )
        return Series(out_values, index=Index(np.array(names, dtype=object)))
