"""Tensor reductions: full and per-axis, with tree combines."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..utils import combine_tree

_PARTIAL = {
    "sum": lambda a, axis: {"acc": np.sum(a, axis=axis)},
    "max": lambda a, axis: {"acc": np.max(a, axis=axis)},
    "min": lambda a, axis: {"acc": np.min(a, axis=axis)},
    "mean": lambda a, axis: {
        "sum": np.sum(a, axis=axis),
        "count": (a.size if axis is None else a.shape[axis]),
    },
}


def _merge(parts: list[dict], how: str) -> dict:
    if how == "sum":
        return {"acc": sum(p["acc"] for p in parts)}
    if how == "max":
        return {"acc": np.maximum.reduce([p["acc"] for p in parts])}
    if how == "min":
        return {"acc": np.minimum.reduce([p["acc"] for p in parts])}
    return {"sum": sum(p["sum"] for p in parts),
            "count": sum(p["count"] for p in parts)}


def _finalize(part: dict, how: str):
    if how == "mean":
        return part["sum"] / part["count"]
    return part["acc"]


class TensorReduce(Operator):
    """``sum``/``mean``/``min``/``max`` over all axes or one axis."""

    def __init__(self, how: str, axis: Optional[int] = None, **params):
        super().__init__(**params)
        if how not in _PARTIAL:
            raise ValueError(f"unsupported tensor reduction {how!r}")
        self.how = how
        self.axis = axis

    def tile(self, ctx: TileContext):
        source = self.inputs[0]
        if self.axis is None:
            return self._tile_full(ctx, source)
        return self._tile_axis(ctx, source)

    def _reduce(self, chunks: list, kind: str, shape: tuple, index: tuple,
                dtype=None):
        """Map each chunk to its partial, combine, and one final node."""
        def stage(role, inputs):
            op = TensorReduceChunk(how=self.how, axis=self.axis, role=role)
            return op.new_chunk(inputs, kind, shape, index, dtype=dtype)

        level = combine_tree([stage("map", [chunk]) for chunk in chunks],
                             lambda batch, _j: stage("combine", batch))
        return stage("reduce", level)

    def _tile_full(self, ctx: TileContext, source):
        out = self._reduce(source.chunks, "scalar", (), ())
        return [([out], ((),))]

    def _tile_axis(self, ctx: TileContext, source):
        if source.ndim != 2:
            raise ValueError("axis reductions support 2-D tensors")
        axis = self.axis
        keep_splits = source.nsplits[1 - axis]
        grid = {(c.index[0], c.index[1]): c for c in source.chunks}
        n_reduce = len(source.nsplits[axis])
        out_chunks = [
            self._reduce(
                [grid[(i, k) if axis == 0 else (k, i)] for i in range(n_reduce)],
                "tensor", (keep_splits[k],), (k,), dtype=source.dtype)
            for k in range(len(keep_splits))
        ]
        return [(out_chunks, (tuple(keep_splits),))]


class TensorReduceChunk(Operator):
    def __init__(self, how: str, axis, role: str, **params):
        super().__init__(**params)
        self.how = how
        self.axis = axis
        self.role = role

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        if self.role == "map":
            return _PARTIAL[self.how](values[0], self.axis)
        merged = _merge(values, self.how)
        if self.role == "combine":
            return merged
        return _finalize(merged, self.how)
