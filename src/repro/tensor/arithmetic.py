"""Elementwise tensor operators — the operator-level fusion candidates."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..errors import TilingError
from ..graph.entity import TileableData
from .rechunk import rechunk_chunks


class TensorElementwise(Operator):
    """Apply a NumPy ufunc-like callable per chunk (zipped over inputs)."""

    def __init__(self, func: Callable, out_dtype=None, **params):
        super().__init__(**params)
        self.func = func
        self.out_dtype = out_dtype

    def tile(self, ctx: TileContext):
        base = self.inputs[0]
        aligned_chunks = [list(base.chunks)]
        for other in self.inputs[1:]:
            if other.nsplits == base.nsplits:
                aligned_chunks.append(list(other.chunks))
            elif other.has_known_shape and other.shape == base.shape:
                aligned_chunks.append(rechunk_chunks(
                    other.chunks, other.nsplits, base.nsplits, other.dtype
                ))
            else:
                raise TilingError(
                    "elementwise tensor inputs must share a shape"
                )
        out_chunks = []
        by_index = list(zip(*aligned_chunks))
        for chunk_group in by_index:
            op = TensorElementwiseChunk(func=self.func)
            ref = chunk_group[0]
            out_chunks.append(op.new_chunk(
                list(chunk_group), "tensor", ref.shape, ref.index,
                dtype=self.out_dtype or ref.dtype,
            ))
        return [(out_chunks, base.nsplits)]


class TensorElementwiseChunk(Operator):
    is_elementwise = True

    def __init__(self, func: Callable, **params):
        super().__init__(**params)
        self.func = func

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        return self.func(*values)


def build_tensor_elementwise(inputs: Sequence[TileableData], func: Callable,
                             out_dtype=None) -> TileableData:
    op = TensorElementwise(func=func, out_dtype=out_dtype)
    base = inputs[0]
    return op.new_tileable(list(inputs), "tensor", base.shape,
                           dtype=out_dtype or base.dtype)


class TensorMapBlocks(Operator):
    """Apply ``func`` per full-width row block, possibly changing the
    column count (e.g. appending a bias column for regression)."""

    def __init__(self, func: Callable, out_cols: int, out_dtype=None,
                 **params):
        super().__init__(**params)
        self.func = func
        self.out_cols = int(out_cols)
        self.out_dtype = out_dtype

    def tile(self, ctx: TileContext):
        from .rechunk import rechunk_chunks

        source = self.inputs[0]
        if source.ndim != 2:
            raise TilingError("map_blocks requires a 2-D tensor")
        chunks = list(source.chunks)
        nsplits = source.nsplits
        if len(nsplits[1]) != 1:  # ensure full-width row blocks
            target = (nsplits[0], (source.shape[1],))
            chunks = rechunk_chunks(chunks, nsplits, target, source.dtype)
            nsplits = target
        out_chunks = []
        for i, chunk in enumerate(chunks):
            op = TensorMapBlocksChunk(func=self.func)
            out_chunks.append(op.new_chunk(
                [chunk], "tensor", (chunk.shape[0], self.out_cols), (i, 0),
                dtype=self.out_dtype or source.dtype,
            ))
        return [(out_chunks, (nsplits[0], (self.out_cols,)))]


class TensorMapBlocksChunk(Operator):
    def __init__(self, func: Callable, **params):
        super().__init__(**params)
        self.func = func

    def execute(self, ctx: ExecContext):
        return self.func(ctx.get(self.inputs[0].key))


def map_blocks(data: TileableData, func: Callable, out_cols: int,
               out_dtype=None) -> TileableData:
    """Tileable-level constructor for a per-row-block transform."""
    op = TensorMapBlocks(func=func, out_cols=out_cols, out_dtype=out_dtype)
    return op.new_tileable(
        [data], "tensor", (data.shape[0], out_cols),
        dtype=out_dtype or data.dtype,
    )
