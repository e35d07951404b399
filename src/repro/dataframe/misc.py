"""Remaining distributed dataframe operators: drop_duplicates, unique,
gather-apply (describe and friends), and value assignment."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import Series, concat
from ..graph.entity import ChunkData
from ..utils import combine_tree
from .utils import chunk_index, nsplits_from_chunks


class DropDuplicates(Operator):
    """Distributed dedup: per-chunk dedup → tree merge-dedup.

    Each map step can only shrink data; the combine tree keeps per-node
    input bounded by ``COMBINE_ARITY`` chunks — the same overload-avoidance
    argument as the groupby combine stage.
    """

    def __init__(self, subset: Optional[Sequence], out_kind: str,
                 out_columns=None, **params):
        super().__init__(**params)
        self.subset = list(subset) if subset is not None else None
        self.out_kind = out_kind
        self.out_columns = out_columns

    def tile(self, ctx: TileContext):
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        shape = (None, n_cols) if self.out_kind == "dataframe" else (None,)

        def dedup(inputs: list[ChunkData], j: int) -> ChunkData:
            op = DropDuplicatesChunk(subset=self.subset)
            return op.new_chunk(inputs, self.out_kind, shape,
                                chunk_index(self.out_kind, j),
                                columns=self.out_columns)

        level = combine_tree(
            [dedup([chunk], i) for i, chunk in enumerate(self.inputs[0].chunks)],
            dedup)
        if len(level) > 1:
            level = [dedup(level, 0)]
        return [(level, nsplits_from_chunks(ctx, level, self.out_kind, n_cols))]


class DropDuplicatesChunk(Operator):
    def __init__(self, subset=None, **params):
        super().__init__(**params)
        self.subset = subset

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        merged = concat(values) if len(values) > 1 else values[0]
        if hasattr(merged, "drop_duplicates"):
            if self.subset is not None and hasattr(merged, "columns"):
                return merged.drop_duplicates(subset=self.subset)
            return merged.drop_duplicates()
        raise TypeError("drop_duplicates on unsupported value")


class UniqueValues(Operator):
    """``series.unique()``: per-chunk uniques → union → 1-D array."""

    def tile(self, ctx: TileContext):
        def union(inputs: list[ChunkData], _j: int = 0) -> ChunkData:
            return UniqueValuesChunk().new_chunk(inputs, "tensor", (None,), (0,))

        level = combine_tree(
            [union([chunk]) for chunk in self.inputs[0].chunks], union)
        if len(level) > 1:
            level = [union(level)]
        return [(level, ((None,),))]


class UniqueValuesChunk(Operator):
    """``Series.unique`` of a chunk, or of the uniques of several chunks
    concatenated in order: each piece keeps its dtype, so the tree
    answers what the whole column does — dtype, order and one missing
    value."""

    def execute(self, ctx: ExecContext):
        pieces = [ctx.get(c.key) for c in self.inputs]
        pieces = [Series(p) if isinstance(p, np.ndarray) else p
                  for p in pieces]
        merged = concat(pieces, ignore_index=True) if len(pieces) > 1 \
            else pieces[0]
        return merged.unique()


class GatherApply(Operator):
    """Funnel every chunk into one node and apply ``func`` there.

    The fallback plan for operators whose result is small but whose
    computation is not decomposable (``describe``, small pivots). The
    combine tree bounds fan-in like everywhere else.
    """

    def __init__(self, func: Callable, out_kind: str, out_columns=None,
                 out_dtype=None, out_name=None, **params):
        super().__init__(**params)
        self.func = func
        self.out_kind = out_kind
        self.out_columns = out_columns
        self.out_dtype = out_dtype
        self.out_name = out_name

    def tile(self, ctx: TileContext):
        from .utils import ConcatChunks

        def concat_chunks(batch: list[ChunkData], j: int) -> ChunkData:
            return ConcatChunks().new_chunk(
                batch, batch[0].kind, (None,) + batch[0].shape[1:],
                chunk_index(batch[0].kind, j), columns=batch[0].columns,
            )

        level = combine_tree(self.inputs[0].chunks, concat_chunks)
        op = GatherApplyChunk(func=self.func)
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        shape = (
            (None, n_cols) if self.out_kind == "dataframe"
            else ((None,) if self.out_kind in ("series", "tensor") else ())
        )
        index = chunk_index(self.out_kind, 0) if self.out_kind != "scalar" else ()
        out = op.new_chunk(level, self.out_kind, shape, index,
                           columns=self.out_columns, dtype=self.out_dtype,
                           name=self.out_name)
        if self.out_kind == "scalar":
            return [([out], ((),))]
        return [([out], nsplits_from_chunks(ctx, [out], self.out_kind, n_cols))]


class GatherApplyChunk(Operator):
    def __init__(self, func: Callable, **params):
        super().__init__(**params)
        self.func = func

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        merged = concat(values) if len(values) > 1 else values[0]
        return self.func(merged)
