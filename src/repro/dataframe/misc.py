"""Remaining distributed dataframe operators: drop_duplicates, unique,
gather-apply (describe and friends), and value assignment."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import concat, dtypes
from ..graph.entity import ChunkData
from ..utils import COMBINE_ARITY, batched
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
        chunks = list(self.inputs[0].chunks)
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        level = []
        for i, chunk in enumerate(chunks):
            op = DropDuplicatesChunk(subset=self.subset)
            shape = (None, n_cols) if self.out_kind == "dataframe" else (None,)
            level.append(op.new_chunk(
                [chunk], self.out_kind, shape, chunk_index(self.out_kind, i),
                columns=self.out_columns,
            ))
        while len(level) > 1:
            next_level = []
            for j, batch in enumerate(batched(level, COMBINE_ARITY)):
                op = DropDuplicatesChunk(subset=self.subset)
                shape = (None, n_cols) if self.out_kind == "dataframe" else (None,)
                next_level.append(op.new_chunk(
                    list(batch), self.out_kind, shape,
                    chunk_index(self.out_kind, j), columns=self.out_columns,
                ))
            level = next_level
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
        chunks = list(self.inputs[0].chunks)
        level = []
        for chunk in chunks:
            op = UniqueValuesChunk(final=False)
            level.append(op.new_chunk([chunk], "tensor", (None,), (0,)))
        while len(level) > 1:
            next_level = []
            for batch in batched(level, COMBINE_ARITY):
                op = UniqueValuesChunk(final=False)
                next_level.append(op.new_chunk(list(batch), "tensor", (None,), (0,)))
            level = next_level
        final_op = UniqueValuesChunk(final=True)
        out = final_op.new_chunk(level, "tensor", (None,), (0,))
        return [([out], ((None,),))]


class UniqueValuesChunk(Operator):
    def __init__(self, final: bool, **params):
        super().__init__(**params)
        self.final = final

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        pieces = []
        for value in values:
            if hasattr(value, "unique"):
                pieces.append(np.asarray(value.unique(), dtype=object))
            else:
                pieces.append(np.asarray(value, dtype=object))
        merged = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        return np.array(dtypes.first_seen(merged)[1], dtype=object)


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

        level = list(self.inputs[0].chunks)
        while len(level) > COMBINE_ARITY:
            next_level = []
            for j, batch in enumerate(batched(level, COMBINE_ARITY)):
                op = ConcatChunks()
                next_level.append(op.new_chunk(
                    list(batch), batch[0].kind, (None,) + batch[0].shape[1:],
                    chunk_index(batch[0].kind, j), columns=batch[0].columns,
                ))
            level = next_level
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
