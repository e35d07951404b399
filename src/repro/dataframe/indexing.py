"""Row selection operators: boolean filtering, positional ``iloc``, head.

``iloc`` after a filter is the paper's canonical iterative-tiling example
(Fig. 3c): which chunk holds the tenth row of a filtered frame is
unknowable before execution, so tiling yields the filtered chunks, reads
their real lengths from the meta service, and appends a positional-slice
operator to exactly the chunk(s) involved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import DataFrame, Selection
from ..errors import TilingError
from ..utils import cumulative_offsets, locate_in_splits
from .utils import (
    align_rows,
    auto_merge_chunks,
    chunk_index,
    known_splits,
    nsplits_from_chunks,
    row_count,
)


class Filter(Operator):
    """Boolean-mask row filtering: ``df[mask]`` / ``series[mask]``.

    A non-static operator: output chunk lengths are unknown until the
    masks execute.
    """

    def __init__(self, out_kind: str, out_columns: Optional[list] = None,
                 out_dtype=None, out_name=None, **params):
        super().__init__(**params)
        self.out_kind = out_kind
        self.out_columns = out_columns
        self.out_dtype = out_dtype
        self.out_name = out_name

    def input_column_requirements(self, required):
        return [required, None]  # the mask series has no columns

    def _gathered(self, data_chunk) -> Optional[list]:
        """What a frame filter's chunk over ``data_chunk`` gathers: the
        columns the pruning pass said its output is to carry, in
        ``out_columns`` order and never none at all (``[]`` keeps the
        input's first column, as a source keeps its first); ``None``
        gathers whatever the input chunk has."""
        carried = self.outputs[0].carried_columns
        if (carried is None or self.out_kind != "dataframe"
                or self.out_columns is None):
            return None
        present = (self.out_columns if data_chunk.columns is None
                   else data_chunk.columns)
        return [c for c in self.out_columns
                if c in carried and c in present]

    def tile(self, ctx: TileContext):
        data_chunks = list(self.inputs[0].chunks)
        mask_chunks = list(self.inputs[1].chunks)
        aligned = yield from align_rows(
            ctx, [data_chunks, mask_chunks],
            [self.inputs[0].kind, self.inputs[1].kind],
        )
        data_chunks, mask_chunks = aligned
        columns = self._gathered(data_chunks[0]) if data_chunks else None
        out_columns = self.out_columns if columns is None else (
            columns or (data_chunks[0].columns or self.out_columns)[:1])
        n_cols = len(out_columns) if out_columns is not None else None
        out_chunks = []
        for i, (data, mask) in enumerate(zip(data_chunks, mask_chunks)):
            chunk_op = FilterChunk(columns=columns)
            shape = ((None, n_cols) if self.out_kind == "dataframe" else (None,))
            out_chunks.append(chunk_op.new_chunk(
                [data, mask], self.out_kind, shape,
                chunk_index(self.out_kind, i),
                dtype=self.out_dtype, columns=out_columns,
                name=self.out_name,
            ))
        nsplits = nsplits_from_chunks(ctx, out_chunks, self.out_kind, n_cols)
        return [(out_chunks, nsplits)]


class FilterChunk(Operator):
    """One chunk's ``data[mask]``. A frame's (or a selection's) rows come
    out as a ``Selection``: chosen, not gathered — a filter after it
    composes the rows, and the kernel that reads a column gathers it
    (``services.runner`` materializes it for every other reader). A
    frame filter told its ``columns`` projects to them first (``[]``:
    the input's first column; the rows ride on a column), so a column no
    later kernel reads is never moved."""

    is_elementwise = True
    reads_selection = True

    def __init__(self, columns: Optional[list] = None, **params):
        super().__init__(columns=columns, **params)

    def func(self, data, mask):
        columns = self.params["columns"]
        if columns is not None:
            data = data[columns or list(data)[:1]]
        if isinstance(data, (DataFrame, Selection)):
            return data.select_rows(mask)
        return data[mask]

    def execute(self, ctx: ExecContext):
        return self.func(ctx.get(self.inputs[0].key),
                         ctx.get(self.inputs[1].key))


class ILocRows(Operator):
    """Positional row selection on a distributed frame.

    ``item`` is an int (one row → series of that row / scalar for series)
    or a slice. When upstream chunk lengths are unknown, dynamic tiling
    executes them first (iterative tiling).
    """

    def __init__(self, item, out_kind: str, out_columns: Optional[list] = None,
                 out_dtype=None, out_name=None, **params):
        super().__init__(**params)
        self.item = item
        self.out_kind = out_kind
        self.out_columns = out_columns
        self.out_dtype = out_dtype
        self.out_name = out_name

    def input_column_requirements(self, required):
        # a row range keeps the columns asked for; one row of a frame is
        # a series over all of them
        return [required if isinstance(self.item, slice) else None]

    def tile(self, ctx: TileContext):
        chunks = list(self.inputs[0].chunks)
        splits = known_splits(ctx, chunks)
        if splits is None:
            if ctx.config.dynamic_tiling:
                # iterative tiling: run upstream, learn the real lengths
                yield chunks
                splits = known_splits(ctx, chunks)
                if splits is None:
                    raise TilingError("chunk lengths unknown after execution")
            else:
                # static fallback: funnel everything into one chunk first —
                # the naive plan the paper contrasts against
                from .utils import ConcatChunks

                concat_op = ConcatChunks()
                shape = (
                    (None, len(self.out_columns) if self.out_columns else None)
                    if self.inputs[0].kind == "dataframe" else (None,)
                )
                merged = concat_op.new_chunk(
                    chunks, self.inputs[0].kind, shape, chunk_index(
                        self.inputs[0].kind, 0
                    ),
                    columns=self.inputs[0].columns,
                )
                chunks = [merged]
                splits = None

        if isinstance(self.item, (int, np.integer)):
            return self._tile_single_row(ctx, chunks, splits)
        if isinstance(self.item, slice):
            return self._tile_slice(ctx, chunks, splits)
        raise TilingError(f"unsupported iloc argument {self.item!r}")

    def _tile_single_row(self, ctx: TileContext, chunks, splits):
        position = int(self.item)
        index = () if self.out_kind == "scalar" else (0,)
        if splits is None:
            chunk_op = ILocChunk(item=position)
            out = chunk_op.new_chunk(
                chunks, self.out_kind, (), index,
                dtype=self.out_dtype, name=self.out_name,
            )
            return [([out], ((),))]
        total = sum(splits)
        if position < 0:
            position += total
        if not 0 <= position < total:
            raise IndexError(f"iloc position {self.item} out of bounds ({total} rows)")
        chunk_idx, offset = locate_in_splits(position, splits)
        chunk_op = ILocChunk(item=offset)
        shape = (
            (len(self.out_columns),)
            if self.out_kind == "series" and self.out_columns else ()
        )
        out = chunk_op.new_chunk(
            [chunks[chunk_idx]], self.out_kind, shape, index,
            dtype=self.out_dtype, name=self.out_name,
        )
        nsplits = ((shape[0],),) if shape else ((),)
        return [([out], nsplits)]

    def _tile_slice(self, ctx: TileContext, chunks, splits):
        sl: slice = self.item
        if sl.step is not None and sl.step != 1:
            raise TilingError("iloc slices with a step are not supported")
        if splits is None:
            chunk_op = ILocChunk(item=sl)
            n_cols = len(self.out_columns) if self.out_columns else None
            shape = (None, n_cols) if self.out_kind == "dataframe" else (None,)
            out = chunk_op.new_chunk(
                chunks, self.out_kind, shape, chunk_index(self.out_kind, 0),
                dtype=self.out_dtype, columns=self.out_columns,
                name=self.out_name,
            )
            return [([out], nsplits_from_chunks(ctx, [out], self.out_kind, n_cols))]
        total = sum(splits)
        start, stop, _ = sl.indices(total)
        offsets = cumulative_offsets(splits)
        out_chunks = []
        n_cols = len(self.out_columns) if self.out_columns else None
        for i, chunk in enumerate(chunks):
            lo, hi = offsets[i], offsets[i + 1]
            take_lo, take_hi = max(start, lo), min(stop, hi)
            if take_lo >= take_hi:
                continue
            local = slice(take_lo - lo, take_hi - lo)
            if local == slice(0, hi - lo):
                # whole chunk passes through untouched
                out_chunks.append(_reindexed(chunk, self.out_kind, len(out_chunks)))
                continue
            chunk_op = ILocChunk(item=local)
            rows = take_hi - take_lo
            shape = (rows, n_cols) if self.out_kind == "dataframe" else (rows,)
            out_chunks.append(chunk_op.new_chunk(
                [chunk], self.out_kind, shape,
                chunk_index(self.out_kind, len(out_chunks)),
                dtype=self.out_dtype, columns=self.out_columns,
                name=self.out_name,
            ))
        if not out_chunks:
            chunk_op = ILocChunk(item=slice(0, 0))
            shape = (0, n_cols) if self.out_kind == "dataframe" else (0,)
            out_chunks.append(chunk_op.new_chunk(
                [chunks[0]], self.out_kind, shape,
                chunk_index(self.out_kind, 0),
                dtype=self.out_dtype, columns=self.out_columns,
                name=self.out_name,
            ))
        return [(out_chunks,
                 nsplits_from_chunks(ctx, out_chunks, self.out_kind, n_cols))]


def _reindexed(chunk, kind: str, position: int):
    """A pass-through view of a chunk at a new output position."""
    from ..graph.entity import ChunkData

    return ChunkData(chunk.kind, chunk.shape, chunk_index(kind, position),
                     op=chunk.op, dtype=chunk.dtype, columns=chunk.columns,
                     key=chunk.key)


class ILocChunk(Operator):
    """Local positional selection inside one chunk."""

    is_lightweight = True

    def execute(self, ctx: ExecContext):
        if len(self.inputs) > 1:
            from ..engine.local import concat

            value = concat([ctx.get(c.key) for c in self.inputs])
        else:
            value = ctx.get(self.inputs[0].key)
        return value.iloc[self.params["item"]]
