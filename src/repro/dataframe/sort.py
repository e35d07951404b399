"""Distributed sort: sample-based range partitioning.

Dynamic tiling first executes the input chunks, samples the sort key's
distribution (``TileContext.peek``), derives balanced range boundaries,
shuffles rows into those ranges and sorts each range locally — the
concatenation of the output chunks is globally ordered. Without dynamic
tiling the operator degrades to the naive single-node plan (gather
everything, sort once), which is what a planner without runtime metadata
must do to guarantee global order.
"""

from __future__ import annotations

from typing import Sequence

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import concat
from .shuffle import fan_out, range_cuts
from .utils import auto_merge_chunks, chunk_index, nsplits_from_chunks


class SortValues(Operator):
    """``df.sort_values(by, ascending)`` over row chunks."""

    def __init__(self, by: Sequence, ascending, out_columns=None, **params):
        super().__init__(**params)
        self.by = list(by)
        self.ascending = (
            list(ascending) if isinstance(ascending, (list, tuple))
            else [ascending] * len(self.by)
        )
        self.out_columns = out_columns

    def input_column_requirements(self, required):
        if required is None:
            return [None]
        return [sorted(set(required) | set(self.by), key=str)]

    def tile(self, ctx: TileContext):
        chunks = list(self.inputs[0].chunks)
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        cuts: list = []
        if len(chunks) > 1 and ctx.config.dynamic_tiling:
            yield chunks  # need real values to sample the key distribution
            n_parts = min(len(chunks), 2 * ctx.config.cluster.n_bands)
            cuts = yield from range_cuts(
                ctx, [(chunk, self.by[0]) for chunk in chunks], n_parts)
            chunks = auto_merge_chunks(ctx, chunks, "dataframe")
        # without cuts, the single-node plan: gather everything, sort once;
        # a descending sort reverses the ranges, so NA keys go to the first
        partitions = (fan_out(chunks, len(cuts) + 1, key=self.by[0],
                              boundaries=cuts,
                              na_first=not self.ascending[0])
                      if cuts else [chunks])
        if not self.ascending[0]:
            partitions.reverse()
        out_chunks = [
            SortChunk(by=self.by, ascending=self.ascending).new_chunk(
                part, "dataframe", (None, n_cols),
                chunk_index("dataframe", position), columns=self.out_columns)
            for position, part in enumerate(partitions)
        ]
        return [(out_chunks,
                 nsplits_from_chunks(ctx, out_chunks, "dataframe", n_cols))]


class SortChunk(Operator):
    """Gather partitions of one range and sort them locally."""

    def __init__(self, by: Sequence, ascending: Sequence, **params):
        super().__init__(**params)
        self.by = list(by)
        self.ascending = list(ascending)

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        merged = concat(values) if len(values) > 1 else values[0]
        return merged.sort_values(self.by, ascending=self.ascending)
