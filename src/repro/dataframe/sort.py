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

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import concat
from ..graph.entity import ChunkData
from ..utils import new_key
from .utils import (
    SAMPLE_CHUNKS,
    ConcatChunks,
    chunk_index,
    nsplits_from_chunks,
    spread_sample,
)


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
        if len(chunks) == 1 or not ctx.config.dynamic_tiling:
            out = self._tile_gather(chunks, n_cols)
            return [( [out], nsplits_from_chunks(ctx, [out], "dataframe", n_cols) )]

        yield chunks  # need real values to sample the key distribution
        boundaries = self._sample_boundaries(ctx, chunks)
        from .utils import auto_merge_chunks

        chunks = auto_merge_chunks(ctx, chunks, "dataframe")
        if not boundaries:
            out = self._tile_gather(chunks, n_cols)
            return [([out], nsplits_from_chunks(ctx, [out], "dataframe", n_cols))]
        n_parts = len(boundaries) + 1
        partitions: list[list[ChunkData]] = [[] for _ in range(n_parts)]
        shuffle_id = new_key("shuffle")
        for m, chunk in enumerate(chunks):
            part_op = SortPartition(key=self.by[0], boundaries=boundaries,
                                    shuffle_id=shuffle_id)
            specs = [
                {"kind": "dataframe", "shape": (None, None), "index": (m, r)}
                for r in range(n_parts)
            ]
            outs = part_op.new_chunks([chunk], specs)
            for r, out in enumerate(outs):
                partitions[r].append(out)
        out_chunks = []
        order = range(n_parts) if self.ascending[0] else range(n_parts - 1, -1, -1)
        for position, r in enumerate(order):
            sort_op = SortChunk(by=self.by, ascending=self.ascending)
            out_chunks.append(sort_op.new_chunk(
                partitions[r], "dataframe", (None, n_cols),
                chunk_index("dataframe", position), columns=self.out_columns,
            ))
        return [(out_chunks,
                 nsplits_from_chunks(ctx, out_chunks, "dataframe", n_cols))]

    def _tile_gather(self, chunks, n_cols):
        """Single-chunk plan: concat everything, sort locally."""
        sort_op = SortChunk(by=self.by, ascending=self.ascending)
        return sort_op.new_chunk(
            chunks, "dataframe", (None, n_cols), chunk_index("dataframe", 0),
            columns=self.out_columns,
        )

    def _sample_boundaries(self, ctx: TileContext, chunks) -> list:
        key = self.by[0]
        collected: list = []
        per_chunk = max(2000 // max(len(chunks), 1), 50)
        for chunk in spread_sample(chunks, 2 * SAMPLE_CHUNKS):
            frame = ctx.peek(chunk.key)
            values = [
                v for v in frame[key].values.tolist()[:per_chunk]
                if v is not None and not _is_nan(v)
            ]
            collected.extend(values)
        if len(collected) < 2:
            return []
        collected.sort()
        n_parts = min(len(chunks), 2 * ctx.config.cluster.n_bands)
        cuts = []
        for r in range(1, n_parts):
            cuts.append(collected[min(
                int(len(collected) * r / n_parts), len(collected) - 1
            )])
        # duplicate cut points collapse ranges; dedup keeps them valid
        deduped = []
        for cut in cuts:
            if not deduped or cut > deduped[-1]:
                deduped.append(cut)
        return deduped


def _is_nan(value) -> bool:
    return isinstance(value, float) and np.isnan(value)


class SortPartition(Operator):
    """Shuffle-map for sort: route rows into key ranges."""

    is_shuffle_map = True

    def __init__(self, key, boundaries: list, shuffle_id: str | None = None,
                 **params):
        super().__init__(**params)
        self.key = key
        self.boundaries = boundaries
        self.shuffle_id = shuffle_id

    def execute(self, ctx: ExecContext):
        engine = ctx.engine
        value = ctx.get(self.inputs[0].key)
        assignment = engine.range_partition(value, self.key, self.boundaries)
        n_parts = len(self.outputs)
        parts = engine.split(value, assignment, n_parts)
        return {chunk.key: parts[r] for r, chunk in enumerate(self.outputs)}


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
