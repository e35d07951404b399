"""Distributed merge (join) with dynamically selected strategy.

The paper's TPCx-AI UC10 story (Fig. 8a): joining a tiny customer table
with a huge, key-skewed transaction table. Engines that hash-shuffle both
sides by join key send every hot-key row to one partition — one worker
does all the work (or dies of OOM). Xorbits' dynamic tiling executes the
first chunks, sees one side is small, and *broadcasts* it to every chunk
of the large side instead; when both sides are large it falls back to a
range-partitioned shuffle with boundaries sampled from real data.

With dynamic tiling disabled this operator reproduces the baseline
behaviour: a static hash shuffle into as many partitions as input chunks.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import concat, merge as frame_merge
from ..graph.entity import ChunkData
from .shuffle import fan_out, range_cuts
from .utils import SAMPLE_CHUNKS, ConcatChunks, chunk_index, nsplits_from_chunks


def _estimate_total(ctx: TileContext, chunks: list[ChunkData]) -> float:
    """Estimated total bytes of a side from whatever metadata exists."""
    known = ctx.chunk_nbytes_many(chunks, default=-1)
    observed = [n for n in known if n >= 0]
    if not observed:
        return float("inf")
    mean = sum(observed) / len(observed)
    return sum(n if n >= 0 else mean for n in known)


class Merge(Operator):
    """Tileable-level merge of two distributed dataframes."""

    def __init__(self, how: str, left_on: Sequence, right_on: Sequence,
                 suffixes: tuple = ("_x", "_y"),
                 out_columns: Optional[list] = None, **params):
        super().__init__(**params)
        self.how = how
        self.left_on = list(left_on)
        self.right_on = list(right_on)
        self.suffixes = tuple(suffixes)
        self.out_columns = out_columns

    def input_column_requirements(self, required):
        if required is None:
            return [None, None]
        required = set(required)
        left_req = set(self.left_on)
        right_req = set(self.right_on)
        # a required output column may come from either side, under its
        # own name or — when both sides have it — under the base name a
        # suffix was put on: ask both sides for both
        for name in required:
            names = {name}
            for suffix in self.suffixes:
                if suffix and isinstance(name, str) and name.endswith(suffix):
                    names.add(name[: -len(suffix)])
            left_req |= names
            right_req |= names
        return [sorted(left_req, key=str), sorted(right_req, key=str)]

    # -- tiling --------------------------------------------------------------
    def tile(self, ctx: TileContext):
        left_chunks = list(self.inputs[0].chunks)
        right_chunks = list(self.inputs[1].chunks)

        if ctx.config.dynamic_tiling:
            sample = (left_chunks[:SAMPLE_CHUNKS]
                      + right_chunks[:SAMPLE_CHUNKS])
            pending = [c for c, meta in zip(sample, ctx.chunk_metas(sample))
                       if meta is None]
            if pending:
                yield pending
            left_est = _estimate_total(ctx, left_chunks)
            right_est = _estimate_total(ctx, right_chunks)
            threshold = ctx.config.chunk_store_limit

            if right_est <= threshold and self.how in ("inner", "left"):
                out_chunks = self._tile_broadcast(
                    ctx, left_chunks, right_chunks, broadcast_right=True
                )
            elif left_est <= threshold and self.how in ("inner", "right"):
                out_chunks = self._tile_broadcast(
                    ctx, right_chunks, left_chunks, broadcast_right=False
                )
            else:
                # a reducer holds both sides' partitions plus the join
                # output, which is wider than either input: size
                # partitions for ~3x the input bytes so a reducer's
                # working set stays near one chunk
                n_parts = int(np.clip(
                    math.ceil(3.0 * (left_est + right_est) / threshold),
                    2, 4 * ctx.config.cluster.n_bands,
                ))
                cuts = yield from range_cuts(
                    ctx, [(c, self.left_on[0]) for c in left_chunks]
                    + [(c, self.right_on[0]) for c in right_chunks], n_parts)
                out_chunks = self._tile_shuffle(
                    left_chunks, right_chunks, cuts, n_parts)
        else:
            # static plan: hash-shuffle both sides, one partition per
            # large-side chunk — the skew-prone baseline strategy
            n_parts = max(len(left_chunks), len(right_chunks))
            out_chunks = self._tile_shuffle(
                left_chunks, right_chunks, [], n_parts)

        n_cols = len(self.out_columns) if self.out_columns is not None else None
        return [(out_chunks,
                 nsplits_from_chunks(ctx, out_chunks, "dataframe", n_cols))]

    # -- broadcast strategy ------------------------------------------------------
    def _tile_broadcast(self, ctx: TileContext, big: list[ChunkData],
                        small: list[ChunkData], broadcast_right: bool):
        if len(small) == 1:
            small_all = small[0]
        else:
            concat_op = ConcatChunks()
            small_all = concat_op.new_chunk(
                small, "dataframe", (None, small[0].shape[-1]),
                chunk_index("dataframe", 0), columns=small[0].columns,
            )
        return [self._merge_chunk([chunk, small_all], i,
                                  swapped=not broadcast_right)
                for i, chunk in enumerate(big)]

    # -- shuffle strategy ----------------------------------------------------------
    def _tile_shuffle(self, left_chunks, right_chunks, cuts: list,
                      n_parts: int):
        """Co-partition both sides into the ranges ``cuts`` bound, or,
        without cuts, by key hash into ``n_parts``; merge each pair."""
        if cuts:
            n_parts = len(cuts) + 1
        # a missing key matches nothing: a side whose unmatched rows the
        # join discards drops its NA-key rows before they are shuffled
        left_parts = fan_out(left_chunks, n_parts, key=self.left_on[0],
                             boundaries=cuts or None,
                             drop_na=self.how in ("inner", "right"))
        right_parts = fan_out(right_chunks, n_parts, key=self.right_on[0],
                              boundaries=cuts or None,
                              drop_na=self.how in ("inner", "left"))
        return [self._merge_chunk(left_parts[r] + right_parts[r], r,
                                  n_left=len(left_parts[r]))
                for r in range(n_parts)]

    def _merge_chunk(self, inputs: list[ChunkData], position: int,
                     **params) -> ChunkData:
        merge_op = MergeChunk(how=self.how, left_on=self.left_on,
                              right_on=self.right_on, suffixes=self.suffixes,
                              **params)
        return merge_op.new_chunk(inputs, "dataframe", (None, None),
                                  chunk_index("dataframe", position),
                                  columns=self.out_columns)

    def execute(self, ctx: ExecContext):  # tileable-level op never executes
        raise NotImplementedError


class MergeChunk(Operator):
    """Local merge of co-partitioned (or broadcast) chunk pairs. A side
    that is a filter's selection is joined through its rows: its keys
    are read at the selected length and each output column is gathered
    once, through the rows composed with the join's indexer."""

    reads_selection = True

    def __init__(self, how: str, left_on, right_on, suffixes,
                 swapped: bool = False, n_left: int | None = None, **params):
        super().__init__(**params)
        self.how = how
        self.left_on = list(left_on)
        self.right_on = list(right_on)
        self.suffixes = tuple(suffixes)
        self.swapped = swapped
        self.n_left = n_left

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        if self.n_left is not None:
            # shuffle partitions come from storage: always frames
            left_parts = values[: self.n_left]
            right_parts = values[self.n_left:]
            left = concat(left_parts, ignore_index=True) if len(left_parts) > 1 \
                else left_parts[0]
            right = concat(right_parts, ignore_index=True) if len(right_parts) > 1 \
                else right_parts[0]
        elif self.swapped:
            right, left = values[0], values[1]
        else:
            left, right = values[0], values[1]
        same = self.left_on == self.right_on
        return frame_merge(
            left, right,
            how=self.how,
            on=self.left_on if same else None,
            left_on=None if same else self.left_on,
            right_on=None if same else self.right_on,
            suffixes=self.suffixes,
        )
