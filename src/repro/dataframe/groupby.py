"""Distributed groupby-aggregate: the paper's flagship multi-stage operator.

``GroupByAgg`` runs as map → (combine|shuffle) → reduce (Section III-C):

- **map**: each input chunk aggregates locally, producing one small
  partial frame per chunk with decomposed aggregates (mean becomes
  sum+count, var becomes sum+sumsq+count, ...);
- **auto reduce selection** (Section IV-C, Fig. 6a): dynamic tiling
  executes the first few map chunks, reads the real aggregated size from
  the meta service, and picks *tree-reduce* when the aggregate is small
  or *shuffle-reduce* (range-partitioned by group key, boundaries sampled
  from the executed chunks) when it is large;
- **combine**: tree-reduce pre-aggregates ``COMBINE_ARITY`` chunks at a
  time so no single worker receives everything at once;
- **reduce**: merges partials and finalizes derived statistics.

With dynamic tiling disabled the operator falls back to the static rule
the paper attributes to existing systems — always tree-reduce into one
node — which is exactly what overwhelms a worker when the aggregate
turns out to be large.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from ..core.operator import (
    COMBINE_DROPPED_KEY,
    ExecContext,
    Operator,
    TileContext,
)
from ..engine.local import (
    DataFrame,
    Series,
    _how_name,
    aggregate_sorted,
    concat,
    dtypes,
    group_rows,
)
from ..graph.entity import ChunkData
from ..utils import combine_tree
from .shuffle import ShufflePartition, fan_out, range_cuts
from .utils import SAMPLE_CHUNKS, auto_merge_chunks, chunk_index, spread_sample

#: aggregations this operator can decompose for distributed execution.
DISTRIBUTABLE = (
    "sum", "mean", "min", "max", "count", "size", "std", "var",
    "nunique", "first", "last", "median", "any", "all",
)


def normalize_agg_spec(spec, value_columns: Sequence, named: dict | None = None):
    """Normalize user agg input to ``[(out_name, col, how), ...]``."""
    named = named or {}
    plan: list[tuple] = []
    if named:
        for out_name, (col, how) in named.items():
            plan.append((out_name, col, how))
        return plan
    if isinstance(spec, str):
        for col in value_columns:
            plan.append((col, col, spec))
        return plan
    if isinstance(spec, dict):
        multi = any(isinstance(v, (list, tuple)) for v in spec.values())
        for col, hows in spec.items():
            if isinstance(hows, (list, tuple)):
                for how in hows:
                    plan.append(((col, _how_name(how)), col, how))
            else:
                plan.append(((col, _how_name(hows)) if multi else col, col, hows))
        return plan
    if isinstance(spec, (list, tuple)):
        for col in value_columns:
            for how in spec:
                plan.append(((col, _how_name(how)), col, how))
        return plan
    raise TypeError(f"unsupported agg spec {spec!r}")


def _partial_columns(i: int, how: str) -> list[tuple[str, str]]:
    """(internal partial column name, merge function) pairs for one agg."""
    base = f"__agg{i}"
    if how == "sum":
        return [(f"{base}_sum", "sum")]
    if how == "count":
        return [(f"{base}_count", "sum")]
    if how == "size":
        return [(f"{base}_size", "sum")]
    if how == "min":
        return [(f"{base}_min", "min")]
    if how == "max":
        return [(f"{base}_max", "max")]
    if how == "mean":
        return [(f"{base}_sum", "sum"), (f"{base}_count", "sum")]
    if how in ("var", "std"):
        return [(f"{base}_sum", "sum"), (f"{base}_sumsq", "sum"),
                (f"{base}_count", "sum")]
    if how == "nunique":
        return [(f"{base}_set", "__union")]
    if how == "median":
        return [(f"{base}_list", "__concat")]
    if how == "first":
        return [(f"{base}_first", "first")]
    if how == "last":
        return [(f"{base}_last", "last")]
    if how == "any":
        return [(f"{base}_any", "max")]
    if how == "all":
        return [(f"{base}_all", "min")]
    raise ValueError(f"aggregation {how!r} cannot be distributed")


def _union_sets(series) -> frozenset:
    out: set = set()
    for value in series.values:
        if value is not None:
            out |= value
    return frozenset(out)


def _concat_lists(series) -> list:
    out: list = []
    for value in series.values:
        if value is not None:
            out.extend(value)
    return out


_MERGES = {"__union": _union_sets, "__concat": _concat_lists}


def merge_partial_frames(partials: list[DataFrame], by: Sequence,
                         plan: Sequence[tuple], tighten: bool) -> DataFrame:
    """Merge map-stage partial frames by group key.

    Shared by the combine/reduce stages and by mapper-side combine in
    :class:`GroupByPartition`: both fold duplicate keys with each partial
    column's merge function (sums add, mins min, sets union, lists
    concatenate), preserving row order within a key so order-sensitive
    partials (first/last) keep their meaning.  A lone object key is
    tightened (``group_rows``) only with ``tighten``: by the one stage
    that sees every key.
    """
    merged = concat(partials, ignore_index=True) if len(partials) > 1 \
        else partials[0]
    keys, starts, take = group_rows(merged, by, tighten)
    data = dict(zip(by, keys))
    for i, (_out, _col, how) in enumerate(plan):
        for partial_name, merge_how in _partial_columns(i, how):
            data[partial_name] = aggregate_sorted(
                take(partial_name), starts, _MERGES.get(merge_how, merge_how))
    return DataFrame(data)


class GroupByAgg(Operator):
    """Tileable-level groupby.agg; also the class of its stage chunk ops.

    The map stage reads a filter's selection through its rows; the other
    stages read map partials, which are always frames.

    A lone object key is tightened as ``repro.frame`` tightens it
    (``int64`` or ``float64`` when every key is exact there) by the stage
    that sees every key: the tree's final node, or for a shuffle reduce,
    whose nodes each hold a range of keys, the tiler, which joins the
    census each map partial takes of its keys (``dtypes.number_census``)
    and hands each node the dtype as ``key_dtype``.  Map partials,
    combines and shuffle maps keep the cells as they are.
    """

    reads_selection = True

    def __init__(self, by: Sequence, plan: Sequence[tuple],
                 as_index: bool = True, key_dtype: str | None = None,
                 **params):
        super().__init__(**params)
        self.by = list(by)
        self.plan = [tuple(p) for p in plan]
        self.as_index = as_index
        self.key_dtype = key_dtype

    # -- optimizer hooks ---------------------------------------------------
    def input_column_requirements(self, required):
        # every aggregate stays in the schema whoever reads it, so the
        # input needs the keys and each aggregate's column
        needed = set(self.by) | {col for _, col, _ in self.plan}
        return [sorted(needed, key=str)]

    # -- tiling ----------------------------------------------------------------
    def tile(self, ctx: TileContext):
        in_chunks = list(self.inputs[0].chunks)
        map_chunks = [self._new_stage_chunk([c], self.STAGE_MAP, i)
                      for i, c in enumerate(in_chunks)]

        boundaries = None  # sampled cuts, when the reduce shuffles
        if ctx.config.dynamic_tiling and len(map_chunks) > 1:
            sample = spread_sample(map_chunks, SAMPLE_CHUNKS)
            yield sample
            sampled_bytes = ctx.chunk_nbytes_many(sample, default=0)
            mean_bytes = sum(sampled_bytes) / max(len(sampled_bytes), 1)
            est_total = mean_bytes * len(map_chunks)
            if est_total > ctx.config.tree_reduce_threshold:
                n_reducers = int(np.clip(
                    math.ceil(est_total / ctx.config.chunk_store_limit),
                    2, 2 * ctx.config.cluster.n_bands,
                ))
                # the cuts read every map chunk, so run them all now;
                # this only trades pipeline overlap
                yield map_chunks
                boundaries = yield from range_cuts(
                    ctx, [(c, self.by[0]) for c in map_chunks], n_reducers)
                key_dtype = self._key_dtype(ctx, map_chunks)
                # auto merge (Section IV-C): with real sizes known, glue
                # undersized map partials together so the shuffle stage
                # dispatches fewer, right-sized chunks
                map_chunks = auto_merge_chunks(ctx, map_chunks, "dataframe")

        if boundaries is not None:
            partitions = fan_out(map_chunks, len(boundaries) + 1,
                                 GroupByPartition, by=self.by,
                                 boundaries=boundaries, plan=self.plan)
            out_chunks = [self._new_stage_chunk(part, self.STAGE_REDUCE, r,
                                                {"key_dtype": key_dtype})
                          for r, part in enumerate(partitions)]
        else:
            out_chunks = self._tile_tree(ctx, map_chunks)

        n_cols = len(self.plan)
        nsplits = (tuple(None for _ in out_chunks), (n_cols,))
        return [(out_chunks, nsplits)]

    def _key_dtype(self, ctx: TileContext, map_chunks: list[ChunkData]
                   ) -> str | None:
        """The dtype a lone object key tightens to over every key, by
        name, joined from the map partials' censuses; ``None`` when no
        partial holds an object key."""
        censuses = [meta.extra["key_census"]
                    for meta in ctx.chunk_metas(map_chunks)
                    if meta is not None and "key_census" in meta.extra]
        return dtypes.tightened_dtype(censuses).name if censuses else None

    def _new_stage_chunk(self, inputs: list[ChunkData], stage: str,
                         position: int, extra: dict | None = None) -> ChunkData:
        op = GroupByAgg(by=self.by, plan=self.plan, as_index=self.as_index,
                        **(extra or {}))
        op.stage = stage
        columns = (
            [out for out, _, __ in self.plan] if stage == self.STAGE_REDUCE
            else None
        )
        return op.new_chunk(
            inputs, "dataframe", (None, len(self.plan)),
            chunk_index("dataframe", position), columns=columns,
        )

    def _tile_tree(self, ctx: TileContext, map_chunks: list[ChunkData]):
        """Tree-reduce: combine in batches, then one final reduce node."""
        level = map_chunks
        if ctx.config.combine_stage:
            positions = itertools.count()
            level = combine_tree(level, lambda batch, _j: self._new_stage_chunk(
                batch, self.STAGE_COMBINE, next(positions)))
        return [self._new_stage_chunk(level, self.STAGE_REDUCE, 0)]

    # -- execution ---------------------------------------------------------------
    def execute(self, ctx: ExecContext):
        if self.stage == self.STAGE_MAP:
            frame = ctx.get(self.inputs[0].key)
            result = self._execute_map(frame)
            keys = result[self.by[0]].values
            if len(self.by) == 1 and dtypes.is_object(keys.dtype) and len(keys):
                # what the tiler joins into a shuffle reduce's key dtype
                ctx.annotate(self.outputs[0].key,
                             key_census=dtypes.number_census(keys))
            return result
        partials = [ctx.get(c.key) for c in self.inputs]
        partials = [p for p in partials if len(p) > 0]
        if not partials:
            return self._empty_result()
        final = self.stage == self.STAGE_REDUCE
        merged = merge_partial_frames(partials, self.by, self.plan,
                                      final and self.key_dtype is None)
        return self._finalize(merged) if final else merged

    def _execute_map(self, frame) -> DataFrame:
        """The partials of one chunk — a frame, or a filter's selection
        read through its rows: the keys grouped, then each value column
        moved once, into group order, and reduced per partial."""
        keys, starts, take = group_rows(frame, self.by, tighten=False)
        data = dict(zip(self.by, keys))
        in_order: dict = {}  # column -> its values in group order
        for i, (_out, col, how) in enumerate(self.plan):
            if col not in in_order:
                in_order[col] = take(col)
            values = in_order[col]
            for partial_name, _merge in _partial_columns(i, how):
                stat = partial_name.rsplit("_", 1)[1]
                if stat == "sumsq":
                    squared = Series(values) * Series(values)
                    data[partial_name] = aggregate_sorted(
                        squared.values, starts, "sum")
                else:
                    data[partial_name] = aggregate_sorted(
                        values, starts, _map_stat_func(stat))
        return DataFrame(data)

    def _finalize(self, merged: DataFrame) -> DataFrame:
        out = DataFrame({})
        for key in self.by:
            out[key] = merged[key] if self.key_dtype is None \
                else merged[key].astype(self.key_dtype)
        for i, (out_name, _col, how) in enumerate(self.plan):
            base = f"__agg{i}"
            if how == "mean":
                out[out_name] = merged[f"{base}_sum"] / merged[f"{base}_count"]
            elif how in ("var", "std"):
                n = merged[f"{base}_count"].astype(np.float64)
                s = merged[f"{base}_sum"].astype(np.float64)
                sq = merged[f"{base}_sumsq"].astype(np.float64)
                var = (sq - s * s / n) / (n - 1.0)
                var = var.where(n > 1.0, np.nan).clip(lower=0.0)
                out[out_name] = var if how == "var" else var ** 0.5
            elif how == "nunique":
                out[out_name] = merged[f"{base}_set"].map(len)
            elif how == "median":
                out[out_name] = merged[f"{base}_list"].map(
                    lambda values: float(np.median(values)) if values else np.nan
                )
            elif how == "any":
                out[out_name] = merged[f"{base}_any"].astype(bool)
            elif how == "all":
                out[out_name] = merged[f"{base}_all"].astype(bool)
            else:
                suffix = _partial_columns(i, how)[0][0]
                out[out_name] = merged[suffix]
        if self.as_index:
            return out.set_index(self.by if len(self.by) > 1 else self.by[0])
        return out

    def _empty_result(self) -> DataFrame:
        data: dict = {key: [] for key in self.by}
        for out_name, _col, _how in self.plan:
            data[out_name] = []
        frame = DataFrame(data)
        if self.as_index:
            return frame.set_index(self.by if len(self.by) > 1 else self.by[0])
        return frame


def _map_stat_func(stat: str):
    """Per-chunk aggregation function for one partial statistic."""
    if stat == "set":
        return lambda s: frozenset(s.dropna().values.tolist())
    if stat == "list":
        return lambda s: s.dropna().values.tolist()
    if stat == "any":
        return "any"
    if stat == "all":
        return "all"
    return stat


class GroupByPartition(ShufflePartition):
    """Shuffle map of a map-stage partial frame, by the first group key.

    Sampled boundaries give reducers balanced, ordered key ranges, so
    the concatenated result is globally key-sorted. With ``plan`` it
    folds duplicate keys before splitting (mapper-side combine).
    """

    def __init__(self, by: Sequence, boundaries: list, shuffle_id: str,
                 plan: Sequence[tuple] | None = None, **params):
        super().__init__(by[0], boundaries, shuffle_id, **params)
        self.by = list(by)
        self.plan = [tuple(p) for p in plan] if plan is not None else None

    def execute(self, ctx: ExecContext):
        frame = ctx.get(self.inputs[0].key)
        # mapper-side combine: auto merge glues map partials together
        # *without* re-aggregating, so a merged chunk carries duplicate
        # group keys. Folding them here — before the partitions hit
        # storage — shrinks shuffle bytes with key cardinality.
        if (self.plan is not None and ctx.config.mapper_side_combine
                and len(frame) > 0):
            combined = merge_partial_frames([frame], self.by, self.plan,
                                            tighten=False)
            dropped = len(frame) - len(combined)
            if dropped > 0:
                ctx.annotate(self.outputs[0].key,
                             **{COMBINE_DROPPED_KEY: dropped})
                frame = combined
        return self._split(ctx, frame)
