"""The range shuffle behind merge, groupby and sort (Section IV-C): one
boundary sampler, one shuffle map, one fan-out. Each operator keeps its
own decisions: whether to shuffle, into how many partitions, and what to
do when the sample cuts nothing.
"""

from __future__ import annotations

import math

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import dtypes
from ..graph.entity import ChunkData
from ..utils import new_key

#: key values sampled across all chunks, and the fewest per chunk.
SAMPLE_VALUES = 4000
MIN_PER_CHUNK = 20


def range_cuts(ctx: TileContext, sample: list[tuple[ChunkData, object]],
               n_parts: int):
    """Strictly increasing cut points splitting ``sample``'s keys into
    at most ``n_parts`` ranges of about equal rows, as Python scalars.

    A generator: ``cuts = yield from range_cuts(...)`` first yields the
    chunks not stored yet. Every chunk is read with a stride, since keys
    laid out contiguously across chunks (generated ids, pre-sorted
    input) leave whole spans unsampled when only a few chunks, or a
    chunk's head, are read. Missing keys order with nothing and are
    dropped; duplicate cuts collapse, to none when nothing was sampled.
    """
    pending = [chunk for chunk, _ in sample if not ctx.has_value(chunk.key)]
    if pending:
        yield pending
    per_chunk = max(SAMPLE_VALUES // max(len(sample), 1), MIN_PER_CHUNK)
    collected: list = []
    for chunk, key in sample:
        frame = ctx.peek(chunk.key)
        if key not in frame.columns.to_list():
            continue  # an empty chunk may carry no columns
        values = frame[key].values
        if len(values) > per_chunk:
            values = values[::len(values) // per_chunk]
        collected.extend(v for v in values.tolist() if not is_missing(v))
    if not collected:
        return []
    collected.sort()
    cuts: list = []
    for r in range(1, n_parts):
        cut = collected[min(len(collected) * r // n_parts,
                            len(collected) - 1)]
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)  # a duplicate would leave an empty range
    return cuts


def is_missing(value) -> bool:
    """A missing key cell: ``None`` or a float NaN."""
    return value is None or (isinstance(value, float) and math.isnan(value))


class ShufflePartition(Operator):
    """Shuffle map: split one chunk into one output per partition, by
    key range, or by key hash when ``boundaries`` is ``None``.

    With ``drop_na`` the rows whose key is missing are dropped first: a
    join side whose unmatched rows the join discards sends them nowhere
    (kept, they would all go to the last range)."""

    is_shuffle_map = True

    def __init__(self, key, boundaries: list | None, shuffle_id: str,
                 drop_na: bool = False, **params):
        super().__init__(**params)
        self.key = key
        self.boundaries = boundaries
        self.shuffle_id = shuffle_id
        self.drop_na = drop_na

    def execute(self, ctx: ExecContext):
        return self._split(ctx, ctx.get(self.inputs[0].key))

    def _split(self, ctx: ExecContext, frame):
        if self.drop_na:
            frame = self._without_missing(frame)
        engine = ctx.engine
        n_parts = len(self.outputs)
        if self.boundaries is None:
            assignment = engine.hash_partition(frame, self.key, n_parts)
        else:
            assignment = engine.range_partition(frame, self.key,
                                                self.boundaries)
        parts = engine.split(frame, assignment, n_parts)
        return {chunk.key: parts[r] for r, chunk in enumerate(self.outputs)}

    def _without_missing(self, frame):
        """``frame`` without the rows whose key is missing."""
        if self.key not in frame:
            return frame
        missing = dtypes.isna_array(frame[self.key].values)
        return frame[~missing] if missing.any() else frame


def fan_out(chunks: list[ChunkData], n_parts: int,
            op_type: type = ShufflePartition,
            **op_params) -> list[list[ChunkData]]:
    """Shuffle ``chunks`` into ``n_parts`` partitions: one
    ``op_type(shuffle_id=..., **op_params)`` map per chunk, all writing
    one shuffle dataset. Returns ``partitions[r]``, reducer ``r``'s
    inputs in chunk order."""
    shuffle_id = new_key("shuffle")
    partitions: list[list[ChunkData]] = [[] for _ in range(n_parts)]
    for m, chunk in enumerate(chunks):
        specs = [{"kind": "dataframe", "shape": (None, None), "index": (m, r)}
                 for r in range(n_parts)]
        outs = op_type(shuffle_id=shuffle_id, **op_params).new_chunks(
            [chunk], specs)
        for r, out in enumerate(outs):
            partitions[r].append(out)
    return partitions
