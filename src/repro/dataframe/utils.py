"""Shared helpers for distributed dataframe operators: row alignment,
auto merge of small chunks, and chunk construction shortcuts."""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.operator import ExecContext, Operator, TileContext
from ..errors import TilingError
from ..engine.local import concat
from ..graph.entity import ChunkData


#: how many head chunks dynamic tiling executes to collect metadata.
SAMPLE_CHUNKS = 2


def spread_sample(chunks: Sequence[ChunkData], k: int) -> list[ChunkData]:
    """Pick ~k chunks evenly spread over the chunk list.

    Sampling only the *first* chunks biases range-partition boundaries
    catastrophically when the key is laid out monotonically across chunks
    (e.g. a generated order-key column): every cut would fall in the low
    keys and one reducer would receive almost all rows.
    """
    n = len(chunks)
    if n <= k:
        return list(chunks)
    positions = sorted({
        min(int(round(i * (n - 1) / max(k - 1, 1))), n - 1) for i in range(k)
    })
    return [chunks[p] for p in positions]


def chunk_index(kind: str, i: int) -> tuple:
    """Row-wise distributed index for position ``i`` (Fig. 4)."""
    return (i, 0) if kind == "dataframe" else (i,)


def _rows_of(meta, chunk: ChunkData) -> Optional[int]:
    """Row count from a (possibly absent) meta, falling back to the
    chunk's declared shape."""
    if meta is not None and meta.shape:
        return int(meta.shape[0])
    if chunk.shape and chunk.shape[0] is not None:
        return int(chunk.shape[0])
    return None


def row_count(ctx: TileContext, chunk: ChunkData) -> Optional[int]:
    """Known row count of a chunk (meta first, declared shape second)."""
    return _rows_of(ctx.meta.get(chunk.key), chunk)


def row_counts(ctx: TileContext,
               chunks: Sequence[ChunkData]) -> list[Optional[int]]:
    """Known row counts for a chunk list — one meta round-trip, not one
    per chunk."""
    metas = ctx.chunk_metas(chunks)
    return [_rows_of(meta, chunk) for meta, chunk in zip(metas, chunks)]


def known_splits(ctx: TileContext, chunks: Sequence[ChunkData]) -> Optional[list[int]]:
    """Row counts of every chunk, or None if any is unknown."""
    sizes = row_counts(ctx, chunks)
    if any(n is None for n in sizes):
        return None
    return sizes


class ConcatChunks(Operator):
    """Concatenate several row chunks into one (the auto-merge kernel)."""

    def execute(self, ctx: ExecContext):
        pieces = [ctx.get(c.key) for c in self.inputs]
        if len(pieces) == 1:
            return pieces[0]
        return concat(pieces)


class SliceRows(Operator):
    """Positional row slice of one chunk: params start/stop."""

    is_lightweight = True

    def execute(self, ctx: ExecContext):
        value = ctx.get(self.inputs[0].key)
        start, stop = self.params["start"], self.params["stop"]
        return value.iloc[start:stop]


def auto_merge_chunks(ctx: TileContext, chunks: list[ChunkData],
                      kind: str) -> list[ChunkData]:
    """Auto merge (Section IV-C): concatenate adjacent small chunks until
    each merged chunk approaches the configured chunk-size limit.

    Requires executed metadata (byte sizes); chunks without metadata are
    passed through untouched. Disabled via ``config.auto_merge``.
    """
    if not ctx.config.auto_merge or len(chunks) <= 1:
        return list(chunks)
    limit = ctx.config.chunk_store_limit
    sizes = ctx.chunk_nbytes_many(chunks, default=-1)
    if any(s < 0 for s in sizes):
        return list(chunks)

    merged: list[ChunkData] = []
    batch: list[ChunkData] = []
    batch_bytes = 0
    for chunk, nbytes in zip(chunks, sizes):
        if batch and batch_bytes + nbytes > limit:
            merged.append(_merge_batch(batch, kind, len(merged)))
            batch, batch_bytes = [], 0
        batch.append(chunk)
        batch_bytes += nbytes
    if batch:
        merged.append(_merge_batch(batch, kind, len(merged)))
    if len(merged) == len(chunks):
        return list(chunks)  # nothing actually merged; keep original indices
    return merged


def _merge_batch(batch: list[ChunkData], kind: str, position: int) -> ChunkData:
    if len(batch) == 1:
        chunk = batch[0]
        return ChunkData(chunk.kind, chunk.shape, chunk_index(kind, position),
                         op=chunk.op if chunk.op is not None else None,
                         dtype=chunk.dtype, columns=chunk.columns,
                         key=chunk.key)
    op = ConcatChunks()
    rows = 0
    unknown = False
    for chunk in batch:
        if chunk.shape and chunk.shape[0] is not None:
            rows += chunk.shape[0]
        else:
            unknown = True
    shape: tuple
    if batch[0].kind == "dataframe":
        cols = batch[0].shape[1] if len(batch[0].shape) > 1 else None
        shape = (None if unknown else rows, cols)
    else:
        shape = (None if unknown else rows,)
    return op.new_chunk(batch, batch[0].kind, shape,
                        chunk_index(kind, position),
                        dtype=batch[0].dtype, columns=batch[0].columns)


def align_rows(ctx: TileContext, chunk_lists: list[list[ChunkData]],
               kinds: list[str]):
    """Align several tileables' chunks to a common row partitioning.

    A generator (usable with ``yield from``): when chunk counts differ and
    row extents are unknown, it yields the chunks for execution first
    (dynamic tiling), then rebuilds the smaller-granularity side.

    Returns (via StopIteration value) the aligned ``chunk_lists``.
    """
    counts = {len(chunks) for chunks in chunk_lists}
    if len(counts) == 1:
        splits = [known_splits(ctx, chunks) for chunks in chunk_lists]
        known = [s for s in splits if s is not None]
        if len(known) <= 1 or all(s == known[0] for s in known):
            return chunk_lists

    if not ctx.config.dynamic_tiling:
        raise TilingError(
            "cannot align differently-partitioned inputs without dynamic tiling"
        )
    flat = [c for chunks in chunk_lists for c in chunks]
    pending = [c for c, n in zip(flat, row_counts(ctx, flat)) if n is None]
    if pending:
        yield pending
    splits = [known_splits(ctx, chunks) for chunks in chunk_lists]
    if any(s is None for s in splits):
        raise TilingError("row extents still unknown after execution")
    target = splits[0]
    aligned = [chunk_lists[0]]
    for chunks, split in zip(chunk_lists[1:], splits[1:]):
        if split == target:
            aligned.append(chunks)
        else:
            if sum(split) != sum(target):
                raise TilingError(
                    f"cannot align inputs of {sum(split)} and {sum(target)} rows"
                )
            aligned.append(_repartition(chunks, split, target,
                                        kinds[len(aligned)]))
    return aligned


def _repartition(chunks: list[ChunkData], splits: list[int],
                 target: list[int], kind: str) -> list[ChunkData]:
    """Cut ``chunks`` (with known ``splits``) into the ``target`` layout."""
    out: list[ChunkData] = []
    src = 0          # current source chunk
    offset = 0       # consumed rows of the current source chunk
    for position, need in enumerate(target):
        pieces: list[ChunkData] = []
        remaining = need
        while remaining > 0:
            available = splits[src] - offset
            take = min(available, remaining)
            if take == splits[src] and offset == 0:
                pieces.append(chunks[src])
            else:
                op = SliceRows(start=offset, stop=offset + take)
                pieces.append(op.new_chunk(
                    [chunks[src]], chunks[src].kind,
                    _sliced_shape(chunks[src], take),
                    chunk_index(kind, position),
                    dtype=chunks[src].dtype, columns=chunks[src].columns,
                ))
            offset += take
            remaining -= take
            if offset >= splits[src]:
                src += 1
                offset = 0
        if len(pieces) == 1:
            out.append(pieces[0])
        else:
            concat_op = ConcatChunks()
            out.append(concat_op.new_chunk(
                pieces, pieces[0].kind, _sliced_shape(pieces[0], need),
                chunk_index(kind, position),
                dtype=pieces[0].dtype, columns=pieces[0].columns,
            ))
    return out


def _sliced_shape(chunk: ChunkData, rows: int) -> tuple:
    if chunk.kind == "dataframe":
        cols = chunk.shape[1] if len(chunk.shape) > 1 else None
        return (rows, cols)
    return (rows,)


def nsplits_from_chunks(ctx: TileContext, chunks: Sequence[ChunkData],
                        kind: str, n_cols: Optional[int] = None) -> tuple:
    """Build the output ``nsplits`` tuple from (possibly unknown) chunks."""
    rows = tuple(row_counts(ctx, chunks))
    if kind == "dataframe":
        return (rows, (n_cols,))
    return (rows,)
