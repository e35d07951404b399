"""The dynamic tiling engine (Section IV).

Tiling an operator may require metadata that only exists after part of
the graph has run (output sizes of non-static operators). Operators
therefore implement ``tile`` as a generator: when they need real
metadata they ``yield`` the chunks whose execution would produce it. The
engine pauses tiling, submits exactly those chunks (plus their
unexecuted ancestors) to the executor, records the resulting metadata,
refreshes the yielded chunks' shapes, and resumes the generator at the
same point — the switch between graph construction and graph execution
that the paper identifies as Xorbits' key differentiator.

The switch must not pay for metadata by recomputing data: the engine
tells the lifecycle service who reads each chunk as the plan takes shape
(``_plan``), so what one yield materialized stays until its last reader.

With ``config.dynamic_tiling`` disabled (the ablation of Fig. 9a),
operators must not yield; they fall back to static, source-size-based
estimates, reproducing the behaviour the paper criticizes in
Dask/Modin-style planners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..config import Config
from ..errors import TilingError
from ..graph.dag import DAG
from ..graph.entity import ChunkData, TileableData
from ..services.lifecycle import PLAN_RESULT
from .executor import GraphExecutor
from .operator import TileContext, run_tile

if TYPE_CHECKING:
    from .meta import MetaService


def build_tileable_graph(
        results: Sequence[TileableData],
        graph: DAG[TileableData] | None = None) -> DAG[TileableData]:
    """The logical plan: every ancestor of the requested results.

    Tileables that are already tiled act as sources — their producing ops
    are not re-entered. Given a ``graph``, extends it in place with the
    ancestors of ``results`` (nodes of it that pruning just un-tiled).
    """
    if graph is None:
        graph = DAG()
    stack = list(results)
    seen: set[str] = set()
    while stack:
        node = stack.pop()
        if node.key in seen:
            continue
        seen.add(node.key)
        graph.add_node(node)
        if node.is_tiled:
            continue  # cached from an earlier execution
        for dep in node.inputs:
            graph.add_edge(dep, node)
            stack.append(dep)
    return graph


def chunk_closure(chunks: Iterable[ChunkData], is_materialized,
                  is_read=None) -> DAG[ChunkData]:
    """Chunk graph containing ``chunks`` and their unexecuted ancestors.

    ``is_materialized(key)`` marks chunks whose values already sit in
    storage: they are included as source nodes but not expanded further.
    An operator runs once, for all of its outputs: the closure of one
    holds the siblings somebody reads too (a shuffle mapper stores every
    reducer's partition even when this graph reads only two of them).
    ``is_read(key)`` says which those are; without it all of them.
    """
    graph: DAG[ChunkData] = DAG()
    stack = list(chunks)
    seen: set[str] = set()
    while stack:
        node = stack.pop()
        if node.key in seen:
            continue
        seen.add(node.key)
        graph.add_node(node)
        if is_materialized(node.key):
            continue
        for dep in node.inputs:
            graph.add_edge(dep, node)
            stack.append(dep)
        if node.op is not None and len(node.op.outputs) > 1:
            stack.extend(out for out in node.op.outputs
                         if is_read is None or is_read(out.key))
    return graph


class TilingEngine:
    """Drives operator ``tile`` generators over a tileable graph."""

    def __init__(self, executor: GraphExecutor, meta: MetaService,
                 config: Config):
        self.executor = executor
        self.meta = meta
        self.config = config
        #: how many mid-tiling executions the engine performed (observable
        #: in tests and the ablation study).
        self.yield_count = 0
        #: the plan being tiled: who reads each tileable's chunks (its
        #: consumers' operators until they are tiled, the caller for a
        #: result), the chunk operators whose reads are named, and the
        #: chunk keys named as read so far.
        self._readers: dict[TileableData, list] = {}
        self._named: set = set()
        self._read: set[str] = set()

    def _closure(self, chunks: Iterable[ChunkData]) -> DAG[ChunkData]:
        """:func:`chunk_closure` against what storage holds right now —
        one ``all_keys`` message, not one ``contains`` per chunk."""
        stored = set(self.executor.storage.all_keys())
        return chunk_closure(chunks, stored.__contains__,
                             self._read.__contains__)

    # ------------------------------------------------------------------
    def tile(self, tileable_graph: DAG[TileableData],
             results: Sequence[TileableData]) -> DAG[ChunkData]:
        """Tile every operator; returns the complete chunk graph.

        Dynamic switches to execution happen along the way; on return the
        remaining (not-yet-executed) chunks still need one final
        ``executor.execute`` pass, which the session performs.
        """
        ctx = TileContext(self.config, self.meta,
                          storage=self.executor.storage,
                          executor=self.executor)
        self._readers = {
            tileable: [s.op for s in tileable_graph.successors(tileable)]
            + [PLAN_RESULT] * (tileable in results)
            for tileable in tileable_graph
        }
        self._named, self._read = set(), set()
        for tileable in tileable_graph.topological_order():
            if tileable.is_tiled or tileable.op is None:
                self._plan_tiled([tileable])  # a source of this plan
            else:
                self._tile_one(tileable.op, ctx)
        return self._closure(c for t in results for c in t.chunks)

    # ------------------------------------------------------------------
    def _tile_one(self, op, ctx: TileContext) -> None:
        gen = run_tile(op, ctx)
        asked: list[str] = []  # every chunk key ``op`` yielded so far
        ctx.yielded = set()
        while True:
            try:
                yielded = next(gen)
            except StopIteration as stop:
                self._attach_outputs(op, stop.value)
                # tiled: ``op`` is done with its inputs and its yields.
                inputs = [c.key for dep in op.inputs for c in dep.chunks]
                self._plan_tiled(op.outputs, done=[(op, inputs + asked)])
                return
            if not self.config.dynamic_tiling:
                raise TilingError(
                    f"{type(op).__name__} yielded for execution but dynamic "
                    "tiling is disabled; operators must branch on "
                    "ctx.config.dynamic_tiling"
                )
            chunks = list(yielded)
            asked += [chunk.key for chunk in chunks]
            ctx.yielded.update(asked)
            # ``op`` may build its output chunks on what it yields.
            self._plan(chunks, [(op, asked)])
            self._execute_partial(chunks)

    def _plan_tiled(self, tileables, done=()) -> None:
        """``tileables`` have chunks now: their readers read those (an
        output the plan does not contain — the Q nobody asked a QR for —
        has none, and neither have the chunks behind it)."""
        tileables = [t for t in tileables if t in self._readers]
        self._plan(
            [chunk for t in tileables for chunk in t.chunks],
            [(reader, [chunk.key for chunk in t.chunks])
             for t in tileables for reader in self._readers[t]],
            done)

    def _plan(self, chunks, reads, done=()) -> None:
        """Tell the lifecycle service the plan grew by ``chunks``: the
        given ``reads``, plus every chunk operator behind them not named
        before reading its inputs — and which readers are ``done``."""
        reads = list(reads)
        stack = list(chunks)
        while stack:
            op = stack.pop().op
            if op is not None and op not in self._named:
                self._named.add(op)
                reads.append((op, [dep.key for dep in op.inputs]))
                stack += op.inputs
        self._read.update(key for _, keys in reads for key in keys)
        self.executor.lifecycle.plan_update(
            reads, done, session=self.executor.session_id)

    def _execute_partial(self, chunks: list[ChunkData]) -> None:
        """Run the yielded chunks now and refresh their observed shapes."""
        self.yield_count += 1
        self.executor.execute(self._closure(chunks))
        self._refresh_chunks(chunks)

    def _refresh_chunks(self, chunks: list[ChunkData]) -> None:
        metas = self.meta.get_many([chunk.key for chunk in chunks])
        for chunk in chunks:
            meta = metas.get(chunk.key)
            if meta is None:
                continue
            chunk.shape = tuple(meta.shape)
            if meta.columns is not None:
                chunk.columns = list(meta.columns)

    def _attach_outputs(self, op, tile_result) -> None:
        """Bind the tiling result ``[(chunks, nsplits), ...]`` to outputs."""
        if tile_result is None:
            raise TilingError(f"{type(op).__name__}.tile returned nothing")
        if not isinstance(tile_result, list):
            tile_result = [tile_result]
        if len(tile_result) != len(op.outputs):
            raise TilingError(
                f"{type(op).__name__}.tile returned {len(tile_result)} chunk "
                f"sets for {len(op.outputs)} outputs"
            )
        for tileable, (chunks, nsplits) in zip(op.outputs, tile_result):
            if not chunks:
                raise TilingError(
                    f"{type(op).__name__}.tile produced no chunks"
                )
            for chunk in chunks:
                chunk.terminal = True
            tileable.with_chunks(chunks, nsplits)
