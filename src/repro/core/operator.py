"""Operator base classes and the tiling/execution contexts.

Every public API of the engine is internally an operator with three
faces (Section III-C):

- ``new_tileable`` — the ``__call__`` face: builds the logical node;
- ``tile`` — builds chunk-level nodes; written as a *generator* so it can
  ``yield`` a partial chunk list to trigger execution and resume with
  fresh metadata (the dynamic-tiling mechanism of Fig. 5);
- ``execute`` — runs on a worker against real chunk values.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..config import Config
from ..engine.base import engine_of
from ..graph.entity import ChunkData, TileableData

if TYPE_CHECKING:
    from .meta import ChunkMeta, MetaService


class TileContext:
    """What an operator may consult while tiling."""

    def __init__(self, config: Config, meta: MetaService, storage=None,
                 executor=None):
        self.config = config
        self.meta = meta
        self._storage = storage
        self._executor = executor
        #: chunk keys the operator being tiled has yielded: the plan holds
        #: them until its ``tile`` returns (``TilingEngine._tile_one``).
        self.yielded: set[str] = set()

    def _recoverable(self, chunk_key: str) -> bool:
        """A fault took this executed chunk, but lineage can restore it.

        Gated on the injector being enabled so fault-free sessions keep
        the exact pre-recovery semantics: tiling decisions must not
        change when no chaos is configured.
        """
        return (
            self._executor is not None
            and self._executor.faults.enabled
            and self._executor.recovery.producer_of(chunk_key) is not None
        )

    def has_value(self, chunk_key: str) -> bool:
        """True when the chunk's value currently sits in storage.

        Metadata can outlive the value (reference counting frees consumed
        chunks), so sampling code must check this — not ``meta.has`` —
        before ``peek``-ing. Under fault injection a chunk that was
        executed but lost still counts: ``peek`` recovers it, so tiling
        takes the same branch it would in a fault-free run. A chunk the
        operator being tiled yielded is held, so it needs no storage call.
        """
        if chunk_key in self.yielded:
            return True
        if self._storage is not None and self._storage.contains(chunk_key):
            return True
        return self._recoverable(chunk_key)

    def peek(self, chunk_key: str) -> Any:
        """Read an *executed* chunk's value (e.g. sampled key quantiles).

        Only meaningful after the chunk was yielded for execution; this is
        how sampling-based decisions (range partitioning bounds) consume
        the data gathered by a dynamic-tiling switch.
        """
        if self._storage is None:
            raise RuntimeError("tile context has no storage attached")
        if not self._storage.contains(chunk_key) and self._recoverable(
                chunk_key):
            self._executor.ensure_available([chunk_key])
        return self._storage.peek(chunk_key)

    def chunk_meta(self, chunk: ChunkData) -> Optional[ChunkMeta]:
        return self.meta.get(chunk.key)

    def chunk_metas(self, chunks: Sequence[ChunkData]) -> list[Optional[ChunkMeta]]:
        """Batched :meth:`chunk_meta`: one meta round-trip per chunk list.

        Tiling helpers loop over whole chunk lists; fetching metas one
        message at a time dominated the actor plane's tiling traffic.
        """
        if not chunks:
            return []
        metas = self.meta.get_many([chunk.key for chunk in chunks])
        return [metas.get(chunk.key) for chunk in chunks]

    def chunk_nbytes_many(self, chunks: Sequence[ChunkData],
                          default: int = 0) -> list[int]:
        """Batched :meth:`chunk_nbytes` over a chunk list."""
        return [
            meta.nbytes if meta is not None else default
            for meta in self.chunk_metas(chunks)
        ]

    def chunk_nbytes(self, chunk: ChunkData, default: int = 0) -> int:
        meta = self.meta.get(chunk.key)
        return meta.nbytes if meta is not None else default

    def chunk_len(self, chunk: ChunkData) -> Optional[int]:
        meta = self.meta.get(chunk.key)
        if meta is None:
            return chunk.shape[0] if chunk.shape and chunk.shape[0] is not None else None
        return meta.shape[0] if meta.shape else 0


#: reserved ``ExecContext.annotate`` key: rows a shuffle-map folded away
#: by mapper-side combine. The executor routes it into the stage's
#: ``SimReport`` (on the deterministic accounting walk) instead of the
#: chunk's metadata.
COMBINE_DROPPED_KEY = "__combine_dropped_rows"


class ExecContext:
    """What an operator sees while executing on a worker.

    ``get`` returns input chunk values (already fetched from storage by
    the executor); ``engine`` is the chunk engine shuffle maps partition
    and split through. ``extra_meta`` lets operators attach sampling
    facts (e.g. pre/post aggregation sizes) that dynamic tiling reads
    later.
    """

    def __init__(self, values: dict[str, Any], config: Config):
        self._values = values
        self.config = config
        self.engine = engine_of(config)
        self.extra_meta: dict[str, dict] = {}

    def get(self, key: str) -> Any:
        return self._values[key]

    def has(self, key: str) -> bool:
        return key in self._values

    def annotate(self, chunk_key: str, **extra: Any) -> None:
        self.extra_meta.setdefault(chunk_key, {}).update(extra)


class Operator:
    """Base class of every tileable- and chunk-level operator."""

    #: map/combine/reduce stage markers for multi-stage operators.
    STAGE_MAP = "map"
    STAGE_COMBINE = "combine"
    STAGE_REDUCE = "reduce"

    #: subclasses set this True when the op is a shuffle-map whose writes
    #: should be charged the shuffle write factor.
    is_shuffle_map = False
    #: ops that cost (almost) nothing, e.g. metadata-only slices.
    is_lightweight = False
    #: elementwise ops are candidates for operator-level fusion. A fused
    #: step keeps only its final op's result, so they annotate nothing in
    #: ``ExecContext.extra_meta``.
    is_elementwise = False
    #: whether the kernel takes a ``Selection`` (the rows a filter kept,
    #: not yet gathered) where it takes a frame.  The kernel loop
    #: (``services.runner``) hands every other op the materialized frame.
    #: ``ElementwiseChunk`` sets it per instance (column reads,
    #: projections and assignments).
    reads_selection = False
    #: names of the ``params`` that hold paths of files this op reads:
    #: each file's stat joins the chunk's result-cache identity, so a
    #: rewritten file is read again instead of hitting a stale entry.
    file_params: tuple[str, ...] = ()

    def __init__(self, **params: Any):
        self.params = params
        self.inputs: list = []
        self.outputs: list = []
        self.stage: Optional[str] = None

    # -- graph construction -------------------------------------------------
    def new_tileable(self, inputs: Sequence[TileableData], kind: str,
                     shape: tuple, dtype: Any = None,
                     columns: Optional[list] = None,
                     name: Any = None) -> TileableData:
        """The ``__call__`` face: create this op's logical output node."""
        self.inputs = list(inputs)
        out = TileableData(kind, shape, op=self, dtype=dtype,
                           columns=columns, name=name)
        self.outputs = [out]
        return out

    def new_tileables(self, inputs: Sequence[TileableData],
                      specs: Sequence[dict]) -> list[TileableData]:
        """Multi-output variant (e.g. QR returns Q and R)."""
        self.inputs = list(inputs)
        self.outputs = [TileableData(op=self, **spec) for spec in specs]
        return list(self.outputs)

    def new_chunk(self, inputs: Sequence[ChunkData], kind: str, shape: tuple,
                  index: tuple, dtype: Any = None,
                  columns: Optional[list] = None, name: Any = None) -> ChunkData:
        """Create this op's (single) output chunk."""
        self.inputs = list(inputs)
        out = ChunkData(kind, shape, index, op=self, dtype=dtype,
                        columns=columns, name=name)
        self.outputs = [out]
        return out

    def new_chunks(self, inputs: Sequence[ChunkData],
                   specs: Sequence[dict]) -> list[ChunkData]:
        self.inputs = list(inputs)
        self.outputs = [ChunkData(op=self, **spec) for spec in specs]
        return list(self.outputs)

    # -- the three faces -------------------------------------------------------
    def tile(self, ctx: TileContext):
        """Yield-capable tiling; must be overridden by tileable-level ops.

        Implementations are either plain functions returning
        ``[(chunks, nsplits), ...]`` (one pair per output) or generators
        that may ``yield [chunks...]`` to request execution of a partial
        graph before resuming (dynamic tiling).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement tile()"
        )

    def execute(self, ctx: ExecContext) -> Any:
        """Compute this chunk-level op's output value(s).

        Return a single value for single-output ops, or a dict
        ``{chunk_key: value}`` for multi-output ops.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement execute()"
        )

    # -- optimizer hooks -----------------------------------------------------
    def input_column_requirements(
        self, required: Optional[list]
    ) -> list[Optional[list]]:
        """Column-pruning hook: given the columns required of this op's
        output (``None`` = all), which columns does each input need?

        The default is conservative: every input needs everything.
        """
        return [None for _ in self.inputs]

    def borrowed_arrays(self) -> list:
        """Arrays the client owns that this op's result may share memory
        with (a source slice borrows the client's columns): the executor
        copies a stored column that overlaps one, so what storage keeps
        never changes under a client's in-place write. Default: none."""
        return []

    def identity_attrs(self) -> dict[str, Any]:
        """Result-cache hook: the attributes besides ``params`` this
        op's output depends on. Default: every instance attribute."""
        return vars(self)

    # -- introspection ----------------------------------------------------------
    @property
    def display_name(self) -> str:
        name = type(self).__name__
        if self.stage is not None:
            name += f"::{self.stage}"
        return name

    def __repr__(self) -> str:
        return f"<{self.display_name}>"


def run_tile(op: Operator, ctx: TileContext):
    """Normalize ``op.tile``: always return a generator.

    Plain (non-generator) tile implementations become one-shot generators
    so the tiling engine has a single driving protocol.
    """
    result = op.tile(ctx)
    if inspect.isgenerator(result):
        return result

    def _wrap():
        return result
        yield  # pragma: no cover - makes _wrap a generator

    return _wrap()


class DataSourceOp(Operator):
    """Marker base for operators with no tileable inputs (read/create)."""
