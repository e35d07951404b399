"""Graph entities: tileable data (logical) and chunk data (physical).

Terminology follows Section III-C of the paper:

- a **tileable** is one logical dataset in the user's program (a whole
  distributed DataFrame/Tensor);
- a **chunk** is one partition of a tileable, carrying a *chunk index*
  ``(r, c)`` locating it inside the full dataset (Fig. 4);
- operators are circles, data placeholders squares: here every
  Tileable/Chunk data node points at the operator that produces it.

Shapes may be *unknown* until execution (the paper's non-static
operators); unknown extents are represented as ``None``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..utils import new_key

#: the kinds of data an entity may hold.
KINDS = ("dataframe", "series", "index", "tensor", "scalar")


def shape_is_known(shape: tuple) -> bool:
    return all(extent is not None for extent in shape)


class EntityData:
    """Shared fields of tileable and chunk data nodes."""

    __slots__ = ("key", "op", "kind", "shape", "dtype", "columns", "name",
                 "_hash")

    def __init__(self, kind: str, shape: tuple, op=None,
                 dtype: Any = None, columns: Optional[list] = None,
                 name: Any = None, key: str | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown entity kind {kind!r}")
        self.kind = kind
        self.shape = tuple(shape)
        self.op = op
        self.dtype = dtype
        self.columns = list(columns) if columns is not None else None
        self.name = name
        self.key = key if key is not None else new_key(self._key_prefix())
        self._hash = hash(self.key)

    def _key_prefix(self) -> str:
        return "e"

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def has_known_shape(self) -> bool:
        return shape_is_known(self.shape)

    @property
    def nrows(self) -> Optional[int]:
        return self.shape[0] if self.shape else 1

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, EntityData) and other.key == self.key


class ChunkData(EntityData):
    """One partition of a tileable, produced by one operator invocation.

    ``index`` is the distributed index of Fig. 4: the chunk's coordinates
    inside the complete dataset.
    """

    __slots__ = ("index", "terminal")

    def __init__(self, kind: str, shape: tuple, index: tuple, op=None,
                 dtype: Any = None, columns: Optional[list] = None,
                 name: Any = None, key: str | None = None):
        super().__init__(kind, shape, op=op, dtype=dtype, columns=columns,
                         name=name, key=key)
        self.index = tuple(index)
        #: True when this chunk is part of a tileable's visible layout
        #: (a user-level intermediate), as opposed to an internal stage
        #: chunk (map partial, shuffle partition). Eager engines pin
        #: terminal chunks (``config.eager_release = False``).
        self.terminal = False

    def _key_prefix(self) -> str:
        return "c"

    @property
    def inputs(self) -> list["ChunkData"]:
        return list(self.op.inputs) if self.op is not None else []

    def __repr__(self) -> str:
        op_name = type(self.op).__name__ if self.op is not None else "Data"
        return f"Chunk<{op_name}@{self.index} {self.shape} {self.key[:10]}>"


class TileableData(EntityData):
    """One logical dataset node of the tileable graph."""

    __slots__ = ("chunks", "nsplits", "cache_requested", "carried_columns",
                 "ident")

    def __init__(self, kind: str, shape: tuple, op=None,
                 dtype: Any = None, columns: Optional[list] = None,
                 name: Any = None, key: str | None = None):
        super().__init__(kind, shape, op=op, dtype=dtype, columns=columns,
                         name=name, key=key)
        self.chunks: list[ChunkData] = []
        #: per-dimension chunk extents, e.g. ((4, 4, 2), (3,)); ``None``
        #: entries mark extents unknown before execution.
        self.nsplits: tuple[tuple, ...] = ()
        #: set by ``.cache()``: the result cache must keep this
        #: tileable's chunks even under budget pressure.
        self.cache_requested = False
        #: the columns this node's chunks carry, as the pruning pass
        #: recorded them before tiling (``None`` = all of them). A later
        #: query that needs more un-tiles the node (``core.pruning``).
        self.carried_columns: Optional[frozenset] = None
        #: the result-cache key of what this node computes
        #: (``graph.identity``; ``None`` = uncacheable), stamped when a
        #: plan holding it is run with the cache on.
        self.ident: Optional[str] = None

    def _key_prefix(self) -> str:
        return "t"

    @property
    def is_tiled(self) -> bool:
        return bool(self.chunks)

    @property
    def inputs(self) -> list["TileableData"]:
        return list(self.op.inputs) if self.op is not None else []

    def with_chunks(self, chunks: Sequence[ChunkData],
                    nsplits: tuple[tuple, ...]) -> "TileableData":
        """Attach the chunk layout produced by tiling."""
        self.chunks = list(chunks)
        self.nsplits = tuple(tuple(split) for split in nsplits)
        if shape_is_known(self.shape):
            return self
        # refine the logical shape now that chunk extents are known
        new_shape = []
        for dim, splits in enumerate(self.nsplits):
            if all(s is not None for s in splits):
                new_shape.append(int(sum(splits)))
            else:
                new_shape.append(self.shape[dim] if dim < len(self.shape) else None)
        self.shape = tuple(new_shape)
        return self

    def refresh_from_chunks(self) -> None:
        """Recompute nsplits/shape after chunk shapes were updated."""
        if not self.chunks:
            return
        if self.ndim <= 1:
            splits = tuple(c.shape[0] if c.shape else None for c in self.chunks)
            self.nsplits = (splits,)
            if all(s is not None for s in splits):
                self.shape = (int(sum(splits)),) if self.ndim == 1 else ()
            return
        row_extent: dict[int, Optional[int]] = {}
        col_extent: dict[int, Optional[int]] = {}
        for chunk in self.chunks:
            r = chunk.index[0]
            c = chunk.index[1] if len(chunk.index) > 1 else 0
            row_extent[r] = chunk.shape[0]
            if len(chunk.shape) > 1:
                col_extent[c] = chunk.shape[1]
        rows = tuple(row_extent[r] for r in sorted(row_extent))
        cols = tuple(col_extent[c] for c in sorted(col_extent)) or (self.shape[1],)
        self.nsplits = (rows, cols)
        if all(s is not None for s in rows):
            self.shape = (int(sum(rows)), self.shape[1])

    def __repr__(self) -> str:
        op_name = type(self.op).__name__ if self.op is not None else "Data"
        return (
            f"Tileable<{op_name} {self.kind} {self.shape} "
            f"chunks={len(self.chunks)} {self.key[:10]}>"
        )
