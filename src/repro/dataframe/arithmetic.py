"""Elementwise dataframe/series operators.

One generic operator class covers arithmetic, comparisons, logical ops,
projections, and per-chunk transforms: all of them map row chunks
one-to-one, preserve the row partitioning, and are candidates for
operator-level fusion.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.operator import ExecContext, Operator, TileContext
from ..graph.entity import TileableData
from .utils import align_rows, chunk_index, nsplits_from_chunks, row_counts


class Elementwise(Operator):
    """Apply ``func(chunk_value, *other_chunk_values)`` per row chunk.

    ``params``:

    - ``func``: the per-chunk callable (closed over scalars);
    - ``out_kind``: "dataframe" / "series";
    - ``out_columns``: known output columns (dataframe) or None;
    - ``keeps_rows``: True when output rows == input rows (arithmetic),
      False when unknown until execution (not used by plain elementwise);
    - ``cols_required``: column-pruning hint — which columns of the
      first input the func reads whatever is asked of its output
      (None = all of them: nothing may be pruned);
    - ``cols_produced``: output columns the func creates itself, so a
      requirement for them asks nothing of the input (``df[name] = ...``);
    - ``by_name``: the func touches its first input only by reading,
      projecting or assigning columns by name, so its chunks take a
      selection as they take a frame (``reads_selection``).
    """

    is_elementwise = True

    def __init__(self, func: Callable, out_kind: str,
                 out_columns: Optional[list] = None,
                 out_dtype=None, out_name=None,
                 cols_required: Optional[list] = None,
                 cols_produced: Sequence = (), by_name: bool = False,
                 **params):
        super().__init__(**params)
        self.func = func
        self.out_kind = out_kind
        self.out_columns = out_columns
        self.out_dtype = out_dtype
        self.out_name = out_name
        self.cols_required = cols_required
        self.cols_produced = list(cols_produced)
        self.by_name = by_name

    def input_column_requirements(self, required):
        # exact for projections and assignments: the first input needs
        # what the func reads plus whatever of the output it passes
        # through; the other inputs are whole series.
        if self.cols_required is None:
            return [None for _ in self.inputs]
        if self.out_kind != "dataframe":
            required = []  # a series passes no input column through
        elif required is None:
            required = self.out_columns
            if required is None:  # unknown schema: all of it is visible
                return [None for _ in self.inputs]
        needed = (set(required) - set(self.cols_produced)
                  | set(self.cols_required))
        return [sorted(needed, key=str)] + [None] * (len(self.inputs) - 1)

    # -- tiling ---------------------------------------------------------
    def tile(self, ctx: TileContext):
        chunk_lists = [list(t.chunks) for t in self.inputs]
        kinds = [t.kind for t in self.inputs]
        if len(chunk_lists) > 1:
            aligned = yield from align_rows(ctx, chunk_lists, kinds)
        else:
            aligned = chunk_lists
        n = len(aligned[0])
        out_chunks = []
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        first_rows = row_counts(ctx, aligned[0])
        for i in range(n):
            ins = [chunks[i] for chunks in aligned]
            rows = first_rows[i]
            shape = (rows, n_cols) if self.out_kind == "dataframe" else (rows,)
            chunk_op = ElementwiseChunk(func=self.func,
                                        reads_selection=self.by_name)
            out_chunks.append(chunk_op.new_chunk(
                ins, self.out_kind, shape, chunk_index(self.out_kind, i),
                dtype=self.out_dtype, columns=self.out_columns,
                name=self.out_name,
            ))
        nsplits = nsplits_from_chunks(ctx, out_chunks, self.out_kind, n_cols)
        return [(out_chunks, nsplits)]


class ElementwiseChunk(Operator):
    """One chunk's ``func``.  A column read, projection or assignment
    (``Elementwise.by_name``) reads selections: a column through the
    rows, a projection without gathering, an assignment at the selected
    length."""

    is_elementwise = True
    fuse_expr = "call"

    def __init__(self, func: Callable, reads_selection: bool = False,
                 **params):
        super().__init__(**params)
        self.func = func
        self.reads_selection = reads_selection

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        return self.func(*values)


def build_elementwise(inputs: list[TileableData], func: Callable,
                      out_kind: str, out_shape: tuple,
                      out_columns: Optional[list] = None,
                      out_dtype=None, out_name=None,
                      cols_required: Optional[list] = None,
                      cols_produced: Sequence = (),
                      by_name: bool = False) -> TileableData:
    """Create the logical node for an elementwise operation."""
    op = Elementwise(func=func, out_kind=out_kind, out_columns=out_columns,
                     out_dtype=out_dtype, out_name=out_name,
                     cols_required=cols_required,
                     cols_produced=cols_produced, by_name=by_name)
    return op.new_tileable(inputs, out_kind, out_shape, dtype=out_dtype,
                           columns=out_columns, name=out_name)


class MapPartitions(Operator):
    """Apply an arbitrary frame→frame function per chunk (not fusable —
    the function may change row counts, e.g. per-chunk dropna).

    ``requires(required)`` maps the columns required of the output to
    the columns the input must carry; it is given only by callers whose
    ``func`` works column by column on whatever columns the chunk has
    (``rename``, ``drop``, scalar ``fillna``). What an arbitrary callable
    reads cannot be known, so without it nothing is pruned.
    """

    def __init__(self, func: Callable, out_kind: str,
                 out_columns: Optional[list] = None, out_dtype=None,
                 keeps_rows: bool = False,
                 requires: Optional[Callable] = None, **params):
        super().__init__(**params)
        self.func = func
        self.out_kind = out_kind
        self.out_columns = out_columns
        self.out_dtype = out_dtype
        self.keeps_rows = keeps_rows
        self.requires = requires

    def input_column_requirements(self, required):
        if self.requires is None:
            return [None]
        if required is None:
            required = self.out_columns
            if required is None:
                return [None]
        return [self.requires(required)]

    def tile(self, ctx: TileContext):
        chunks = list(self.inputs[0].chunks)
        out_chunks = []
        n_cols = len(self.out_columns) if self.out_columns is not None else None
        in_rows = row_counts(ctx, chunks) if self.keeps_rows else None
        for i, chunk in enumerate(chunks):
            rows = in_rows[i] if in_rows is not None else None
            shape = (rows, n_cols) if self.out_kind == "dataframe" else (rows,)
            chunk_op = MapPartitionsChunk(func=self.func)
            out_chunks.append(chunk_op.new_chunk(
                [chunk], self.out_kind, shape, chunk_index(self.out_kind, i),
                dtype=self.out_dtype, columns=self.out_columns,
            ))
        nsplits = nsplits_from_chunks(ctx, out_chunks, self.out_kind, n_cols)
        return [(out_chunks, nsplits)]


class MapPartitionsChunk(Operator):
    def __init__(self, func: Callable, **params):
        super().__init__(**params)
        self.func = func

    def execute(self, ctx: ExecContext):
        return self.func(ctx.get(self.inputs[0].key))
