"""Distributed linear algebra: tall-and-skinny QR and least squares.

``qr`` implements the MapReduce (TSQR) algorithm of Benson, Gleich &
Demmel that both Xorbits and Dask use (Section VI-C): per-block local QR,
a stacked QR over the R factors, and a block-wise Q update. The paper's
point is *not* the algorithm but the chunking: Dask requires the user to
``rechunk`` into tall-and-skinny blocks manually (Listing 1), while
Xorbits derives the layout with Algorithm 1 (``dim_to_size={1: n}``)
automatically — so does this operator.

``lstsq`` solves least squares via block-summed normal equations, the
linear-regression workload of Fig. 8(c); ``learn.LinearRegression`` and
``learn.Ridge`` fit through the same operator with a ridge penalty
``alpha`` of 0 and of their own.
"""

from __future__ import annotations

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..core.rechunk import rechunk_to_splits
from ..errors import TilingError
from ..graph.entity import ChunkData, TileableData
from ..utils import combine_tree
from .rechunk import rechunk_chunks


def _tall_skinny_layout(ctx: TileContext, source: TileableData):
    """Auto-rechunk (Algorithm 1): row blocks spanning all columns."""
    n_rows, n_cols = source.shape
    nsplits = rechunk_to_splits(
        (n_rows, n_cols), {1: n_cols},
        np.dtype(source.dtype or np.float64).itemsize,
        ctx.config.chunk_store_limit,
    )
    if source.nsplits == nsplits:
        return list(source.chunks), nsplits
    chunks = rechunk_chunks(source.chunks, source.nsplits, nsplits,
                            source.dtype)
    return chunks, nsplits


class TSQR(Operator):
    """Tall-and-skinny QR decomposition; outputs Q and R."""

    def tile(self, ctx: TileContext):
        source = self.inputs[0]
        if source.ndim != 2:
            raise TilingError("qr requires a 2-D tensor")
        n_rows, n_cols = source.shape
        if n_rows < n_cols:
            raise TilingError("qr requires n_rows >= n_cols (tall-and-skinny)")
        blocks, nsplits = _tall_skinny_layout(ctx, source)
        row_splits = nsplits[0]
        m = len(blocks)
        dtype = np.dtype(np.float64)

        # map: local QR per row block → (Q_i, R_i)
        q_locals, r_locals = [], []
        for i, block in enumerate(blocks):
            op = TSQRMap()
            q_spec = {"kind": "tensor", "shape": (row_splits[i], n_cols),
                      "index": (i, 0), "dtype": dtype}
            r_spec = {"kind": "tensor", "shape": (n_cols, n_cols),
                      "index": (i, 0), "dtype": dtype}
            q_chunk, r_chunk = op.new_chunks([block], [q_spec, r_spec])
            q_locals.append(q_chunk)
            r_locals.append(r_chunk)

        # reduce: QR of the stacked R factors → R plus per-block Q2 updates
        reduce_op = TSQRReduce(n_blocks=m, n_cols=n_cols)
        specs = [{"kind": "tensor", "shape": (n_cols, n_cols),
                  "index": (0, 0), "dtype": dtype}]
        for i in range(m):
            specs.append({"kind": "tensor", "shape": (n_cols, n_cols),
                          "index": (i, 0), "dtype": dtype})
        reduce_outs = reduce_op.new_chunks(r_locals, specs)
        r_final = reduce_outs[0]
        q2_blocks = reduce_outs[1:]

        # update: Q_i = Q_i_local @ Q2_i
        q_chunks = []
        for i in range(m):
            op = TSQRUpdate()
            q_chunks.append(op.new_chunk(
                [q_locals[i], q2_blocks[i]], "tensor",
                (row_splits[i], n_cols), (i, 0), dtype=dtype,
            ))
        return [
            (q_chunks, (row_splits, (n_cols,))),
            ([r_final], ((n_cols,), (n_cols,))),
        ]


class TSQRMap(Operator):
    def execute(self, ctx: ExecContext):
        block = ctx.get(self.inputs[0].key)
        q, r = np.linalg.qr(block)
        return {self.outputs[0].key: q, self.outputs[1].key: r}


class TSQRReduce(Operator):
    def __init__(self, n_blocks: int, n_cols: int, **params):
        super().__init__(**params)
        self.n_blocks = n_blocks
        self.n_cols = n_cols

    def execute(self, ctx: ExecContext):
        stacked = np.vstack([ctx.get(c.key) for c in self.inputs])
        q2, r = np.linalg.qr(stacked)
        out = {self.outputs[0].key: r}
        for i in range(self.n_blocks):
            lo, hi = i * self.n_cols, (i + 1) * self.n_cols
            out[self.outputs[1 + i].key] = np.ascontiguousarray(q2[lo:hi])
        return out


class TSQRUpdate(Operator):
    is_elementwise = True

    def execute(self, ctx: ExecContext):
        q_local = ctx.get(self.inputs[0].key)
        q2 = ctx.get(self.inputs[1].key)
        return q_local @ q2


class LstSq(Operator):
    """Least squares via block-summed normal equations:
    β = (XᵀX + αI)⁻¹ Xᵀy — ordinary with ``alpha`` 0, ridge otherwise."""

    def __init__(self, alpha: float = 0.0, **params):
        super().__init__(**params)
        self.alpha = float(alpha)

    def tile(self, ctx: TileContext):
        x, y = self.inputs
        if x.ndim != 2 or y.ndim != 1:
            raise TilingError("lstsq expects X (2-D) and y (1-D)")
        if x.shape[0] != y.shape[0]:
            raise TilingError("X and y row counts differ")
        n_cols = x.shape[1]
        x_blocks, x_nsplits = _tall_skinny_layout(ctx, x)
        y_chunks = list(y.chunks)
        if y.nsplits[0] != x_nsplits[0]:
            y_chunks = rechunk_chunks(y.chunks, y.nsplits, (x_nsplits[0],),
                                      y.dtype)
        level = combine_tree(
            [NormalEquationsMap().new_chunk([xb, yb], "scalar", (), ())
             for xb, yb in zip(x_blocks, y_chunks)],
            lambda batch, _j: NormalEquationsCombine().new_chunk(
                batch, "scalar", (), ()))
        solve_op = NormalEquationsSolve(alpha=self.alpha)
        beta = solve_op.new_chunk(level, "tensor", (n_cols,), (0,),
                                  dtype=np.float64)
        return [([beta], ((n_cols,),))]


class NormalEquationsMap(Operator):
    def execute(self, ctx: ExecContext):
        x = ctx.get(self.inputs[0].key)
        y = ctx.get(self.inputs[1].key)
        return {"xtx": x.T @ x, "xty": x.T @ y}


def _sum_partials(parts: list[dict]) -> tuple:
    return (sum(p["xtx"] for p in parts), sum(p["xty"] for p in parts))


class NormalEquationsCombine(Operator):
    def execute(self, ctx: ExecContext):
        xtx, xty = _sum_partials([ctx.get(c.key) for c in self.inputs])
        return {"xtx": xtx, "xty": xty}


class NormalEquationsSolve(Operator):
    """The final node: solve (XᵀX + αI) β = Xᵀy."""

    def __init__(self, alpha: float, **params):
        super().__init__(**params)
        self.alpha = alpha

    def execute(self, ctx: ExecContext):
        xtx, xty = _sum_partials([ctx.get(c.key) for c in self.inputs])
        if self.alpha:
            xtx = xtx + self.alpha * np.eye(xtx.shape[0])
        return np.linalg.solve(xtx, xty)
