"""Distributed blocked matrix multiplication."""

from __future__ import annotations

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..errors import TilingError
from ..utils import combine_tree
from .rechunk import rechunk_chunks


class MatMul(Operator):
    """``C = A @ B`` with 2-D block decomposition.

    ``C[i, j] = Σ_k A[i, k] @ B[k, j]``; the inner sum runs through the
    usual combine tree. ``B`` is auto-rechunked so its row splits match
    ``A``'s column splits — no user-facing chunk parameters (the paper's
    compatibility argument).
    """

    def tile(self, ctx: TileContext):
        a, b = self.inputs
        if a.ndim != 2 or b.ndim != 2:
            raise TilingError("matmul supports 2-D tensors")
        if a.shape[1] != b.shape[0]:
            raise TilingError(
                f"shape mismatch for matmul: {a.shape} @ {b.shape}"
            )
        b_chunks = list(b.chunks)
        b_nsplits = b.nsplits
        if b.nsplits[0] != a.nsplits[1]:
            target = (a.nsplits[1], b.nsplits[1])
            b_chunks = rechunk_chunks(b.chunks, b.nsplits, target, b.dtype)
            b_nsplits = target
        a_grid = {c.index: c for c in a.chunks}
        b_grid = {c.index: c for c in b_chunks}
        n_i = len(a.nsplits[0])
        n_k = len(a.nsplits[1])
        n_j = len(b_nsplits[1])
        dtype = np.result_type(a.dtype, b.dtype)
        out_chunks = []
        for i in range(n_i):
            for j in range(n_j):
                shape = (a.nsplits[0][i], b_nsplits[1][j])

                def block_sum(batch, _j):
                    return BlockSum().new_chunk(batch, "tensor", shape, (i, j),
                                                dtype=dtype)

                level = combine_tree([
                    MatMulBlock().new_chunk([a_grid[(i, k)], b_grid[(k, j)]],
                                            "tensor", shape, (i, j),
                                            dtype=dtype)
                    for k in range(n_k)
                ], block_sum)
                out_chunks.append(
                    block_sum(level, 0) if len(level) > 1 else level[0])
        return [(out_chunks, (a.nsplits[0], b_nsplits[1]))]


class MatMulBlock(Operator):
    def execute(self, ctx: ExecContext):
        left = ctx.get(self.inputs[0].key)
        right = ctx.get(self.inputs[1].key)
        return left @ right


class BlockSum(Operator):
    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        out = values[0]
        for value in values[1:]:
            out = out + value
        return out
