"""Distributed linear models via block-summed normal equations."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..errors import TilingError
from ..tensor import Tensor
from ..tensor.linalg import (
    NormalEquationsCombine,
    NormalEquationsMap,
    _tall_skinny_layout,
)
from ..tensor.rechunk import rechunk_chunks
from ..utils import COMBINE_ARITY, batched
from .preprocessing import add_bias_column


class RidgeSolve(Operator):
    """Final stage: solve (XᵀX + αI) β = Xᵀy."""

    def __init__(self, alpha: float, **params):
        super().__init__(**params)
        self.alpha = float(alpha)

    def execute(self, ctx: ExecContext):
        parts = [ctx.get(c.key) for c in self.inputs]
        xtx = parts[0]["xtx"]
        xty = parts[0]["xty"]
        for part in parts[1:]:
            xtx = xtx + part["xtx"]
            xty = xty + part["xty"]
        if self.alpha:
            xtx = xtx + self.alpha * np.eye(xtx.shape[0])
        return np.linalg.solve(xtx, xty)


class RegularizedLstSq(Operator):
    """Tileable op: normal equations with an optional ridge penalty."""

    def __init__(self, alpha: float = 0.0, **params):
        super().__init__(**params)
        self.alpha = float(alpha)

    def tile(self, ctx: TileContext):
        x, y = self.inputs
        if x.ndim != 2 or y.ndim != 1:
            raise TilingError("expects X (2-D) and y (1-D)")
        n_cols = x.shape[1]
        x_blocks, x_nsplits = _tall_skinny_layout(ctx, x)
        y_chunks = list(y.chunks)
        if y.nsplits[0] != x_nsplits[0]:
            y_chunks = rechunk_chunks(y.chunks, y.nsplits, (x_nsplits[0],),
                                      y.dtype)
        level = []
        for xb, yb in zip(x_blocks, y_chunks):
            op = NormalEquationsMap()
            level.append(op.new_chunk([xb, yb], "scalar", (), ()))
        while len(level) > COMBINE_ARITY:
            next_level = []
            for batch in batched(level, COMBINE_ARITY):
                op = NormalEquationsCombine()
                next_level.append(op.new_chunk(list(batch), "scalar", (), ()))
            level = next_level
        solve = RidgeSolve(alpha=self.alpha)
        beta = solve.new_chunk(level, "tensor", (n_cols,), (0,),
                               dtype=np.float64)
        return [([beta], ((n_cols,),))]


class LinearRegression:
    """Ordinary least squares with an optional intercept.

    ``fit`` runs entirely distributed: per-block XᵀX / Xᵀy partials, a
    combine tree, and one small solve. ``predict`` is a distributed
    matrix-vector product.
    """

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def _design(self, x: Tensor) -> Tensor:
        return add_bias_column(x) if self.fit_intercept else x

    def fit(self, x: Tensor, y: Tensor) -> "LinearRegression":
        design = self._design(x)
        op = RegularizedLstSq(alpha=self._alpha())
        out = op.new_tileable(
            [design.data, y.data], "tensor", (design.data.shape[1],),
            dtype=np.float64,
        )
        beta = Tensor(out, x._session).fetch()
        if self.fit_intercept:
            self.coef_ = beta[:-1]
            self.intercept_ = float(beta[-1])
        else:
            self.coef_ = beta
            self.intercept_ = 0.0
        return self

    def _alpha(self) -> float:
        return 0.0

    def predict(self, x: Tensor) -> Tensor:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        coef, intercept = self.coef_, self.intercept_
        out = x.map_blocks(
            lambda block: (block @ coef + intercept).reshape(-1, 1),
            out_cols=1, out_dtype=np.float64,
        )
        return out

    def score(self, x: Tensor, y: Tensor) -> float:
        """Coefficient of determination R² on the given data."""
        from .metrics import r2_score

        return r2_score(y, self.predict(x))


class Ridge(LinearRegression):
    """L2-regularized least squares."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        super().__init__(fit_intercept=fit_intercept)
        self.alpha = float(alpha)

    def _alpha(self) -> float:
        return self.alpha
