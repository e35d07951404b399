"""Distributed linear models via block-summed normal equations."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor.linalg import LstSq
from .preprocessing import add_bias_column


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
        op = LstSq(alpha=self._alpha())
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
