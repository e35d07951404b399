"""Distributed K-Means (Lloyd's algorithm).

Each iteration is one distributed job: per-block assignment + per-cluster
partial sums (map), a combine tree, and a driver-side centroid update —
the map-combine-reduce shape of everything else in the engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..errors import TilingError
from ..tensor import Tensor
from ..tensor.linalg import _tall_skinny_layout
from ..utils import combine_tree


def _assign(block: np.ndarray, centers: np.ndarray) -> np.ndarray:
    distances = ((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


class KMeansStep(Operator):
    """One tileable-level Lloyd iteration: returns per-cluster sums/counts."""

    def __init__(self, centers: np.ndarray, **params):
        super().__init__(**params)
        self.centers = centers

    def tile(self, ctx: TileContext):
        x = self.inputs[0]
        if x.ndim != 2:
            raise TilingError("kmeans requires a 2-D tensor")
        blocks, _ = _tall_skinny_layout(ctx, x)

        def partial(role, inputs):
            op = KMeansPartial(centers=self.centers, role=role)
            return op.new_chunk(inputs, "scalar", (), ())

        level = combine_tree([partial("map", [block]) for block in blocks],
                             lambda batch, _j: partial("combine", batch))
        if len(level) > 1:
            level = [partial("combine", level)]
        return [(level, ((),))]


class KMeansPartial(Operator):
    def __init__(self, centers: np.ndarray, role: str, **params):
        super().__init__(**params)
        self.centers = centers
        self.role = role

    def execute(self, ctx: ExecContext):
        if self.role == "map":
            block = ctx.get(self.inputs[0].key)
            labels = _assign(block, self.centers)
            k = len(self.centers)
            sums = np.zeros_like(self.centers)
            counts = np.zeros(k, dtype=np.int64)
            inertia = 0.0
            for cluster in range(k):
                members = block[labels == cluster]
                if len(members):
                    sums[cluster] = members.sum(axis=0)
                    counts[cluster] = len(members)
                    inertia += float(
                        ((members - self.centers[cluster]) ** 2).sum()
                    )
            return {"sums": sums, "counts": counts, "inertia": inertia}
        parts = [ctx.get(c.key) for c in self.inputs]
        return {
            "sums": sum(p["sums"] for p in parts),
            "counts": sum(p["counts"] for p in parts),
            "inertia": sum(p["inertia"] for p in parts),
        }


class KMeans:
    """Lloyd's K-Means over a distributed tensor."""

    def __init__(self, n_clusters: int = 8, max_iter: int = 20,
                 tol: float = 1e-4, seed: Optional[int] = 0):
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: float = float("inf")
        self.n_iter_: int = 0

    def fit(self, x: Tensor) -> "KMeans":
        n, k = x.data.shape
        if n < self.n_clusters:
            raise ValueError("fewer rows than clusters")
        head = x[: min(max(self.n_clusters * 20, 100), n)].fetch()
        rng = np.random.default_rng(self.seed)
        pick = rng.choice(len(head), size=self.n_clusters, replace=False)
        centers = np.asarray(head[pick], dtype=np.float64)

        session = x.session
        for iteration in range(self.max_iter):
            op = KMeansStep(centers=centers)
            out = op.new_tileable([x.data], "scalar", ())
            (stats,) = session.execute(out)
            counts = stats["counts"]
            sums = stats["sums"]
            new_centers = centers.copy()
            for cluster in range(self.n_clusters):
                if counts[cluster]:
                    new_centers[cluster] = sums[cluster] / counts[cluster]
            shift = float(np.abs(new_centers - centers).max())
            centers = new_centers
            self.inertia_ = stats["inertia"]
            self.n_iter_ = iteration + 1
            if shift <= self.tol:
                break
        self.cluster_centers_ = centers
        return self

    def predict(self, x: Tensor) -> Tensor:
        if self.cluster_centers_ is None:
            raise RuntimeError("model is not fitted")
        centers = self.cluster_centers_
        return x.map_blocks(
            lambda block: _assign(block, centers).reshape(-1, 1).astype(
                np.float64
            ),
            out_cols=1, out_dtype=np.float64,
        )

    def fit_predict(self, x: Tensor) -> Tensor:
        return self.fit(x).predict(x)
