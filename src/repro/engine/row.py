"""The row engine: ``repro.frame`` chunks, unchanged.

``persist`` is the identity and the partition kernels are the shared ones
from :mod:`repro.engine.partition`.  With ``Config.chunk_engine = "row"``
(the default) every byte counter, fault draw and golden scenario report
is bit-identical to the engine that existed before the seam.  The
columnar engine subclasses it and overrides only the two encodes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import register_engine
from .partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)


class RowEngine:
    """Row-oriented chunks backed by ``repro.frame`` containers."""

    #: registry key (``Config.chunk_engine``).
    name = "row"

    def persist(self, value: Any) -> Any:
        """The value as stored: the same cells, whatever the engine
        attaches to them.  Idempotent; here the identity."""
        return value

    def compute(self, value: Any) -> Any:
        """The identity; nothing calls it (the benchmark's tracer times
        it under ``engine.compute``)."""
        return value

    def persisted_column(self, column: np.ndarray) -> np.ndarray:
        """``column`` in the form whose row windows ``persist`` takes
        without hashing a cell: the same cells (possibly the very array)
        with whatever ``persist`` would otherwise work out from them.  A
        source asks once per handle and hands its slices windows of the
        answer.  Here the column itself, at no cost."""
        return column

    # -- shuffle partition kernels -------------------------------------
    def hash_partition(self, value: Any, key: Any,
                       n_parts: int) -> np.ndarray:
        """Per-row partition ids of ``value``'s ``key`` column by the
        deterministic content hash of the cells."""
        return assign_hash_partitions(value[key].values, n_parts)

    def range_partition(self, value: Any, key: Any,
                        boundaries: list) -> np.ndarray:
        """Per-row partition ids by search over sampled boundaries."""
        return assign_range_partitions(value[key].values, boundaries)

    def split(self, value: Any, assignment: np.ndarray,
              n_parts: int) -> list:
        """Split a chunk into ``n_parts`` chunks by partition id."""
        return split_by_assignment(value, assignment, n_parts)


ROW_ENGINE = register_engine(RowEngine())
