"""The row engine: ``repro.frame`` chunks, unchanged.

Physical == logical: ``persist`` and ``compute`` are the identity, the
partition kernels are exactly the pre-seam ones from
:mod:`repro.engine.partition`, and the wire format is whatever the
procpool serializer already did.  With ``Config.chunk_engine = "row"``
(the default) every byte counter, fault draw and golden scenario report
is bit-identical to the engine that existed before the seam.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import ChunkEngine, register_engine
from .partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)


class RowEngine(ChunkEngine):
    """Row-oriented chunks backed by ``repro.frame`` containers."""

    name = "row"
    supports_compiled_fusion = True

    def persist(self, value: Any) -> Any:
        return value

    def compute(self, value: Any) -> Any:
        return value

    def hash_partition(self, value: Any, key: Any,
                       n_parts: int) -> np.ndarray:
        return assign_hash_partitions(value[key].values, n_parts)

    def range_partition(self, value: Any, key: Any,
                        boundaries: list) -> np.ndarray:
        return assign_range_partitions(value[key].values, boundaries)

    def split(self, value: Any, assignment: np.ndarray,
              n_parts: int) -> list:
        return split_by_assignment(value, assignment, n_parts)


ROW_ENGINE = register_engine(RowEngine())
