"""``repro.engine`` — the chunk-engine seam.

Select a backend with ``Config.chunk_engine``: ``"row"`` (the default)
stores kernel results as they are; ``"columnar"`` stores the same
``repro.frame`` containers with each all-string column carrying its
dictionary, which changes wall-clock only.  See :mod:`repro.engine.base`
for the contract and DESIGN.md for the seam's place in the architecture.
"""

from .base import (
    describe_value,
    engine_of,
    get_engine,
    persist_result,
    register_engine,
)
from .columnar import COLUMNAR_ENGINE, ColumnarEngine
from .row import ROW_ENGINE, RowEngine

__all__ = [
    "COLUMNAR_ENGINE",
    "ColumnarEngine",
    "ROW_ENGINE",
    "RowEngine",
    "describe_value",
    "engine_of",
    "get_engine",
    "persist_result",
    "register_engine",
]
