"""The frame API, re-exported for everything outside the seam.

Operator kernels, workloads and baselines compute with the
``repro.frame`` containers, whichever engine stores the chunks.  They
import those names from here, never from ``repro.frame`` directly (the
boundary linter enforces it), so the single-node library stays a private
implementation detail behind the engine package.

This is a pure re-export: no behaviour lives here.
"""

from ..frame import (
    AGGREGATIONS,
    DataFrame,
    DataFrameGroupBy,
    Index,
    MultiIndex,
    RangeIndex,
    Rolling,
    Series,
    SeriesGroupBy,
    concat,
    corr,
    cov,
    csv_row_count,
    cut,
    date_range,
    describe,
    get_dummies,
    melt,
    merge,
    parquet_file_size,
    parquet_metadata,
    pivot_table,
    qcut,
    rank,
    read_csv,
    read_parquet,
    sample,
    to_csv,
    to_datetime,
    to_parquet,
)
from ..frame import dtypes, io
from ..frame.groupby import _how_name
from ..frame.hashing import hash_array, stable_hash

__all__ = [
    "AGGREGATIONS",
    "DataFrame",
    "DataFrameGroupBy",
    "Index",
    "MultiIndex",
    "RangeIndex",
    "Rolling",
    "Series",
    "SeriesGroupBy",
    "_how_name",
    "concat",
    "corr",
    "cov",
    "csv_row_count",
    "cut",
    "date_range",
    "describe",
    "dtypes",
    "get_dummies",
    "hash_array",
    "io",
    "melt",
    "merge",
    "parquet_file_size",
    "parquet_metadata",
    "pivot_table",
    "qcut",
    "rank",
    "read_csv",
    "read_parquet",
    "sample",
    "stable_hash",
    "to_csv",
    "to_datetime",
    "to_parquet",
]
