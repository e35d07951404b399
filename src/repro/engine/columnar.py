"""The columnar engine: the row engine plus two dictionary encodes.

A columnar chunk is the same ``repro.frame`` container the row engine
stores; what differs is that an all-``str`` object column is a
:class:`repro.frame.dtypes.DictArray` — real cells that still know their
sorted ``categories`` and ``int32`` ``codes`` — so the kernels that
group, join, sort, gather, concat and partition on it read codes
instead of hashing cells ("Towards Scalable Dataframe Systems" treats
dictionary encoding as part of the column model, not a second storage
format).  The engine adds only the two places a dictionary is made:

- :meth:`ColumnarEngine.persisted_column` — a source's column, once per
  handle (``dataframe.datasource.SourceDictionary``), so its slices
  arrive encoded;
- :meth:`ColumnarEngine.persist` — a kernel's result, hashing only a
  column that arrives without a dictionary (UDF outputs, file sources);
  a column that still knows its dictionary is stored as it is.

Every kernel that ignores the encoding sees an ordinary object array,
so the engine changes wall-clock only: values, byte counters (charged
by cell, as for any object column), hash and range draws, fault draws
and plan topology are the row engine's.  Columns that are not uniformly
``str`` (mixed, None/NaN-bearing, or non-object) are stored as they are.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import register_engine
from .row import RowEngine
from ..frame import DataFrame, Series, dtypes
from ..frame.groupby import factorize_cells
from ..frame.selection import materialized


def encode_column(arr: np.ndarray) -> np.ndarray:
    """``arr`` remembering its dictionary when it is an all-``str``
    object column; any other column, or one that already remembers it,
    is returned as it is.  The one place this engine hashes cells.

    The type census runs over the column's distinct objects when it is
    a few shared ones (every cell is one of them), else over its cells."""
    if (arr.dtype.kind != "O" or arr.size == 0
            or dtypes.dictionary_of(arr) is not None):
        return arr
    shared = dtypes.shared_objects(arr)
    if set(map(type, arr if shared is None else shared[1])) != {str}:
        return arr
    codes, categories = factorize_cells(arr)
    return dtypes.encoded(categories, codes.astype(np.int32), cells=arr)


class ColumnarEngine(RowEngine):
    """Row chunks whose string columns carry their dictionary."""

    name = "columnar"

    def persist(self, value: Any) -> Any:
        # an assigned column of a selection is encoded like any other
        value = materialized(value)
        if isinstance(value, DataFrame):
            data = {name: encode_column(value._data[name])
                    for name in value._columns}
            if all(data[name] is value._data[name] for name in data):
                return value
            return DataFrame._new(data, value.index, list(value._columns))
        if isinstance(value, Series):
            column = encode_column(value.values)
            if column is value.values:
                return value
            return Series(column, index=value.index, name=value.name)
        return value

    def persisted_column(self, column: np.ndarray) -> np.ndarray:
        return encode_column(column)

    # the benchmark's tracer times each engine class's own methods
    compute = RowEngine.compute
    hash_partition = RowEngine.hash_partition
    range_partition = RowEngine.range_partition
    split = RowEngine.split


COLUMNAR_ENGINE = register_engine(ColumnarEngine())
