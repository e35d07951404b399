"""``pivot_table`` — the non-relational reshaping operator the paper cites
as a pandas capability SQL engines lack."""

from __future__ import annotations

import numpy as np

from . import dtypes
from .dataframe import DataFrame
from .groupby import Grouper, _aggregate_column, factorize
from .index import Index


def pivot_table(frame: DataFrame, values=None, index=None, columns=None,
                aggfunc="mean") -> DataFrame:
    """A reduced pandas ``pivot_table``: one index key, one column key,
    one or more value columns, a single aggfunc."""
    if index is None or columns is None:
        raise ValueError("pivot_table requires both index and columns")
    if isinstance(values, str):
        value_cols = [values]
    elif values is None:
        key_set = {index, columns}
        value_cols = [
            c for c in frame._columns
            if c not in key_set and dtypes.is_numeric(frame._data[c].dtype)
        ]
    else:
        value_cols = list(values)
    if not value_cols:
        raise ValueError("no value columns to aggregate")

    grouper = Grouper(
        [frame._data[index], frame._data[columns]], [index, columns]
    )
    order, starts = grouper.sorted_layout()
    # each group's row and column label, numbered in the labels' order
    rows, row_labels = factorize(grouper.levels[0])
    cols, col_labels = factorize(grouper.levels[1])

    data: dict = {}
    for vcol in value_cols:
        agg = _aggregate_column(frame._data[vcol], order, starts, aggfunc)
        table = np.full((len(row_labels), len(col_labels)), np.nan)
        table[rows, cols] = agg
        for j, c_label in enumerate(col_labels):
            name = c_label if len(value_cols) == 1 else (vcol, c_label)
            data[name] = table[:, j]
    out_index = Index(dtypes.object_array(row_labels), name=index)
    return DataFrame(data, index=out_index)
