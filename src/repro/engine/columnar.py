"""The columnar engine: contiguous per-column chunks with dictionary
strings.

Physical form
-------------

A :class:`ColumnarFrame` keeps each column as either its raw contiguous
NumPy array or, for all-string object columns, a :class:`DictColumn` —
``int32`` codes into a sorted array of unique categories.  That is the
representation "Towards Scalable Dataframe Systems" and the Cylon line
of work identify as the one that makes shuffle/groupby hot paths cheap:
partitioning gathers 4-byte codes instead of object pointers, and the
wire carries each distinct string once per chunk instead of once per
row.

Parity contract
---------------

Everything observable except byte counters is backend-invariant:

- **values** — ``compute(persist(v))`` reproduces ``v`` exactly
  (``frame.groupby.factorize_cells`` is lossless; ``categories[codes]``
  is the original column).  ``compute`` hands kernels that column as a
  ``frame.dtypes.DictArray`` — real cells that still know their
  dictionary — and ``persist`` of a column that still knows it is an
  integer compaction to the entries in use: the ``DictColumn`` a fresh
  encode would build, without hashing a cell.  A client frame's string
  column is encoded once per handle (``persisted_column``) and its
  slices arrive with their codes; only columns that arrive without a
  dictionary (UDF outputs, file sources) are hashed.
- **hash draws** — string keys are hashed by *decoded value*:
  ``hash_array(categories)[codes]`` equals the elementwise FNV-1a hash
  of the decoded column because elementwise maps commute with gathers.
  The same argument covers range assignment via
  ``assign_range_partitions(categories, ...)[codes]``.  Partition
  assignment, and with it every ``structural_draw`` fault/cache
  identity, therefore matches the row engine bit for bit.
- **topology** — compiled fusion is declined
  (``supports_compiled_fusion = False``) identically in the accounting
  walk and all runners, so the subtask graph does not depend on which
  fusion path a band happens to take.

Columns that are not uniformly ``str`` (mixed, None/NaN-bearing, or
non-object) are stored raw — encoding stays a pure optimization, never a
semantics change.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

from .base import ChunkEngine, register_describer, register_engine
from .partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from ..frame import DataFrame, Series, dtypes
from ..frame.groupby import factorize_cells
from ..frame.sorting import id_runs
from ..utils import register_sizeof

#: object-array byte charge per element / per array, mirroring
#: ``repro.frame``'s accounting so raw and decoded columns price alike.
_OBJ_ITEM_BYTES = 64
_OBJ_BASE_BYTES = 96


def _array_nbytes(arr: np.ndarray) -> int:
    if arr.dtype.kind == "O":
        return arr.size * _OBJ_ITEM_BYTES + _OBJ_BASE_BYTES
    return arr.nbytes


class DictColumn:
    """A dictionary-encoded string column: codes into sorted categories."""

    __slots__ = ("categories", "codes")

    def __init__(self, categories: np.ndarray, codes: np.ndarray):
        self.categories = categories
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + _array_nbytes(self.categories)

    @property
    def dtype(self):
        # logical dtype: decoding yields an object array of strings.
        return self.categories.dtype

    def decode(self) -> np.ndarray:
        """The logical column: real cells, the dictionary riding along."""
        return dtypes.encoded(self.categories, self.codes)

    def take(self, indexer: np.ndarray) -> "DictColumn":
        # categories are shared, never copied, across gathers/splits.
        return DictColumn(self.categories, self.codes[indexer])

    def compacted(self) -> "DictColumn":
        """Down to the categories in use: the bytes charged are the bytes
        that travel, and the column equals a fresh encode of its cells."""
        return DictColumn(*dtypes.compact_dictionary(self.categories,
                                                     self.codes))


def encode_column(arr: np.ndarray) -> Union[np.ndarray, DictColumn]:
    """Dictionary-encode an all-string object column; pass others raw.
    Cells are hashed only when the column arrives without a dictionary."""
    if arr.dtype.kind != "O" or arr.size == 0:
        return arr
    dictionary = dtypes.dictionary_of(arr)
    if dictionary is not None:
        return DictColumn(*dictionary).compacted()
    cells = arr.tolist()
    if set(map(type, cells)) != {str}:
        return arr
    codes, categories = factorize_cells(cells)
    return DictColumn(categories, codes.astype(np.int32))


def decode_column(col: Union[np.ndarray, DictColumn]) -> np.ndarray:
    return col.decode() if isinstance(col, DictColumn) else col


def _column_nbytes(col, logical: bool = False) -> int:
    """Physical bytes of a column, or those of its decoded row-space twin."""
    if not isinstance(col, DictColumn):
        return _array_nbytes(col)
    return (len(col) * _OBJ_ITEM_BYTES + _OBJ_BASE_BYTES if logical
            else col.nbytes)


class ColumnarFrame:
    """Physical dataframe chunk: named columns, raw or dict-encoded."""

    __slots__ = ("_data", "_index", "_columns")

    def __init__(self, data: dict, index, columns: list):
        self._data = data
        self._index = index
        self._columns = columns

    def __len__(self) -> int:
        return len(self._index)

    @property
    def shape(self) -> tuple:
        return (len(self._index), len(self._columns))

    @property
    def columns(self) -> list:
        return list(self._columns)

    @property
    def index(self):
        return self._index

    @property
    def nbytes(self) -> int:
        return self._index.nbytes + 64 + sum(
            _column_nbytes(self._data[name]) for name in self._columns)

    @property
    def logical_nbytes(self) -> int:
        """Size of the *decoded* row-space twin (``DataFrame.nbytes``).

        Meta reports this, not the physical size: tiling decisions
        (broadcast-vs-shuffle thresholds, chunk auto-merge) read chunk
        sizes from meta, and the seam's parity contract pins plan
        topology across backends — so the planner must see the same
        numbers the row engine would show it.  Storage/wire accounting
        (``utils.sizeof``) stays physical and keeps the dictionary win.
        """
        return self._index.nbytes + 64 + sum(
            _column_nbytes(self._data[name], logical=True)
            for name in self._columns)

    def decode(self) -> DataFrame:
        data = {name: decode_column(self._data[name])
                for name in self._columns}
        return DataFrame._new(data, self._index, list(self._columns))

    @classmethod
    def encode(cls, frame: DataFrame) -> "ColumnarFrame":
        data = {name: encode_column(frame._data[name])
                for name in frame._columns}
        return cls(data, frame.index, list(frame._columns))


class ColumnarSeries:
    """Physical series chunk: one raw or dict-encoded column."""

    __slots__ = ("_values", "_index", "name")

    def __init__(self, values, index, name):
        self._values = values
        self._index = index
        self.name = name

    def __len__(self) -> int:
        return len(self._index)

    @property
    def shape(self) -> tuple:
        return (len(self._index),)

    @property
    def dtype(self):
        return self._values.dtype

    @property
    def nbytes(self) -> int:
        return self._index.nbytes + _column_nbytes(self._values) + 32

    @property
    def logical_nbytes(self) -> int:
        """Decoded row-space size (mirrors ``Series.nbytes``); see
        :attr:`ColumnarFrame.logical_nbytes`."""
        return self._index.nbytes + _column_nbytes(self._values, logical=True)

    def decode(self) -> Series:
        return Series(decode_column(self._values), index=self._index,
                      name=self.name)

    @classmethod
    def encode(cls, series: Series) -> "ColumnarSeries":
        return cls(encode_column(series.values), series.index, series.name)


# wire tags: a ColumnarFrame crosses the procpool boundary as plain
# tuples of arrays so the int32 code buffers ride the shared-memory
# segment out-of-band and categories pickle once per chunk.
_WIRE_FRAME = "__columnar_frame__"
_WIRE_SERIES = "__columnar_series__"


def _column_to_wire(col):
    if isinstance(col, DictColumn):
        return ("dict", col.categories, col.codes)
    return ("raw", col)


def _column_from_wire(payload):
    if payload[0] == "dict":
        return DictColumn(payload[1], payload[2])
    return payload[1]


class ColumnarEngine(ChunkEngine):
    """Columnar chunks with dictionary-encoded string columns."""

    name = "columnar"
    supports_compiled_fusion = False

    # -- representation -------------------------------------------------
    def persist(self, value: Any) -> Any:
        if isinstance(value, (ColumnarFrame, ColumnarSeries)):
            return value
        if isinstance(value, DataFrame):
            return ColumnarFrame.encode(value)
        if isinstance(value, Series):
            return ColumnarSeries.encode(value)
        return value

    def compute(self, value: Any) -> Any:
        if isinstance(value, (ColumnarFrame, ColumnarSeries)):
            return value.decode()
        return value

    def persisted_column(self, column: np.ndarray) -> np.ndarray:
        encoded = encode_column(column)
        if not isinstance(encoded, DictColumn):
            return column
        return dtypes.encoded(encoded.categories, encoded.codes, cells=column)

    def to_wire(self, value: Any) -> Any:
        if isinstance(value, ColumnarFrame):
            cols = [(name, _column_to_wire(value._data[name]))
                    for name in value._columns]
            return (_WIRE_FRAME, cols, value._index)
        if isinstance(value, ColumnarSeries):
            return (_WIRE_SERIES, _column_to_wire(value._values),
                    value._index, value.name)
        return value

    def from_wire(self, value: Any) -> Any:
        if isinstance(value, tuple) and value and value[0] == _WIRE_FRAME:
            _, cols, index = value
            data = {name: _column_from_wire(payload)
                    for name, payload in cols}
            return ColumnarFrame(data, index, [name for name, _ in cols])
        if isinstance(value, tuple) and value and value[0] == _WIRE_SERIES:
            _, payload, index, name = value
            return ColumnarSeries(_column_from_wire(payload), index, name)
        return value

    # -- shuffle partition kernels -------------------------------------
    def hash_partition(self, value: Any, key: Any,
                       n_parts: int) -> np.ndarray:
        col = self._key_column(value, key)
        if isinstance(col, DictColumn):
            # hash decoded values, never codes: elementwise hashes
            # commute with the codes gather, so this is the exact
            # FNV-1a draw of the row engine at dictionary cost.
            return assign_hash_partitions(col.categories, n_parts)[col.codes]
        return assign_hash_partitions(col, n_parts)

    def range_partition(self, value: Any, key: Any,
                        boundaries: list) -> np.ndarray:
        col = self._key_column(value, key)
        if isinstance(col, DictColumn):
            return assign_range_partitions(col.categories,
                                           boundaries)[col.codes]
        return assign_range_partitions(col, boundaries)

    def split(self, value: Any, assignment: np.ndarray,
              n_parts: int) -> list:
        if not isinstance(value, ColumnarFrame):
            frame = self.compute(value)
            return [self.persist(part) for part in
                    split_by_assignment(frame, assignment, n_parts)]
        order, bounds = id_runs(assignment, n_parts)
        # ``take`` gathers an ndarray's rows or a DictColumn's codes
        gathered = {name: value._data[name].take(order)
                    for name in value._columns}
        parts: list[ColumnarFrame] = []
        for r in range(n_parts):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            data = {}
            for name, col in gathered.items():
                if isinstance(col, DictColumn):
                    # each partition is an independent chunk headed to
                    # its own reducer: storage/wire are charged the
                    # categories it uses, not one full dictionary each.
                    data[name] = DictColumn(col.categories,
                                            col.codes[lo:hi]).compacted()
                else:
                    data[name] = col[lo:hi]
            index = value._index.take(order[lo:hi])
            parts.append(ColumnarFrame(data, index,
                                       list(value._columns)))
        return parts

    @staticmethod
    def _key_column(value: Any, key: Any):
        if isinstance(value, ColumnarFrame):
            return value._data[key]
        return value[key].values


COLUMNAR_ENGINE = register_engine(ColumnarEngine())


# meta nbytes are *logical* so size-driven tiling decisions are
# engine-invariant; sizeof stays physical (see logical_nbytes).
def _describe_frame(value: ColumnarFrame, extra: dict) -> dict:
    return dict(shape=value.shape, nbytes=value.logical_nbytes,
                kind="dataframe", columns=list(value._columns), extra=extra)


def _describe_series(value: ColumnarSeries, extra: dict) -> dict:
    return dict(shape=value.shape, nbytes=value.logical_nbytes,
                kind="series", dtype=value.dtype, extra=extra)


register_describer(ColumnarFrame, _describe_frame)
register_describer(ColumnarSeries, _describe_series)
register_sizeof(ColumnarFrame, lambda v: v.nbytes)
register_sizeof(ColumnarSeries, lambda v: v.nbytes)
register_sizeof(DictColumn, lambda v: v.nbytes)
