"""Dataframe data sources: in-memory frames, CSV files, columnar files.

Datasources are where *static* tiling happens: the initial chunk layout
comes from source size estimates (row counts × bytes/row). Everything
after may be re-tiled dynamically. Datasources also terminate column
pruning: a source reads only the columns its tileable is to carry
(``TileableData.carried_columns``), and chunk sizes follow the bytes
*read* — a source read a quarter as wide is cut into a quarter as many
chunks.

An in-memory source meets the chunk engine once per handle: the first
slice that reads a column asks the engine what its ``persist`` makes of
the whole column (:class:`SourceDictionary`), and every slice after that
hands out a window of the answer — on the columnar engine a string
column is hashed once per handle, not once per slice and execute.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..core.operator import DataSourceOp, ExecContext, Operator, TileContext
from ..core.rechunk import balanced_splits
from ..engine.local import DataFrame, RangeIndex
from ..engine.local import dtypes
from ..engine.local import io as frame_io
from ..utils import sizeof
from .utils import chunk_index


def _with_global_index(frame: DataFrame, start: int) -> DataFrame:
    """Give a freshly-read chunk its position in the global row space."""
    return frame._copy_onto(RangeIndex(start + len(frame), start=start))


def columns_to_read(op: DataSourceOp, columns: list) -> list:
    """What source ``op`` reads of its ``columns``: those the pruning pass
    said its tileable is to carry (``None`` = all), in *source* order, and
    never none at all — the rows and their index ride on a column, so an
    empty requirement keeps the first."""
    carried = op.outputs[0].carried_columns
    if carried is None:
        return columns
    return [c for c in columns if c in carried] or columns[:1]


def _same_cells(live: np.ndarray, pinned: np.ndarray) -> bool:
    """Whether ``live`` still holds the cells of its snapshot ``pinned``:
    the same objects, or equal values of the exact same type (an equal
    ``np.str_`` is not the ``str`` it equals).  While ``pinned`` holds a
    reference to a cell no other object can take its address, so the
    identity test is an integer compare; only moved cells are looked at."""
    if live.shape != pinned.shape or live.dtype != pinned.dtype:
        return False
    if live.dtype.kind != "O":
        return live.tobytes() == pinned.tobytes()
    moved = np.flatnonzero(dtypes.addresses(live)
                           != dtypes.addresses(pinned))
    return all(type(now) is type(then) and now == then for now, then in
               zip(live[moved].tolist(), pinned[moved].tolist()))


#: a column no entry may serve yet: never read, or its witness failed
_STALE = object()


class SourceDictionary:
    """What the chunk engine's ``persist`` makes of a source's columns,
    worked out once per handle, lazily, by the first slice that reads
    each column (:meth:`RowEngine.persisted_column`).

    An entry is ``None`` when the engine keeps the column as it is (every
    column on the row engine), else a copy of the engine's form: a
    snapshot of the client cells that were encoded, their dictionary
    riding along.  The snapshot is the witness — a slice is served from
    it only while its window of the client column still holds the same
    cells, so a client frame written between two executes is encoded
    again, never served stale.

    One lock makes the first encode of a column happen once, whichever
    band gets there first; it is deterministic, so which one does not
    matter.  Lives on the :class:`FromFrame` and never crosses a process
    boundary: a slice run in a worker process reads its cells as before.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: ``(engine, {column name: entry})``, swapped whole
        self._state: tuple = (None, {})

    def window(self, engine, frame: DataFrame, name,
               rows: slice) -> Optional[np.ndarray]:
        """``engine``'s form of ``frame[name][rows]``, or ``None`` to
        serve the client cells as they are."""
        entry = self._valid_entry(engine, frame, name, rows)
        if entry is _STALE:
            with self._lock:
                entry = self._valid_entry(engine, frame, name, rows)
                if entry is _STALE:
                    owner, entries = self._state
                    if owner is not engine:
                        entries = {}
                        self._state = (engine, entries)
                    entry = entries[name] = _encode(engine,
                                                    frame[name].values)
        # a copy: the piece is the slice's to keep, the entry the handle's
        return None if entry is None else dtypes.take(entry, rows).copy()

    def _valid_entry(self, engine, frame, name, rows):
        owner, entries = self._state
        entry = entries.get(name, _STALE) if owner is engine else _STALE
        if entry is None or entry is _STALE or _same_cells(
                frame[name].values[rows], entry[rows]):
            return entry
        return _STALE


def _encode(engine, column: np.ndarray) -> Optional[np.ndarray]:
    form = engine.persisted_column(column)
    return None if form is column else form.copy()


class FromFrame(DataSourceOp):
    """Distribute an in-memory single-node frame (client-side data)."""

    def __init__(self, frame: DataFrame, **params):
        super().__init__(**params)
        self.frame = frame
        #: made by the first tiling, filled by the first slices to run
        self._dictionary: Optional[SourceDictionary] = None

    def _read_frame(self) -> DataFrame:
        """The client frame narrowed to the columns read (no copy)."""
        frame = self.frame
        columns = columns_to_read(self, frame.columns.to_list())
        return frame[columns] if len(columns) < len(frame.columns) else frame

    def identity_attrs(self):
        # the cache fingerprints the columns read, not the whole frame.
        return {"frame": self._read_frame()}

    def tile(self, ctx: TileContext):
        frame = self._read_frame()
        columns = frame.columns.to_list()
        n = len(frame)
        bytes_per_row = max(frame.nbytes // max(n, 1), 1)
        splits = balanced_splits(n, ctx.config.chunk_store_limit, bytes_per_row)
        if not splits:
            splits = [0]
        if self._dictionary is None:
            self._dictionary = SourceDictionary()
        chunks = []
        offset = 0
        for i, rows in enumerate(splits):
            chunk_op = FromFrameSlice(frame=frame, start=offset,
                                      stop=offset + rows,
                                      dictionary=self._dictionary)
            chunks.append(chunk_op.new_chunk(
                [], "dataframe", (rows, len(columns)), chunk_index("dataframe", i),
                columns=columns,
            ))
            offset += rows
        return [(chunks, (tuple(splits), (len(columns),)))]


def _borrowed(column: np.ndarray, rows: slice) -> np.ndarray:
    """A read-only window of a client column: no bytes move, and a
    kernel that writes into it raises instead of editing the client."""
    window = dtypes.take(column, rows)
    window.flags.writeable = False
    return window


class FromFrameSlice(Operator):
    """One row-range of a client frame, its columns borrowed: the next
    kernel reads them where they are, and the executor copies one only
    if it is about to be stored (:meth:`borrowed_arrays`)."""

    #: the handle's dictionary; it stays in this process, so a slice
    #: unpickled elsewhere reads its cells as they are
    _dictionary: Optional[SourceDictionary] = None

    def __init__(self, frame: DataFrame, start: int, stop: int,
                 dictionary: Optional[SourceDictionary] = None, **params):
        super().__init__(start=start, stop=stop, **params)
        self.frame = frame
        self.start = start
        self.stop = stop
        self._dictionary = dictionary

    def execute(self, ctx: ExecContext):
        frame = self.frame
        rows = slice(self.start, self.stop)
        data = {}
        for name in frame:
            form = (None if self._dictionary is None else
                    self._dictionary.window(ctx.engine, frame, name, rows))
            data[name] = (_borrowed(frame._data[name], rows) if form is None
                          else form)
        return DataFrame._new(data, frame.index.take(rows), list(frame))

    def borrowed_arrays(self) -> list:
        return [self.frame._data[name] for name in self.frame]

    def __getstate__(self):
        state = dict(vars(self))
        state.pop("_dictionary", None)
        return state


class ReadParquet(DataSourceOp):
    """Read an ``.rpq`` columnar file as a distributed dataframe.

    Tiling reads only metadata (row count, columns, file size); each chunk
    reads its own row range, and only the pruned columns, at execution.
    """

    file_params = ("path",)

    def __init__(self, path, columns: Optional[list] = None, **params):
        super().__init__(path=path, **params)
        self.path = path
        self.columns = list(columns) if columns is not None else None

    def tile(self, ctx: TileContext):
        meta = frame_io.parquet_metadata(self.path)
        all_columns = [c["name"] for c in meta["columns"]]
        columns = columns_to_read(
            self, self.columns if self.columns is not None else all_columns)
        n_rows = meta["n_rows"]
        file_size = frame_io.parquet_file_size(self.path)
        in_memory = int(file_size * 1.6) * max(len(columns), 1) // max(
            len(all_columns), 1
        )
        bytes_per_row = max(in_memory // max(n_rows, 1), 1)
        splits = balanced_splits(n_rows, ctx.config.chunk_store_limit,
                                 bytes_per_row)
        if not splits:
            splits = [0]
        chunks = []
        offset = 0
        for i, rows in enumerate(splits):
            chunk_op = ReadParquetChunk(
                path=self.path, columns=columns,
                start=offset, stop=offset + rows,
            )
            chunks.append(chunk_op.new_chunk(
                [], "dataframe", (rows, len(columns)),
                chunk_index("dataframe", i), columns=columns,
            ))
            offset += rows
        return [(chunks, (tuple(splits), (len(columns),)))]


class ReadParquetChunk(Operator):
    file_params = ("path",)

    def execute(self, ctx: ExecContext):
        p = self.params
        frame = frame_io.read_parquet(
            p["path"], columns=p["columns"], row_range=(p["start"], p["stop"])
        )
        return _with_global_index(frame, p["start"])


class ReadCSV(DataSourceOp):
    """Read a CSV file as a distributed dataframe (row-range chunks)."""

    file_params = ("path",)

    def __init__(self, path, columns: Optional[list] = None,
                 parse_dates: Optional[list] = None, **params):
        super().__init__(path=path, **params)
        self.path = path
        self.columns = list(columns) if columns is not None else None
        self.parse_dates = list(parse_dates) if parse_dates is not None else []

    def tile(self, ctx: TileContext):
        import os

        n_rows = frame_io.csv_row_count(self.path)
        file_size = os.path.getsize(self.path)
        bytes_per_row = max(int(file_size * 1.8) // max(n_rows, 1), 1)
        header = frame_io.read_csv(self.path, nrows=1)
        all_columns = header.columns.to_list()
        columns = columns_to_read(
            self, self.columns if self.columns is not None else all_columns)
        splits = balanced_splits(n_rows, ctx.config.chunk_store_limit,
                                 bytes_per_row)
        if not splits:
            splits = [0]
        chunks = []
        offset = 0
        for i, rows in enumerate(splits):
            chunk_op = ReadCSVChunk(
                path=self.path, columns=columns, start=offset, rows=rows,
                parse_dates=self.parse_dates,
            )
            chunks.append(chunk_op.new_chunk(
                [], "dataframe", (rows, len(columns)),
                chunk_index("dataframe", i), columns=columns,
            ))
            offset += rows
        return [(chunks, (tuple(splits), (len(columns),)))]


class ReadCSVChunk(Operator):
    file_params = ("path",)

    def execute(self, ctx: ExecContext):
        p = self.params
        frame = frame_io.read_csv(
            p["path"], usecols=p["columns"], skiprows=p["start"],
            nrows=p["rows"], parse_dates=p["parse_dates"],
        )
        return _with_global_index(frame, p["start"])
