"""Dataframe data sources: in-memory frames, CSV files, columnar files.

Datasources are where *static* tiling happens: the initial chunk layout
comes from source size estimates (row counts × bytes/row). Everything
after may be re-tiled dynamically. Datasources also terminate column
pruning: a source reads only the columns its tileable is to carry
(``TileableData.carried_columns``), and chunk sizes follow the bytes
*read* — a source read a quarter as wide is cut into a quarter as many
chunks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operator import DataSourceOp, ExecContext, Operator, TileContext
from ..core.rechunk import balanced_splits
from ..engine.local import DataFrame, RangeIndex
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


class FromFrame(DataSourceOp):
    """Distribute an in-memory single-node frame (client-side data)."""

    def __init__(self, frame: DataFrame, **params):
        super().__init__(**params)
        self.frame = frame

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
        chunks = []
        offset = 0
        for i, rows in enumerate(splits):
            chunk_op = FromFrameSlice(frame=frame, start=offset, stop=offset + rows)
            chunks.append(chunk_op.new_chunk(
                [], "dataframe", (rows, len(columns)), chunk_index("dataframe", i),
                columns=columns,
            ))
            offset += rows
        return [(chunks, (tuple(splits), (len(columns),)))]


class FromFrameSlice(Operator):
    """One row-range of a client frame."""

    def __init__(self, frame: DataFrame, start: int, stop: int, **params):
        super().__init__(start=start, stop=stop, **params)
        self.frame = frame
        self.start = start
        self.stop = stop

    def execute(self, ctx: ExecContext):
        return self.frame.iloc[self.start:self.stop]


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
