""":class:`Selection` — the rows a filter keeps, chosen but not gathered.

A boolean filter over a frame is one ``np.flatnonzero`` and then one
gather per column.  Inside a chain of kernels most of those gathers are
wasted: the next filter gathers the survivors again, a groupby gathers
its columns once more in group order, a join once more in output order.
A ``Selection`` defers them.  It is a base frame, one ``int64`` vector of
the base's row positions, and the columns already computed at the
selected length (assigned ones, and base columns some reader gathered
already, kept so nothing gathers a column twice):

- a filter over a selection composes the row vectors
  (``rows[positions]``) and gathers no base column;
- a column read, a projection and an assignment work as on a frame;
- a kernel that reorders rows (a groupby's group order, a join's output
  order) takes each column it reads once, through the composed indexer
  (:meth:`Selection.taker`);
- :meth:`Selection.materialize` builds the frame ``base[mask]`` would
  have been — one gather per column, memoized.  Every other reader gets
  that frame, so a selection never outlives the kernels of one subtask.

:attr:`Selection.nbytes` is the materialized frame's, computed without
gathering anything, so what a selection is charged never depends on
whether it was materialized.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import dtypes
from .index import Index, RangeIndex
from .series import Series


#: the share of its base's rows a one-mask selection must keep for an
#: object column to be compressed by the mask: below it a branchy
#: compress over every base row loses to gathering the kept ``rows``
#: (DESIGN.md, "Selections inside a subtask", has the crossover)
MASK_KEPT = 0.95


class Selection:
    """Rows ``rows`` of the frame ``base``, over the columns ``columns``."""

    __slots__ = ("base", "rows", "mask", "_columns", "_computed",
                 "_gathered", "_index", "_frame")

    def __init__(self, base, rows: np.ndarray, columns: list | None = None,
                 computed: dict | None = None, gathered: dict | None = None,
                 mask: np.ndarray | None = None):
        #: the frame the rows are positions in (never itself a selection)
        self.base = base
        #: ``int64`` positions into ``base``, in order
        self.rows = rows
        #: the boolean mask over ``base`` that ``rows`` are the true
        #: positions of, when one mask made them and they are at least
        #: ``MASK_KEPT`` of the base's rows (else ``None``)
        self.mask = (mask if mask is not None
                     and len(rows) >= MASK_KEPT * len(mask) else None)
        self._columns = list(base._columns) if columns is None else columns
        #: columns made at the selected length (assignments); they win
        #: over a base column of the same name
        self._computed = {} if computed is None else computed
        #: base columns already gathered at ``rows``; shared by every
        #: selection over the same ``rows`` (projections, assignments)
        self._gathered = {} if gathered is None else gathered
        self._index = None
        self._frame = None

    # -- the one gather ------------------------------------------------------
    def gather(self, name, positions: np.ndarray) -> np.ndarray:
        """Base column ``name`` at base ``positions``: the only place a
        selection moves a base column's cells.  An object column of a
        selection that kept its mask is compressed by the mask rather
        than gathered at ``rows``: the same array, faster."""
        column = self.base._data[name]
        if (positions is self.rows and self.mask is not None
                and column.dtype == object):
            positions = self.mask
        return dtypes.take(column, positions)

    # -- frame protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self._columns)

    def __contains__(self, name) -> bool:
        return name in self._columns

    @property
    def columns(self) -> Index:
        return Index(dtypes.object_array(self._columns))

    @property
    def index(self) -> Index:
        """The base index at ``rows``; a default index's labels are its
        positions plus its start, so nothing is gathered for it."""
        if self._index is None:
            index = self.base._index
            if type(index) is RangeIndex:
                self._index = Index(self.rows + index.start, name=index.name)
            else:
                self._index = index.take(self.rows)
        return self._index

    @property
    def nbytes(self) -> int:
        """:attr:`DataFrame.nbytes` of the materialized frame, from the
        dtypes alone."""
        if self._frame is not None:
            return self._frame.nbytes
        n = len(self.rows)
        index = self.base._index
        total = n * (64 if index.dtype == object else index.dtype.itemsize)
        total += 64
        for name in self._columns:
            arr = self._computed.get(name)
            dtype = (self.base._data[name] if arr is None else arr).dtype
            total += n * 64 + 96 if dtype == object else n * dtype.itemsize
        return total

    def base_column(self, name):
        """Base column ``name`` at full base length, or ``None`` when the
        selection's column is one it computed."""
        if name in self._computed:
            return None
        if name not in self._columns:
            raise KeyError(name)
        return self.base._data[name]

    def column(self, name) -> np.ndarray:
        """Column ``name`` at the selected length; a base column is
        gathered on first read and kept."""
        arr = self._computed.get(name)
        if arr is None:
            arr = self._gathered.get(name)
            if arr is None:
                if name not in self._columns:
                    raise KeyError(name)
                arr = self._gathered[name] = self.gather(name, self.rows)
        return arr

    def taker(self, positions: np.ndarray) -> Callable[[object], np.ndarray]:
        """``take(name)``: column ``name`` at ``positions`` (into the
        selection).  A column read already is taken from what was read;
        a base column is gathered once, through ``rows[positions]``,
        composed on first use."""
        composed = []

        def take(name) -> np.ndarray:
            arr = self._computed.get(name)
            if arr is None:
                arr = self._gathered.get(name)
            if arr is not None:
                return dtypes.take(arr, positions)
            if name not in self._columns:
                raise KeyError(name)
            if not composed:
                composed.append(self.rows[positions])
            return self.gather(name, composed[0])

        return take

    def __getitem__(self, item):
        if isinstance(item, list):
            missing = [c for c in item if c not in self._columns]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            return self._project(list(item))
        if isinstance(item, (Series, np.ndarray)):
            return self.select_rows(item)
        if not isinstance(item, slice) and item in self._columns:
            return Series(self.column(item), index=self.index, name=item)
        return self.materialize()[item]

    def _project(self, columns: list) -> "Selection":
        computed = {name: arr for name, arr in self._computed.items()
                    if name in columns}
        out = Selection(self.base, self.rows, columns, computed,
                        self._gathered, self.mask)
        out._index = self._index
        return out

    def select_rows(self, mask) -> "Selection":
        """The rows of this selection where the boolean ``mask`` holds:
        the row vectors compose, and only computed columns move."""
        values = mask.values if isinstance(mask, Series) else mask
        if not (isinstance(values, np.ndarray) and values.dtype == bool):
            return self.materialize()[mask]
        if len(values) != len(self.rows):
            raise ValueError("boolean mask length mismatch")
        positions = np.flatnonzero(values)
        computed = {name: dtypes.take(arr, positions)
                    for name, arr in self._computed.items()}
        return Selection(self.base, self.rows[positions],
                         list(self._columns), computed)

    def __setitem__(self, name, value) -> None:
        if isinstance(value, Series):
            arr = value.values
        elif np.isscalar(value) or value is None:
            arr = dtypes.as_array(np.full(len(self.rows), value))
        else:
            arr = dtypes.as_array(value)
        if len(arr) != len(self.rows):
            raise ValueError(f"length mismatch: assigning {len(arr)} values "
                             f"to {len(self.rows)} rows")
        self._computed[name] = arr
        self._frame = None
        if name not in self._columns:
            self._columns.append(name)

    def assign(self, **new_columns) -> "Selection":
        if not self._columns:  # a frame without columns takes any length
            return self.materialize().assign(**new_columns)
        out = self._project(list(self._columns))
        for name, value in new_columns.items():
            if callable(value):
                value = value(out)
            out[name] = value
        return out

    # -- leaving the kernels -------------------------------------------------
    def materialize(self):
        """The frame ``base[mask]`` would have been: one gather per
        column not read yet, once."""
        if self._frame is None:
            data = {name: self.column(name) for name in self._columns}
            self._frame = type(self.base)._new(data, self.index,
                                               list(self._columns))
        return self._frame

    def __reduce__(self):
        # what crosses a process boundary, or is copied, is the frame
        return _frame_value, (self.materialize(),)


def _frame_value(frame):
    return frame


def materialized(value):
    """``value`` as every reader but a selection-reading kernel sees it:
    a selection becomes its frame, anything else stays as it is."""
    return value.materialize() if type(value) is Selection else value


def column_of(source, name) -> np.ndarray:
    """Column ``name`` of a frame or a selection, at its own length."""
    if type(source) is Selection:
        return source.column(name)
    return source._data[name]


def taker(source, positions: np.ndarray) -> Callable[[object], np.ndarray]:
    """``take(name)``: column ``name`` of a frame or a selection at
    ``positions``, each column moved once (:meth:`Selection.taker`)."""
    if type(source) is Selection:
        return source.taker(positions)
    data = source._data
    return lambda name: dtypes.take(data[name], positions)
