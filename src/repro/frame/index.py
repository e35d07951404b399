"""Row/column label containers: :class:`Index`, :class:`RangeIndex`,
and a tuple-based :class:`MultiIndex`.

The distributed layer (Section III-C, "Indexing and Ordering") relies on
each chunk carrying its own index so that label- and position-based
operators (``loc``, ``iloc``) can be reassembled globally.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from . import dtypes
from .sorting import argsort_values


def take_rows(arr: np.ndarray, rows) -> np.ndarray:
    """``arr[rows]`` as an array the result owns: a basic slice is a view,
    so it is copied — a view would keep its whole base buffer alive after
    the input it came from is freed, while the memory accounting charges
    only the window (a source slice, which borrows on purpose, does not
    come here). An encoded column's dictionary moves with the rows."""
    out = dtypes.take(arr, rows)
    return out.copy() if isinstance(rows, slice) else out


class Index:
    """An immutable 1-D array of row or column labels."""

    __slots__ = ("_values", "name")

    def __init__(self, values: Any, name: str | None = None):
        self._values = dtypes.as_array(values)
        self.name = name

    # -- basic protocol ------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nbytes(self) -> int:
        if self.values.dtype == object:
            return len(self.values) * 64
        return int(self.values.nbytes)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            return self.values[item]
        return type(self)(self.values[item], name=self.name)

    def __contains__(self, label) -> bool:
        return bool(np.any(self.values == label))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.values[:10])!r}{'...' if len(self) > 10 else ''}, name={self.name!r})"

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if not isinstance(other, Index):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):  # indexes are used in sets keyed by identity
        return id(self)

    # -- operations ----------------------------------------------------------
    def equals(self, other: "Index") -> bool:
        """Value equality, ignoring names (like pandas ``Index.equals``)."""
        if len(self) != len(other):
            return False
        return dtypes.values_equal(self.values, other.values)

    def take(self, indexer) -> "Index":
        return Index(take_rows(self.values, indexer), name=self.name)

    def append(self, other: "Index") -> "Index":
        dtype = dtypes.common_dtype([self.values, other.values])
        values = np.concatenate(
            [self.values.astype(dtype), other.values.astype(dtype)]
        )
        name = self.name if self.name == other.name else None
        return Index(values, name=name)

    def get_indexer(self, labels: Sequence) -> np.ndarray:
        """Position of each label; raises KeyError on a missing label."""
        positions = {}
        for pos, value in enumerate(self.values):
            if value not in positions:
                positions[value] = pos
        out = np.empty(len(labels), dtype=np.int64)
        for i, label in enumerate(labels):
            if label not in positions:
                raise KeyError(label)
            out[i] = positions[label]
        return out

    def slice_indexer(self, start, stop) -> np.ndarray:
        """Positions for a label slice ``start:stop`` (both inclusive)."""
        mask = np.ones(len(self), dtype=bool)
        if start is not None:
            first = np.flatnonzero(self.values == start)
            if len(first) == 0:
                raise KeyError(start)
            mask[: first[0]] = False
        if stop is not None:
            last = np.flatnonzero(self.values == stop)
            if len(last) == 0:
                raise KeyError(stop)
            mask[last[-1] + 1:] = False
        return np.flatnonzero(mask)

    def argsort(self) -> np.ndarray:
        return argsort_values(self.values)

    def is_monotonic_increasing(self) -> bool:
        if len(self) <= 1:
            return True
        values = self.values
        if self.dtype == object:  # a stable sort leaves sorted labels be
            return bool((self.argsort() == np.arange(len(values))).all())
        return bool(np.all(values[1:] >= values[:-1]))

    def copy(self) -> "Index":
        return Index(self.values.copy(), name=self.name)

    def to_list(self) -> list:
        return self.values.tolist()


class RangeIndex(Index):
    """The default ``0..n-1`` index, stored lazily."""

    __slots__ = ("start", "stop")

    def __init__(self, stop: int, start: int = 0, name: str | None = None):
        if stop < start:
            stop = start
        self.start = int(start)
        self.stop = int(stop)
        self.name = name
        self._values = None  # type: ignore[assignment]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.arange(self.start, self.stop, dtype=np.int64)
        return self._values

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    @property
    def nbytes(self) -> int:
        return 32

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        return iter(range(self.start, self.stop))

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            idx = int(item)
            if idx < 0:
                idx += len(self)
            if not 0 <= idx < len(self):
                raise IndexError(item)
            return self.start + idx
        return Index(self.values[item], name=self.name)

    def __contains__(self, label) -> bool:
        return isinstance(label, (int, np.integer)) and self.start <= label < self.stop

    def equals(self, other: "Index") -> bool:
        if isinstance(other, RangeIndex):
            if len(self) == len(other) == 0:
                return True
            return self.start == other.start and self.stop == other.stop
        return super().equals(other)

    def argsort(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64)

    def is_monotonic_increasing(self) -> bool:
        return True

    def copy(self) -> "RangeIndex":
        return RangeIndex(self.stop, start=self.start, name=self.name)


class MultiIndex(Index):
    """A hierarchical index stored as an object array of tuples."""

    __slots__ = ("names",)

    def __init__(self, tuples: Iterable[tuple], names: Sequence[str | None] | None = None):
        values = np.empty(len(list_ := list(tuples)), dtype=object)
        for i, tup in enumerate(list_):
            values[i] = tuple(tup)
        self._values = values
        self.names = list(names) if names is not None else []
        self.name = None

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], names: Sequence[str | None] | None = None) -> "MultiIndex":
        if not arrays:
            raise ValueError("from_arrays requires at least one array")
        length = len(arrays[0])
        if any(len(a) != length for a in arrays):
            raise ValueError("all arrays must have equal length")
        tuples = list(zip(*[dtypes.as_array(a).tolist() for a in arrays]))
        return cls(tuples, names=names)

    @property
    def nlevels(self) -> int:
        if len(self._values):
            return len(self._values[0])
        return len(self.names)

    def get_level_values(self, level: int | str) -> Index:
        if isinstance(level, str):
            level = self.names.index(level)
        values = np.array([tup[level] for tup in self._values], dtype=object)
        name = self.names[level] if level < len(self.names) else None
        return Index(values, name=name)

    def take(self, indexer: np.ndarray) -> "MultiIndex":
        return MultiIndex(self._values[indexer].tolist(), names=self.names)

    def append(self, other: Index) -> Index:
        if isinstance(other, MultiIndex):
            return MultiIndex(
                self._values.tolist() + other.values.tolist(),
                names=self.names if self.names == other.names else [],
            )
        return super().append(other)

    def copy(self) -> "MultiIndex":
        return MultiIndex(self._values.tolist(), names=list(self.names))


def default_index(n: int) -> RangeIndex:
    """The index a new frame gets when none is supplied."""
    return RangeIndex(n)


def ensure_index(value, n: int | None = None) -> Index:
    """Coerce user input to an :class:`Index`.

    ``None`` becomes a :class:`RangeIndex` of length ``n``.
    """
    if value is None:
        if n is None:
            raise ValueError("cannot build a default index without a length")
        return default_index(n)
    if isinstance(value, Index):
        return value
    return Index(value)
