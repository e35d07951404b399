"""Dtype handling and missing-value semantics for ``repro.frame``.

The conventions mirror pandas 1.x semantics on NumPy storage:

- float columns use ``nan`` as the missing marker;
- object columns use ``None`` (``nan`` is also recognized);
- integer and boolean columns cannot hold missing values — operations that
  would introduce one promote the column to float / object first;
- ``datetime64[ns]`` columns use ``NaT``.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from functools import partial
from itertools import compress, repeat
from typing import Any, Iterable

import numpy as np

_is_none = partial(operator.is_, None)


class DictArray(np.ndarray):
    """An object column of ``str`` cells that may remember its dictionary.

    ``categories`` are the sorted distinct cells (a plain object array)
    and ``codes`` the ``int32`` position of every row in them, so
    ``categories[codes]`` equals the cells.  The cells are real, which is
    what keeps the encoding a pure optimization: a kernel that has never
    heard of it computes with an object array.  Three rules keep the
    dictionary honest —

    - **gathers keep it**: :func:`take` moves the codes with the cells;
    - **consumers use it**: grouping, joining, sorting, shuffle
      partitioning, the NA census and the columnar engine's ``persist``
      read :func:`dictionary_of` and hash no cell;
    - **everyone else drops it**: whatever NumPy derives from the array
      (a copy excepted) starts without one, and writing into the array,
      or into a slice of it, forgets it.  Nothing in ``repro.frame``
      writes into a column in place; a mutation that bypasses
      ``__setitem__`` (``sort()``, ``+=``, a write through
      ``np.asarray(column)``) is not seen.
    """

    categories = None
    codes = None

    def __setitem__(self, item, value):
        owner = self
        while isinstance(owner, DictArray):  # a slice writes its base's cells
            owner.categories = owner.codes = None
            owner = owner.base
        super().__setitem__(item, value)

    def copy(self, order="C"):
        out = super().copy(order)
        if self.categories is not None:  # categories are never written
            out.categories, out.codes = self.categories, self.codes.copy()
        return out

    def __reduce__(self):  # crosses a process boundary as the plain cells
        return self.view(np.ndarray).__reduce__()


def encoded(categories: np.ndarray, codes: np.ndarray,
            cells: np.ndarray | None = None) -> DictArray:
    """The column ``categories[codes]`` (``cells``, when the caller has
    them already), remembering both."""
    out = (categories[codes] if cells is None else cells).view(DictArray)
    out.categories, out.codes = categories, codes
    return out


def dictionary_of(arr: np.ndarray):
    """``(categories, codes)`` of a column that still knows them, else
    ``None`` — the one type check a kernel pays per column."""
    if type(arr) is DictArray and arr.categories is not None:
        return arr.categories, arr.codes
    return None


def take(arr: np.ndarray, rows) -> np.ndarray:
    """``arr[rows]`` for a slice, mask or integer indexer; an encoded
    column's codes move with its cells."""
    out = arr[rows]
    if type(arr) is DictArray and arr.categories is not None:
        out.categories, out.codes = arr.categories, arr.codes[rows]
    return out


def compact_dictionary(categories: np.ndarray,
                       codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dictionary cut down to the entries ``codes`` uses — what a
    fresh encode of the same cells would build — in integer work only."""
    used = np.zeros(len(categories), dtype=bool)
    used[codes] = True
    if used.all():
        return categories, codes
    position = np.cumsum(used, dtype=np.int32) - 1
    return categories[used], position[codes]


def union_dictionaries(columns: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """One dictionary for several encoded columns: the sorted union of
    their categories and each column's codes into it.  Hashes the
    categories (O(uniques)), never a row."""
    dictionaries = [dictionary_of(col) for col in columns]
    first = dictionaries[0][0]
    if all(categories is first or np.array_equal(categories, first)
           for categories, _ in dictionaries):
        return first, [codes for _, codes in dictionaries]
    merged = sorted(set().union(*(categories.tolist()
                                  for categories, _ in dictionaries)))
    position = dict(zip(merged, range(len(merged))))
    union = np.array(merged, dtype=object)
    return union, [
        np.fromiter(map(position.__getitem__, categories.tolist()),
                    dtype=np.int32, count=len(categories))[codes]
        for categories, codes in dictionaries
    ]


def object_array(values: Iterable) -> np.ndarray:
    """A 1-D object array of arbitrary items — safe for tuples, which
    ``np.array`` would otherwise turn into extra dimensions."""
    items = list(values)
    out = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        out[i] = item
    return out


def as_array(values: Any) -> np.ndarray:
    """Coerce arbitrary column input to a 1-D NumPy array.

    Strings become object arrays (never ``<U`` fixed-width arrays) so that
    assignment and concatenation cannot silently truncate.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in ("U", "S"):
        arr = arr.astype(object)
    return arr


def is_numeric(dtype: np.dtype) -> bool:
    """True for integer, float, and boolean dtypes."""
    return dtype.kind in ("i", "u", "f", "b")


def is_float(dtype: np.dtype) -> bool:
    return dtype.kind == "f"


def is_integer(dtype: np.dtype) -> bool:
    return dtype.kind in ("i", "u")


def is_bool(dtype: np.dtype) -> bool:
    return dtype.kind == "b"


def is_object(dtype: np.dtype) -> bool:
    return dtype == object


def is_datetime(dtype: np.dtype) -> bool:
    return dtype.kind == "M"


def isna_array(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of missing entries under the conventions above."""
    if arr.dtype.kind == "f":
        return np.isnan(arr)
    if arr.dtype.kind == "M":
        return np.isnat(arr)
    if arr.dtype == object:
        if dictionary_of(arr) is not None:  # every cell is a str
            return np.zeros(len(arr), dtype=bool)
        return isna_cells(arr.tolist())
    return np.zeros(len(arr), dtype=bool)


def isna_cells(cells: list) -> np.ndarray:
    """Mask of the missing cells of a list: ``None`` and ``float`` NaN.

    The type census picks the passes: an all-``str`` list pays for
    neither, and no cell kind is looked at in the interpreter.
    """
    kinds = set(map(type, cells))
    mask = (np.fromiter(map(_is_none, cells), dtype=bool, count=len(cells))
            if type(None) in kinds else np.zeros(len(cells), dtype=bool))
    if any(issubclass(kind, float) for kind in kinds):
        is_float = np.fromiter(map(isinstance, cells, repeat(float)),
                               dtype=bool, count=len(cells))
        mask[is_float] = np.fromiter(
            map(math.isnan, compress(cells, is_float.tolist())), dtype=bool)
    return mask


_ADDRESS = np.dtype(np.uintp)


class _Addresses:
    """An object array's cells as the addresses they point at: the same
    buffer, typed ``uintp`` and read-only (NumPy refuses ``view`` on an
    array of references, not an ``__array_interface__``)."""

    def __init__(self, cells: np.ndarray):
        face = cells.__array_interface__
        self.__array_interface__ = dict(
            face, typestr=_ADDRESS.str, descr=[("", _ADDRESS.str)],
            data=(face["data"][0], True))
        self.cells = cells  # the view keeps the buffer alive


def addresses(cells: np.ndarray) -> np.ndarray:
    """The object array ``cells`` read as ``uintp`` addresses, no copy.
    While ``cells`` holds a reference to an object no other object can
    take its address, so equal addresses are the same object."""
    return np.asarray(_Addresses(cells))


#: an object column of at least ``IDENTITY_ROWS`` cells whose first
#: ``IDENTITY_WINDOW`` are at most ``IDENTITY_BOUND`` distinct objects is
#: numbered by address, a few NumPy passes per object, and only its
#: objects are hashed.  A shorter column costs less to hash than the
#: path's fixed cost; the bound caps the passes a column that turns out
#: to hold more objects wastes (DESIGN.md, "Local kernels", has the
#: crossover)
IDENTITY_ROWS = 1024
IDENTITY_WINDOW = 64
IDENTITY_BOUND = 8


def shared_objects(cells: np.ndarray) -> tuple[np.ndarray, list] | None:
    """``(ids, objects)`` when the object array ``cells`` is long enough,
    passes the window gate and holds at most ``IDENTITY_BOUND`` distinct
    objects: ``objects`` in first-seen order, ``cells[i] is
    objects[ids[i]]``.  ``None`` otherwise — after at most
    ``IDENTITY_BOUND`` compares."""
    n = len(cells)
    if n < IDENTITY_ROWS:
        return None
    address = addresses(cells)
    if len(np.unique(address[:IDENTITY_WINDOW])) > IDENTITY_BOUND:
        return None
    # each object is the first row no earlier object is: first-seen
    # order.  A row gains 1 for every object found while it is still
    # left, so its id is the number of objects found before its own
    ids = np.zeros(n, dtype=np.int8)
    left = np.ones(n, dtype=bool)
    hit = np.empty(n, dtype=bool)
    objects, start = [], 0
    while True:
        if len(objects) == IDENTITY_BOUND:
            return None
        objects.append(cells[start])
        np.equal(address, address[start], out=hit)
        np.greater(left, hit, out=left)
        start = int(left.argmax())
        if not left[start]:
            return ids, objects
        np.add(ids, left.view(np.int8), out=ids)


def hash_cells(cells: list) -> tuple[np.ndarray, list]:
    """Each cell's position among the distinct cells of a list, and those
    cells in first-seen order — one C pass that hashes every cell once.

    A ``defaultdict`` whose factory is its own ``__len__`` numbers a key
    the first time it is looked up, so equality is the dict's: ``1``,
    ``1.0`` and ``True`` collapse onto whichever came first, and ``None``
    and each NaN object are cells like any other.
    """
    position: defaultdict = defaultdict()
    position.default_factory = position.__len__
    codes = np.fromiter(map(position.__getitem__, cells), dtype=np.int64,
                        count=len(cells))
    return codes, list(position)


def first_seen(cells: np.ndarray, rows=None) -> tuple[np.ndarray, list]:
    """:func:`hash_cells` of a 1-D object array, or of ``cells[rows]``.
    A column of a few distinct objects (:func:`shared_objects`) hashes
    only those objects and gathers: a dict checks identity before
    equality, so an object numbers as every cell that is it would —
    codes, distinct cells and their representatives are the per-cell
    pass's.  With ``rows`` such a column is numbered whole and only its
    object ids are gathered; any other is gathered, then hashed."""
    shared = shared_objects(cells)
    if shared is None:
        return hash_cells((cells if rows is None else cells[rows]).tolist())
    ids, objects = shared
    if rows is not None:
        ids, objects = _present(ids[rows], objects)
    codes, distinct = hash_cells(objects)
    ids = ids.astype(np.int64)
    # no two objects equal: each numbers as its own first-seen position
    return (ids if len(distinct) == len(objects) else codes[ids]), distinct


def _present(ids: np.ndarray, objects: list) -> tuple[np.ndarray, list]:
    """Object ids renumbered over the objects they name, in the order
    each first appears — what :func:`shared_objects` returns for the
    gathered cells.  One compare per object (at most
    ``IDENTITY_BOUND``), and no gather when every object appears and
    in the base's order."""
    if not len(ids):
        return ids, []
    firsts = []
    for i in range(len(objects)):
        hit = ids == i
        at = int(hit.argmax())
        if hit[at]:
            firsts.append((at, i))
    order = [i for _, i in sorted(firsts)]
    if order == list(range(len(objects))):
        return ids, objects
    renumber = np.zeros(len(objects), dtype=np.int8)
    renumber[order] = np.arange(len(order))
    return renumber[ids], [objects[i] for i in order]


def isnone_array(arr: np.ndarray) -> np.ndarray:
    """Mask of the ``None`` cells of an object array."""
    return np.fromiter(map(_is_none, arr.tolist()), dtype=bool, count=len(arr))


def na_value_for(dtype: np.dtype) -> Any:
    """The missing-value marker appropriate for ``dtype``."""
    if dtype.kind == "M":
        return np.datetime64("NaT")
    if dtype == object:
        return None
    return np.nan


def promote_for_na(arr: np.ndarray) -> np.ndarray:
    """Return an array of a dtype able to hold missing values.

    Integers and booleans are promoted to float64; everything else is
    returned unchanged.
    """
    if arr.dtype.kind in ("i", "u", "b"):
        return arr.astype(np.float64)
    return arr


def common_dtype(dtypes: Iterable[np.dtype]) -> np.dtype:
    """The dtype able to hold values of all ``dtypes`` (pandas-style).

    Mixing object with anything yields object; mixing datetimes with
    non-datetimes yields object; otherwise defer to NumPy promotion.
    """
    dtype_list = list(dtypes)
    if not dtype_list:
        raise ValueError("common_dtype of no dtypes")
    if any(dt == object for dt in dtype_list):
        return np.dtype(object)
    kinds = {dt.kind for dt in dtype_list}
    if "M" in kinds and kinds != {"M"}:
        return np.dtype(object)
    result = dtype_list[0]
    for dt in dtype_list[1:]:
        result = np.promote_types(result, dt)
    return result


def values_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """Element-wise equality treating missing values as equal to each other."""
    if len(left) != len(right):
        return False
    left_na = isna_array(left)
    right_na = isna_array(right)
    if not np.array_equal(left_na, right_na):
        return False
    mask = ~left_na
    if left.dtype == object or right.dtype == object:
        return not any(map(operator.ne, left[mask], right[mask]))
    return bool(np.array_equal(left[mask], right[mask]))
