"""Dtype handling and the key contract of ``repro.frame``.

The missing-value conventions mirror pandas 1.x semantics on NumPy
storage:

- float columns use ``nan`` as the missing marker;
- object columns use ``None`` (``nan`` is also recognized);
- integer and boolean columns cannot hold missing values — operations that
  would introduce one promote the column to float / object first;
- ``datetime64[ns]`` columns use ``NaT``.

**The key contract** — which keys are missing, which are equal and how
they order — is written once, below, for hashing, the range shuffle,
joins, ``isin``, sorting and duplicates: the NA test
(:func:`isna_array`), exact equality across dtypes (:func:`exact_int`,
:func:`exact_float`, :func:`integral_in`, :func:`common_dtype`, and
:func:`tightened_dtype` for an object group key) and one total order
(:func:`order_key`).
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from functools import partial
from itertools import compress, repeat
from typing import Any, Callable, Iterable

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


# -- the key contract ------------------------------------------------------

def isna_array(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of missing entries under the conventions above."""
    if arr.dtype.kind == "f":
        return np.isnan(arr)
    if arr.dtype.kind == "M":
        return np.isnat(arr)
    if arr.dtype == object:
        if dictionary_of(arr) is not None:  # every cell is a str
            return np.zeros(len(arr), dtype=bool)
        mask = per_object(arr, isna_cell, bool)
        return isna_cells(arr.tolist()) if mask is None else mask
    return np.zeros(len(arr), dtype=bool)


def isna_cell(cell) -> bool:
    """Whether one cell is missing: ``None`` or a ``float`` NaN."""
    return cell is None or (isinstance(cell, float) and math.isnan(cell))


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


def exact_int(number):
    """The int a number equals exactly, or ``None``."""
    if isinstance(number, (float, np.floating)):
        return int(number) if float(number).is_integer() else None
    return int(number)


def exact_float(number):
    """The float64 a number equals exactly, or ``None``."""
    if isinstance(number, (float, np.floating)):
        return float(number)
    number = int(number)  # a NumPy integer would compare through float64
    try:
        as_float = float(number)
    except OverflowError:  # past the largest float64
        return None
    return as_float if as_float == number else None


#: the cell types of an object column of numbers
_NUMBER_TYPES = frozenset({int, float, np.int64, np.float64})


def number_census(values: np.ndarray) -> tuple[bool, bool, bool] | None:
    """``(holds a float, every int fits int64, every int is exact in
    float64)`` of a non-empty object column of numbers; ``None`` when it
    is empty or a cell is no number.  The census of a column's pieces
    joins to the column's (:func:`tightened_dtype`)."""
    if not len(values) or type(values[0]) not in _NUMBER_TYPES:
        return None  # a column of strings, say, is told at once
    cells = values.tolist()
    if not set(map(type, cells)) <= _NUMBER_TYPES:
        return None
    ints = [cell for cell in cells if not isinstance(cell, float)]
    if not ints:
        return True, True, True
    low, high = min(ints), max(ints)
    int64 = np.iinfo(np.int64)
    # every int within 2**53 of zero is exact; only the rest are tried
    exact = (-2**53 <= low and high <= 2**53) or \
        None not in map(exact_float, ints)
    fits = int64.min <= low and high <= int64.max
    return len(ints) < len(cells), fits, exact


def tightened_dtype(censuses: Iterable) -> np.dtype:
    """The dtype an object column of numbers tightens to, from the
    :func:`number_census` of each of its pieces: ``int64`` when its cells
    are ints that fit, ``float64`` when every cell is exact there
    (:func:`exact_float`: ``2**63 + 1`` is not), else object."""
    censuses = list(censuses)
    if not censuses or None in censuses:
        return np.dtype(object)
    floats, fits, exact = (any(c[0] for c in censuses),
                           all(c[1] for c in censuses),
                           all(c[2] for c in censuses))
    if not floats:
        return np.dtype(np.int64 if fits else object)
    return np.dtype(np.float64 if exact else object)


def integral_in(floats: np.ndarray, dtype) -> np.ndarray:
    """Mask of the floats that equal a value of the integer ``dtype``:
    integral (not NaN) and inside its range (not infinite), whose bounds
    are powers of two, exact in float64."""
    info = np.iinfo(dtype)
    floats = floats.astype(np.float64, copy=False)
    return ((floats == np.floor(floats)) & (floats >= float(info.min))
            & (floats < float(info.max) + 1))


def order_key(value):
    """The total order of present key cells: numbers first, compared as
    Python ints and floats (``2**53 + 1 > 2.0**53``; ``1 == 1.0 ==
    True``), then other types by name and value, tuples last."""
    if isinstance(value, tuple):
        return (1, "", tuple(map(order_key, value)))
    if isinstance(value, (float, np.floating)):
        return (0, "", float(value))
    if isinstance(value, (int, np.integer, np.bool_)):
        return (0, "", int(value))
    return (0, type(value).__name__, value)


def sort_key(cells: Iterable):
    """``None`` when Python's ``<`` orders ``cells`` as :func:`order_key`
    does (one type other than tuple, or Python numbers only), so a plain
    sort is exact; else :func:`order_key`."""
    kinds = set(map(type, cells))
    if kinds <= {int, float, bool} or (len(kinds) == 1 and tuple not in kinds):
        return None
    return order_key


# -- shared objects --------------------------------------------------------

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


def per_object(cells: np.ndarray, func: Callable,
               dtype) -> np.ndarray | None:
    """``func(cell)`` for every cell of the object array ``cells``, as an
    array of ``dtype``, when the cells are a few shared objects
    (:func:`shared_objects`): ``func`` runs once per object and one
    gather through the ids hands each row its object's answer.  ``None``
    otherwise, and the caller walks the cells as before.

    It is exact for a ``func`` that answers an object the same each
    time it is asked (a comparison, a membership test, a string method):
    every row that is an object gets the answer that object gave, and
    every object the rows hold is asked, so a ``func`` that raises on
    some cell raises here too."""
    shared = shared_objects(cells)
    if shared is None:
        return None
    ids, objects = shared
    return map_cells(objects, func, dtype)[ids]


def map_cells(cells: Iterable, func: Callable, dtype) -> np.ndarray:
    """``func(cell)`` for every cell, as an array of ``dtype``."""
    if np.dtype(dtype) == object:
        return object_array(map(func, cells))
    return np.array(list(map(func, cells)), dtype=dtype)


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
    """Mask of the ``None`` cells of an object array: the cells whose
    address is ``None``'s, which is ``is None`` for every cell, read in
    C (:func:`addresses`)."""
    return addresses(arr) == id(None)


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


def common_dtype(arrays: Iterable[np.ndarray]) -> np.dtype:
    """The dtype able to hold the values of all ``arrays`` (pandas-style).

    Mixing object with anything yields object; mixing datetimes with
    non-datetimes yields object; otherwise NumPy promotion, unless that
    meets integer arrays in float64 (a signed one against ``uint64``),
    which rounds past 2**53: then ``int64`` when every value fits it,
    ``uint64`` when none is negative, else object.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("common_dtype of no arrays")
    dtype_list = [arr.dtype for arr in arrays]
    kinds = {dt.kind for dt in dtype_list}
    if "O" in kinds or ("M" in kinds and kinds != {"M"}):
        return np.dtype(object)
    result = dtype_list[0]
    for dt in dtype_list[1:]:
        result = np.promote_types(result, dt)
    if result.kind != "f" or not kinds <= {"i", "u"}:
        return result
    filled = [arr for arr in arrays if len(arr)]
    if all(arr.dtype.kind == "i" or arr.max() <= np.iinfo(np.int64).max
           for arr in filled):
        return np.dtype(np.int64)
    if all(arr.dtype.kind == "u" or arr.min() >= 0 for arr in filled):
        return np.dtype(np.uint64)
    return np.dtype(object)


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
