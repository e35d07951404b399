"""Each key cell is hashed once — counted, not timed.

A ``str`` subclass that counts its ``__hash__`` calls stands in for the
cells of an n-row key column.  Factorizing, encoding join keys and
``Series.unique`` may hash each cell once plus each distinct cell once
more (a ``defaultdict`` hashes a new key again to insert it): at most
n + uniques.  The two-pass factorize this replaced made 2n + uniques.
A column of at most ``IDENTITY_BOUND`` shared objects is numbered by
address, so only its k objects are hashed: at most 2k.
"""

from unittest import mock

import numpy as np
import pytest

from repro.engine import columnar
from repro.frame import Series, dtypes
from repro.frame.groupby import factorize
from repro.frame.join import _encode_keys

from . import reference_kernels as reference

N, UNIQUES = 3_000, 7


class CountingStr(str):
    hashes = 0

    def __hash__(self):
        CountingStr.hashes += 1
        return str.__hash__(self)


def counting_column(n: int = N, uniques: int = UNIQUES) -> np.ndarray:
    names = [CountingStr(f"key-{i}") for i in range(uniques)]
    return dtypes.object_array(names[i % uniques] for i in range(n))


def distinct_objects_column(n: int = N) -> np.ndarray:
    """The cells of :func:`counting_column`, each a new object."""
    return dtypes.object_array(CountingStr(f"key-{i % UNIQUES}")
                               for i in range(n))


def hashes_made(fn) -> int:
    CountingStr.hashes = 0
    fn()
    return CountingStr.hashes


KERNELS = {
    "factorize": lambda column: factorize(column),
    "encode-keys": lambda column: _encode_keys([column[: N // 3]],
                                               [column[N // 3:]]),
    "series-unique": lambda column: Series(column).unique(),
    "series-value-counts": lambda column: Series(column).value_counts(),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_each_cell_is_hashed_once(kernel):
    column = counting_column()
    assert hashes_made(lambda: kernel(column)) <= N + UNIQUES


def test_the_counter_sees_a_second_hash():
    """The guard guards: the two-pass factorize, through the same
    counter, hashes every cell twice."""
    cells = counting_column().tolist()
    assert hashes_made(lambda: reference.factorize_cells(cells)) >= 2 * N


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_each_distinct_object_cell_is_hashed_once(kernel):
    """Equal cells that are distinct objects take the per-cell pass."""
    column = distinct_objects_column()
    assert dtypes.shared_objects(column) is None
    assert hashes_made(lambda: kernel(column)) <= N + UNIQUES


@pytest.mark.parametrize("k", [1, 2, dtypes.IDENTITY_BOUND])
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_shared_objects_are_hashed_twice_at_most(kernel, k):
    column = counting_column(uniques=k)
    assert hashes_made(lambda: kernel(column)) <= 2 * k


def booked_cells(fn) -> list[int]:
    """The length of every list ``dtypes.hash_cells`` hashed while ``fn``
    ran — how ``profile_workload.py --encodes`` and ``--keys`` count."""
    booked = []
    real = dtypes.hash_cells

    def counted(cells):
        booked.append(len(cells))
        return real(cells)

    with mock.patch.object(dtypes, "hash_cells", counted):
        fn()
    return booked


def test_hash_cells_books_the_cells_hashed():
    """A column of shared objects books its objects, any other column
    its rows, missing cells included."""
    column = counting_column()
    column[::5] = None
    assert booked_cells(lambda: factorize(column)) == [UNIQUES + 1]
    column = distinct_objects_column()
    column[::5] = None
    assert booked_cells(lambda: factorize(column)) == [N]


@pytest.mark.parametrize("k", [1, 2, dtypes.IDENTITY_BOUND])
def test_encode_column_hashes_the_shared_objects(k):
    """The columnar encode takes a ``str`` column only (the counting
    subclass is not one): it hands the hash pass k objects, not n rows."""
    names = [f"key-{i}" for i in range(k)]
    column = dtypes.object_array(names[i % k] for i in range(N))
    assert booked_cells(lambda: columnar.encode_column(column)) == [k]
    assert dtypes.dictionary_of(columnar.encode_column(column)) is not None
