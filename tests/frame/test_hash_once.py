"""Each key cell is hashed once — counted, not timed.

A ``str`` subclass that counts its ``__hash__`` calls stands in for the
cells of an n-row key column.  Factorizing, encoding join keys and
``Series.unique`` may hash each cell once plus each distinct cell once
more (a ``defaultdict`` hashes a new key again to insert it): at most
n + uniques.  The two-pass factorize this replaced made 2n + uniques.
"""

from unittest import mock

import numpy as np
import pytest

from repro.frame import Series, dtypes
from repro.frame import groupby as frame_groupby
from repro.frame.groupby import factorize
from repro.frame.join import _encode_keys

from . import reference_kernels as reference

N, UNIQUES = 3_000, 7


class CountingStr(str):
    hashes = 0

    def __hash__(self):
        CountingStr.hashes += 1
        return str.__hash__(self)


def counting_column(n: int = N) -> np.ndarray:
    names = [CountingStr(f"key-{i}") for i in range(UNIQUES)]
    return dtypes.object_array(names[i % UNIQUES] for i in range(n))


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


def test_factorize_books_every_cell_through_factorize_cells():
    """``profile_workload.py --encodes`` counts the cells hashed by
    patching ``factorize_cells``; an n-row column, missing cells
    included, is n cells booked."""
    column = counting_column()
    column[::5] = None
    booked = []
    real = frame_groupby.factorize_cells

    def counted(cells):
        booked.append(len(cells))
        return real(cells)

    with mock.patch.object(frame_groupby, "factorize_cells", counted):
        factorize(column)
    assert booked == [N]
