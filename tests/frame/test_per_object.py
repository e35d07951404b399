"""Object columns answered once per distinct object, against the per-cell
loops they replaced.

A column of at least ``IDENTITY_ROWS`` cells that is at most
``IDENTITY_BOUND`` shared objects has its comparisons with a scalar, its
``isin``, its NA masks and its ``.str`` maps answered by
``dtypes.per_object``: one call per object, gathered through the object
ids.  Every answer must equal the per-cell loop's
(``reference_kernels``) cell for cell, in type and value, on the cells
that make equality subtle — ``None`` and NaN objects, ``1`` / ``1.0`` /
``True``, ``np.str_``, equal strings that are different objects — and on
the columns that fall back to the loop (empty, 9 objects, 1,023 rows).

Then counted, not timed: a ``str`` subclass counts its dunder calls, and
on k shared objects a comparison, ``isin`` and a ``.str`` method call
each at most k times.
"""

import operator
from collections import Counter

import numpy as np
import pytest

from repro.frame import Series, dtypes

from . import reference_kernels as reference

N = 1_500
NAN = float("nan")
OTHER_NAN = float("nan")  # a second NaN object
AB_LITERAL = "ab"
AB = "".join(["a", "b"])  # equal to ``AB_LITERAL``, not the same object


def shared(objects, n=N, seed=0) -> np.ndarray:
    """``n`` cells drawn from ``objects``; every cell is one of them."""
    pool = dtypes.object_array(objects)
    return pool[np.random.default_rng(seed).integers(0, len(pool), n)]


#: name -> (column, whether ``per_object`` answers it)
COLUMNS = {
    "none-nan": (shared(["a", None, NAN, "b", OTHER_NAN,
                         np.float64("nan")]), True),
    "numbers": (shared([1, 1.0, True, 2, 0.5, False]), True),
    "np-str": (shared([np.str_("a"), "a", "b", np.str_("c"), None]), True),
    "equal-strings": (shared([AB_LITERAL, AB, "c", None]), True),
    "strided": (shared(["x", "ab", None, NAN], n=2 * N)[::2], True),
    "empty": (np.empty(0, dtype=object), False),
    "nine-objects": (shared([f"s{i}" for i in range(8)] + [None]), False),
    "1023-rows": (shared(["a", None, NAN, "ab"], n=1_023), False),
}
STRING_COLUMNS = ["none-nan", "np-str", "equal-strings", "strided", "empty",
                  "nine-objects", "1023-rows"]

OPERATORS = [operator.eq, operator.ne, operator.lt, operator.le,
             operator.gt, operator.ge]
OPERANDS = ["a", "ab", AB, np.str_("a"), 1, 1.0, True, None, NAN]
ITEMS = [["a", None], [1], [NAN], [OTHER_NAN], [True, "b"], [np.str_("a")],
         ["ab"], []]


def outcome(fn):
    """What ``fn`` returns, as a cell-by-cell signature, or the type of
    what it raises."""
    try:
        result = fn()
    except Exception as exc:  # both sides must raise alike
        return type(exc)
    return reference.signature(getattr(result, "values", result))


def test_columns_take_the_path_they_are_named_for():
    assert AB == AB_LITERAL and AB is not AB_LITERAL
    for column, answered in COLUMNS.values():
        assert (dtypes.per_object(column, dtypes.isna_cell, bool)
                is not None) is answered
    assert len(COLUMNS["strided"][0]) >= dtypes.IDENTITY_ROWS
    assert not COLUMNS["strided"][0].flags.c_contiguous


@pytest.mark.parametrize("name", COLUMNS)
@pytest.mark.parametrize("func", OPERATORS, ids=lambda f: f.__name__)
def test_compare_with_a_scalar(name, func):
    column = COLUMNS[name][0]
    for operand in OPERANDS:
        want = outcome(lambda: reference.object_compare(column, operand, func))
        got = outcome(lambda: func(Series(column), operand))
        assert got == want, operand


@pytest.mark.parametrize("name", COLUMNS)
def test_isin(name):
    column = COLUMNS[name][0]
    for items in ITEMS:
        want = outcome(lambda: reference.isin(column, items))
        assert outcome(lambda: Series(column).isin(items)) == want, items


@pytest.mark.parametrize("name", COLUMNS)
def test_missing_masks(name):
    column = COLUMNS[name][0]
    assert (reference.signature(dtypes.isnone_array(column))
            == reference.signature(reference.isnone_array(column)))
    assert (reference.signature(dtypes.isna_array(column))
            == reference.signature(reference.isna_array(column)))
    assert (reference.signature(Series(column).isna().values)
            == reference.signature(reference.isna_array(column)))


STR_METHODS = {
    "lower": (lambda s: s.str.lower(), str.lower, object),
    "len": (lambda s: s.str.len(), len, np.float64),
    "get": (lambda s: s.str.get(1),
            lambda s: s[1] if -len(s) <= 1 < len(s) else None, object),
}


@pytest.mark.parametrize("name", STRING_COLUMNS)
@pytest.mark.parametrize("method", STR_METHODS.values(), ids=STR_METHODS)
def test_str_methods(name, method):
    public, func, out_dtype = method
    column = COLUMNS[name][0]
    assert (outcome(lambda: public(Series(column)))
            == outcome(lambda: reference.str_map(column, func, out_dtype)))


STR_PREDICATES = {
    "contains": (lambda s: s.str.contains("b"), lambda s: "b" in s),
    "startswith": (lambda s: s.str.startswith("a"),
                   lambda s: s.startswith("a")),
    "endswith": (lambda s: s.str.endswith("b"), lambda s: s.endswith("b")),
}


@pytest.mark.parametrize("name", STRING_COLUMNS)
@pytest.mark.parametrize("method", STR_PREDICATES.values(),
                         ids=STR_PREDICATES)
def test_str_predicates_answer_false_on_missing_cells(name, method):
    public, func = method
    column = COLUMNS[name][0]
    assert (outcome(lambda: public(Series(column)))
            == outcome(lambda: reference.str_predicate(column, func)))


@pytest.mark.parametrize("name", ["numbers"])
def test_str_method_raises_like_the_loop(name):
    column = COLUMNS[name][0]
    want = outcome(lambda: reference.str_map(column, str.lower))
    assert want is TypeError
    assert outcome(lambda: Series(column).str.lower()) is want


# ---------------------------------------------------------------------------
# counted: one call per shared object
# ---------------------------------------------------------------------------

class CountingStr(str):
    calls: Counter = Counter()

    def __eq__(self, other):
        CountingStr.calls["__eq__"] += 1
        return str.__eq__(self, other)

    def __lt__(self, other):
        CountingStr.calls["__lt__"] += 1
        return str.__lt__(self, other)

    def __hash__(self):
        CountingStr.calls["__hash__"] += 1
        return str.__hash__(self)

    def __len__(self):
        CountingStr.calls["__len__"] += 1
        return str.__len__(self)

    def __contains__(self, item):
        CountingStr.calls["__contains__"] += 1
        return str.__contains__(self, item)


def counting_column(k: int) -> np.ndarray:
    names = dtypes.object_array(CountingStr(f"key-{i}") for i in range(k))
    return names[np.arange(N) % k]


def distinct_objects_column(k: int) -> np.ndarray:
    """:func:`counting_column`'s cells, each a new object."""
    return dtypes.object_array(CountingStr(f"key-{i % k}") for i in range(N))


MAPS = {
    "eq": (lambda s: s == "key-0", ["__eq__"]),
    "lt": (lambda s: s < "key-1", ["__lt__"]),
    "isin": (lambda s: s.isin(["key-0", "zzz"]), ["__hash__", "__eq__"]),
    "str-len": (lambda s: s.str.len(), ["__len__"]),
    "str-contains": (lambda s: s.str.contains("-1"), ["__contains__"]),
}


def calls_made(fn, dunders) -> list[int]:
    CountingStr.calls.clear()
    fn()
    return [CountingStr.calls[name] for name in dunders]


@pytest.mark.parametrize("k", [1, 2, dtypes.IDENTITY_BOUND])
@pytest.mark.parametrize("kernel", MAPS.values(), ids=MAPS)
def test_each_shared_object_is_asked_once(kernel, k):
    fn, dunders = kernel
    series = Series(counting_column(k))
    assert all(made <= k for made in calls_made(lambda: fn(series), dunders))


@pytest.mark.parametrize("kernel", MAPS.values(), ids=MAPS)
def test_the_counter_sees_a_per_cell_walk(kernel):
    """The guard guards: equal cells that are distinct objects take the
    per-cell loop, and every cell is asked."""
    fn, dunders = kernel
    column = distinct_objects_column(3)
    assert dtypes.shared_objects(column) is None
    assert max(calls_made(lambda: fn(Series(column)), dunders)) >= N
