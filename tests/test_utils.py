"""Unit tests for repro.utils and repro.frame.sorting kernels."""

import numpy as np
import pytest

from repro.frame.sorting import argsort_values, lexsort_columns
from repro.utils import (
    COMBINE_ARITY,
    ceildiv,
    combine_tree,
    cumulative_offsets,
    geomean,
    human_bytes,
    locate_in_splits,
    new_key,
    sizeof,
    split_even,
    split_length,
    tokenize,
)


class TestKeysAndHashing:
    def test_new_key_unique_and_prefixed(self):
        keys = {new_key("x") for _ in range(100)}
        assert len(keys) == 100
        assert all(k.startswith("x-") for k in keys)

    def test_tokenize_deterministic(self):
        assert tokenize(1, "a", (2, 3)) == tokenize(1, "a", (2, 3))
        assert tokenize(1) != tokenize(2)


class TestSizeof:
    def test_numpy(self):
        assert sizeof(np.zeros(10)) == 80

    def test_object_array_charged_per_element(self):
        arr = np.array(["some string"] * 10, dtype=object)
        assert sizeof(arr) > arr.nbytes  # pointers alone undercount

    def test_containers(self):
        assert sizeof([1, 2, 3]) > sizeof([1])
        assert sizeof({"a": 1}) > 0
        assert sizeof(None) == 16
        assert sizeof("hello") > 5

    def test_unknown_object(self):
        class Thing:
            pass

        assert sizeof(Thing()) == 64


class TestSplits:
    def test_split_length(self):
        assert split_length(10, 4) == [4, 4, 2]
        assert split_length(8, 4) == [4, 4]
        assert split_length(0, 4) == []

    def test_split_length_validation(self):
        with pytest.raises(ValueError):
            split_length(-1, 4)
        with pytest.raises(ValueError):
            split_length(4, 0)

    def test_split_even(self):
        assert split_even(10, 3) == [4, 3, 3]
        assert split_even(3, 5) == [1, 1, 1, 0, 0]

    def test_cumulative_offsets(self):
        assert cumulative_offsets([3, 4, 2]) == [0, 3, 7, 9]
        assert cumulative_offsets([]) == [0]

    def test_locate_in_splits(self):
        assert locate_in_splits(0, [3, 4]) == (0, 0)
        assert locate_in_splits(3, [3, 4]) == (1, 0)
        assert locate_in_splits(6, [3, 4]) == (1, 3)
        with pytest.raises(IndexError):
            locate_in_splits(7, [3, 4])
        with pytest.raises(IndexError):
            locate_in_splits(-1, [3, 4])

    def test_ceildiv(self):
        assert ceildiv(10, 3) == 4
        assert ceildiv(9, 3) == 3


class TestIterationHelpers:
    def test_combine_tree(self):
        """Batches of at most ``COMBINE_ARITY``, combined while more than
        that many remain; a leftover batch of one keeps its combine."""
        def run(n):
            calls = []

            def combine(batch, j):
                calls.append((tuple(batch), j))
                return tuple(batch)
            return combine_tree(range(n), combine), calls

        assert run(0) == ([], [])
        assert run(1) == ([0], [])
        assert run(4) == ([0, 1, 2, 3], [])
        assert run(5) == ([(0, 1, 2, 3), (4,)],
                          [((0, 1, 2, 3), 0), ((4,), 1)])
        left, calls = run(17)  # 17 -> 5 -> 2
        assert left == [((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11),
                         (12, 13, 14, 15)), ((16,),)]
        assert [j for _, j in calls] == [0, 1, 2, 3, 4, 0, 1]
        assert all(len(batch) <= COMBINE_ARITY for batch, _ in calls)

    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KiB"
        assert human_bytes(3 * 1024 ** 3) == "3.0 GiB"
        assert human_bytes(-2048) == "-2.0 KiB"

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])


class TestArgsortValues:
    def test_ascending_descending(self):
        values = np.array([3.0, 1.0, 2.0])
        assert argsort_values(values).tolist() == [1, 2, 0]
        assert argsort_values(values, ascending=False).tolist() == [0, 2, 1]

    def test_na_positions(self):
        values = np.array([2.0, np.nan, 1.0])
        assert argsort_values(values, na_position="last").tolist() == [2, 0, 1]
        assert argsort_values(values, na_position="first").tolist() == [1, 2, 0]
        with pytest.raises(ValueError):
            argsort_values(values, na_position="middle")

    def test_object_values(self):
        values = np.array(["b", None, "a"], dtype=object)
        assert argsort_values(values).tolist() == [2, 0, 1]

    def test_stability(self):
        values = np.array([1.0, 1.0, 0.0])
        assert argsort_values(values).tolist() == [2, 0, 1]


class TestLexsort:
    def test_two_keys(self):
        a = np.array([1, 1, 0])
        b = np.array([2.0, 1.0, 9.0])
        order = lexsort_columns([a, b], [True, True])
        assert order.tolist() == [2, 1, 0]

    def test_mixed_direction(self):
        a = np.array([1, 1, 0])
        b = np.array([1.0, 2.0, 9.0])
        order = lexsort_columns([a, b], [True, False])
        assert order.tolist() == [2, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            lexsort_columns([np.array([1])], [True, False])
        with pytest.raises(ValueError):
            lexsort_columns([], [])
