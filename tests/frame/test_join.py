"""Unit tests for repro.frame merge/join."""

import numpy as np
import pytest

from repro import frame as pf


@pytest.fixture
def left():
    return pf.DataFrame({"k": [1, 2, 2, 3], "lv": ["a", "b", "c", "d"]})


@pytest.fixture
def right():
    return pf.DataFrame({"k": [2, 2, 4], "rv": [20.0, 21.0, 40.0]})


class TestInner:
    def test_one_to_many(self, left, right):
        out = left.merge(right, on="k", how="inner")
        assert out["k"].to_list() == [2, 2, 2, 2]
        assert out["lv"].to_list() == ["b", "b", "c", "c"]
        assert out["rv"].to_list() == [20.0, 21.0, 20.0, 21.0]

    def test_no_matches(self):
        a = pf.DataFrame({"k": [1], "v": [1]})
        b = pf.DataFrame({"k": [2], "w": [2]})
        out = a.merge(b, on="k")
        assert len(out) == 0
        assert out.columns.to_list() == ["k", "v", "w"]

    def test_multi_key(self):
        a = pf.DataFrame({"k1": [1, 1], "k2": ["x", "y"], "v": [10, 11]})
        b = pf.DataFrame({"k1": [1, 1], "k2": ["y", "z"], "w": [20, 21]})
        out = a.merge(b, on=["k1", "k2"])
        assert out["v"].to_list() == [11]
        assert out["w"].to_list() == [20]

    def test_default_on_common_columns(self, left, right):
        out = left.merge(right)
        assert len(out) == 4


class TestLeftRightOuter:
    def test_left_preserves_order_and_fills_nan(self, left, right):
        out = left.merge(right, on="k", how="left")
        assert out["lv"].to_list() == ["a", "b", "b", "c", "c", "d"]
        rv = out["rv"].to_list()
        assert np.isnan(rv[0]) and np.isnan(rv[-1])

    def test_right(self, left, right):
        out = left.merge(right, on="k", how="right")
        assert out["k"].to_list() == [2, 2, 2, 2, 4]
        assert not np.isnan(out["rv"].to_list()[-1])
        assert out["lv"].to_list()[-1] is None

    def test_outer_includes_both_sides(self, left, right):
        out = left.merge(right, on="k", how="outer")
        assert sorted(out["k"].to_list()) == [1, 2, 2, 2, 2, 3, 4]
        # key column is coalesced: the right-only row keeps its key
        assert 4 in out["k"].to_list()

    def test_invalid_how(self, left, right):
        with pytest.raises(ValueError):
            left.merge(right, on="k", how="cross")

    @pytest.mark.parametrize("how", ["left", "outer"])
    def test_empty_right_side_fills_every_row(self, left, right, how):
        # nothing to gather from: every right cell is the NA marker (this
        # used to index into the empty column and raise IndexError).
        out = left.merge(right.iloc[:0], on="k", how=how)
        assert out["lv"].to_list() == ["a", "b", "c", "d"]
        assert np.isnan(np.asarray(out["rv"].values, float)).all()


class TestKeysAndSuffixes:
    def test_left_on_right_on(self):
        a = pf.DataFrame({"ka": [1, 2], "v": [10, 20]})
        b = pf.DataFrame({"kb": [2, 3], "w": [200, 300]})
        out = a.merge(b, left_on="ka", right_on="kb")
        assert out["ka"].to_list() == [2]
        assert out["kb"].to_list() == [2]

    def test_missing_key_raises(self, left, right):
        with pytest.raises(KeyError):
            left.merge(right, on="nope")

    def test_suffixes_on_overlap(self):
        a = pf.DataFrame({"k": [1], "v": [10]})
        b = pf.DataFrame({"k": [1], "v": [99]})
        out = a.merge(b, on="k")
        assert out.columns.to_list() == ["k", "v_x", "v_y"]

    def test_custom_suffixes(self):
        a = pf.DataFrame({"k": [1], "v": [10]})
        b = pf.DataFrame({"k": [1], "v": [99]})
        out = a.merge(b, on="k", suffixes=("_l", "_r"))
        assert out.columns.to_list() == ["k", "v_l", "v_r"]

    def test_sort_true_sorts_by_key(self):
        a = pf.DataFrame({"k": [3, 1, 2], "v": [1, 2, 3]})
        b = pf.DataFrame({"k": [1, 2, 3], "w": [9, 8, 7]})
        out = a.merge(b, on="k", sort=True)
        assert out["k"].to_list() == [1, 2, 3]


class TestNaKeys:
    def test_nan_keys_never_match(self):
        a = pf.DataFrame({"k": [1.0, np.nan], "v": [1, 2]})
        b = pf.DataFrame({"k": [np.nan, 1.0], "w": [10, 20]})
        out = a.merge(b, on="k", how="inner")
        assert out["v"].to_list() == [1]

    def test_none_keys_never_match(self):
        a = pf.DataFrame({"k": ["x", None], "v": [1, 2]})
        b = pf.DataFrame({"k": [None, "x"], "w": [10, 20]})
        assert len(a.merge(b, on="k")) == 1


class TestMixedDtypeKeys:
    def test_int_float_keys_match(self):
        a = pf.DataFrame({"k": np.array([1, 2], dtype=np.int64), "v": [1, 2]})
        b = pf.DataFrame({"k": np.array([2.0, 3.0]), "w": [20, 30]})
        out = a.merge(b, on="k")
        assert out["v"].to_list() == [2]

    def test_string_keys(self):
        a = pf.DataFrame({"k": ["apple", "pear"], "v": [1, 2]})
        b = pf.DataFrame({"k": ["pear", "plum"], "w": [3, 4]})
        out = a.merge(b, on="k")
        assert out["k"].to_list() == ["pear"]


class TestJoinOnIndex:
    def test_join(self):
        a = pf.DataFrame({"v": [1, 2]}, index=["x", "y"])
        b = pf.DataFrame({"w": [10]}, index=["y"])
        out = a.join(b)
        assert out.index.to_list() == ["x", "y"]
        w = out["w"].to_list()
        assert np.isnan(w[0]) and w[1] == 10

    def test_join_overlap_requires_suffix(self):
        a = pf.DataFrame({"v": [1]}, index=["x"])
        b = pf.DataFrame({"v": [2]}, index=["x"])
        with pytest.raises(ValueError):
            a.join(b)
        out = a.join(b, lsuffix="_l", rsuffix="_r")
        assert set(out.columns.to_list()) == {"v_l", "v_r"}


class TestScale:
    def test_many_to_many_count(self):
        rng = np.random.default_rng(2)
        a = pf.DataFrame({"k": rng.integers(0, 50, 500), "v": np.arange(500)})
        b = pf.DataFrame({"k": rng.integers(0, 50, 300), "w": np.arange(300)})
        out = a.merge(b, on="k")
        # expected row count = sum over keys of count_a * count_b
        ka, ca = np.unique(a["k"].values, return_counts=True)
        kb, cb = np.unique(b["k"].values, return_counts=True)
        expected = sum(
            ca[i] * cb[np.where(kb == k)[0][0]]
            for i, k in enumerate(ka)
            if k in set(kb.tolist())
        )
        assert len(out) == expected

    def test_skewed_key_join(self):
        # one hot key dominating: the merge kernel must still be correct
        a = pf.DataFrame({"k": np.array([7] * 1000 + [1, 2]), "v": np.arange(1002)})
        b = pf.DataFrame({"k": np.array([7, 1]), "w": [70, 10]})
        out = a.merge(b, on="k")
        assert len(out) == 1001
        assert set(out["w"].to_list()) == {70, 10}
