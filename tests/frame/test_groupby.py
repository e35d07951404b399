"""Unit tests for repro.frame groupby."""

import numpy as np
import pytest

from repro import frame as pf
from repro.frame.groupby import factorize
from repro.frame.index import MultiIndex


@pytest.fixture
def df():
    return pf.DataFrame(
        {
            "k": ["b", "a", "b", "a", "c"],
            "k2": [1, 1, 2, 1, 2],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0],
            "w": [10, 20, 30, 40, 50],
        }
    )


class TestFactorize:
    def test_int_codes_sorted_uniques(self):
        codes, uniques = factorize(np.array([3, 1, 3, 2]))
        assert uniques.tolist() == [1, 2, 3]
        assert codes.tolist() == [2, 0, 2, 1]

    def test_object_with_na(self):
        codes, uniques = factorize(np.array(["b", None, "a"], dtype=object))
        assert uniques.tolist() == ["a", "b"]
        assert codes.tolist() == [1, -1, 0]

    def test_float_nan_is_minus_one(self):
        codes, _ = factorize(np.array([1.0, np.nan]))
        assert codes.tolist() == [0, -1]

    def test_deterministic_across_chunks(self):
        # equal key sets factorize identically regardless of row order
        a = np.array(["y", "x", "z"], dtype=object)
        b = np.array(["z", "y", "x"], dtype=object)
        _, ua = factorize(a)
        _, ub = factorize(b)
        assert ua.tolist() == ub.tolist()


class TestSingleKeyAgg:
    def test_agg_dict(self, df):
        out = df.groupby("k").agg({"v": "sum"})
        assert out.index.to_list() == ["a", "b", "c"]
        assert out["v"].to_list() == [6.0, 4.0, 5.0]

    def test_tuple_and_wide_int_keys_stay_cells(self):
        # equal-length tuple keys must not become a 2-D index (building
        # it used to raise "columns must be 1-D"), and an int past 64
        # bits must not be forced into int64 (OverflowError).
        tuples = pf.DataFrame({"v": [1.0, 2.0, 3.0]})
        tuples["k"] = pf.dtypes.object_array([(1, "x"), (1, "y"), (1, "x")])
        out = tuples.groupby("k").agg({"v": "sum"})
        assert out.index.values.shape == (2,)
        assert out["v"].to_list() == [4.0, 2.0]
        wide = pf.DataFrame({"v": [1.0, 2.0]})
        wide["k"] = pf.dtypes.object_array([2 ** 70, 1])
        assert wide.groupby("k").agg({"v": "sum"}).index.to_list() == [
            1, 2 ** 70]

    def test_agg_string_applies_to_all_values(self, df):
        out = df.groupby("k").agg("sum")
        assert set(out.columns.to_list()) == {"k2", "v", "w"}

    def test_shortcut_methods(self, df):
        assert df.groupby("k").sum()["v"].to_list() == [6.0, 4.0, 5.0]
        assert df.groupby("k").mean()["v"].to_list() == [3.0, 2.0, 5.0]
        assert df.groupby("k").min()["w"].to_list() == [20, 10, 50]
        assert df.groupby("k").max()["w"].to_list() == [40, 30, 50]
        assert df.groupby("k").count()["v"].to_list() == [2, 2, 1]

    def test_named_agg(self, df):
        out = df.groupby("k").agg(total=("v", "sum"), biggest=("w", "max"))
        assert out.columns.to_list() == ["total", "biggest"]
        assert out["biggest"].to_list() == [40, 30, 50]

    def test_agg_list_spec(self, df):
        out = df.groupby("k")["v"].agg(["sum", "mean"])
        assert out[("v", "sum")].to_list() == [6.0, 4.0, 5.0]

    def test_callable_agg(self, df):
        out = df.groupby("k").agg({"v": lambda s: s.max() - s.min()})
        assert out["v"].to_list() == [2.0, 2.0, 0.0]

    def test_size(self, df):
        assert df.groupby("k").size().to_list() == [2, 2, 1]

    def test_as_index_false(self, df):
        out = df.groupby("k", as_index=False).agg({"v": "sum"})
        assert out.columns.to_list() == ["k", "v"]
        assert out["k"].to_list() == ["a", "b", "c"]

    def test_first_last(self, df):
        out = df.groupby("k").agg({"v": "first"})
        assert out["v"].to_list() == [2.0, 1.0, 5.0]
        out = df.groupby("k").agg({"v": "last"})
        assert out["v"].to_list() == [4.0, 3.0, 5.0]

    def test_nunique(self, df):
        assert df.groupby("k").agg({"k2": "nunique"})["k2"].to_list() == [1, 2, 1]

    def test_std_var_median(self, df):
        out = df.groupby("k").agg({"v": "std"})
        assert out["v"].to_list()[0] == pytest.approx(np.std([2.0, 4.0], ddof=1))
        out = df.groupby("k").agg({"v": "median"})
        assert out["v"].to_list() == [3.0, 2.0, 5.0]

    def test_missing_key_column_raises(self, df):
        with pytest.raises(KeyError):
            df.groupby("nope")

    def test_missing_agg_column_raises(self, df):
        with pytest.raises(KeyError):
            df.groupby("k").agg({"nope": "sum"})

    def test_na_keys_dropped(self):
        df = pf.DataFrame({"k": ["a", None, "a"], "v": [1.0, 2.0, 3.0]})
        out = df.groupby("k").agg({"v": "sum"})
        assert out.index.to_list() == ["a"]
        assert out["v"].to_list() == [4.0]

    def test_nan_values_skipped_in_mean(self):
        df = pf.DataFrame({"k": ["a", "a"], "v": [1.0, np.nan]})
        assert df.groupby("k").agg({"v": "mean"})["v"].to_list() == [1.0]


class TestMultiKeyAgg:
    def test_multi_key_index(self, df):
        out = df.groupby(["k", "k2"]).agg({"v": "sum"})
        assert isinstance(out.index, MultiIndex)
        assert out.index.to_list() == [("a", 1), ("b", 1), ("b", 2), ("c", 2)]
        assert out["v"].to_list() == [6.0, 1.0, 3.0, 5.0]

    def test_multi_key_as_index_false(self, df):
        out = df.groupby(["k", "k2"], as_index=False).agg({"v": "sum"})
        assert out.columns.to_list() == ["k", "k2", "v"]
        assert out["k"].to_list() == ["a", "b", "b", "c"]

    def test_reset_index_on_multi(self, df):
        out = df.groupby(["k", "k2"]).agg({"v": "sum"}).reset_index()
        assert out.columns.to_list() == ["k", "k2", "v"]


class TestColumnSelection:
    def test_scalar_column_agg(self, df):
        s = df.groupby("k")["v"].sum()
        assert isinstance(s, pf.Series)
        assert s.to_list() == [6.0, 4.0, 5.0]

    def test_list_column_agg(self, df):
        out = df.groupby("k")[["v", "w"]].agg("sum")
        assert out.columns.to_list() == ["v", "w"]


class TestGroupIterationApply:
    def test_iteration(self, df):
        keys = [key for key, _ in df.groupby("k")]
        assert keys == ["a", "b", "c"]

    def test_apply(self, df):
        out = df.groupby("k").apply(lambda g: g.nlargest(1, "v"))
        assert sorted(out["v"].to_list()) == [3.0, 4.0, 5.0]

    def test_series_groupby(self, df):
        s = df["v"].groupby(df["k"])
        assert s.sum().to_list() == [6.0, 4.0, 5.0]
        assert s.count().to_list() == [2, 2, 1]

    def test_groupby_by_series(self, df):
        out = df.groupby(df["k"]).agg({"v": "sum"})
        assert out["v"].to_list() == [6.0, 4.0, 5.0]


class TestLargeGroupby:
    def test_reduceat_fast_path_matches_generic(self):
        rng = np.random.default_rng(0)
        n = 5000
        df = pf.DataFrame(
            {"k": rng.integers(0, 37, n), "v": rng.normal(size=n)}
        )
        fast = df.groupby("k").agg({"v": "sum"})
        slow = df.groupby("k").agg({"v": lambda s: s.sum()})
        np.testing.assert_allclose(
            np.asarray(fast["v"].values, dtype=np.float64),
            np.asarray(slow["v"].values, dtype=np.float64),
        )

    def test_group_count_matches_unique(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 100, 2000)
        df = pf.DataFrame({"k": keys, "v": np.ones(2000)})
        out = df.groupby("k").size()
        assert len(out) == len(np.unique(keys))
        assert out.values.sum() == 2000
