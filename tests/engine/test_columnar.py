"""Unit tests for the columnar chunk engine.

Covers the pieces the end-to-end parity suite can't isolate: the
dictionary encoder's eligibility rules, the hash/range draw parity of
the shared partition kernels on a dictionary column against the row
oracles, ``split`` parity, and that a stored columnar chunk is a
``repro.frame`` container charged and described like its row twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.engine import COLUMNAR_ENGINE, ROW_ENGINE
from repro.engine.base import describe_value, engine_of, get_engine
from repro.engine.columnar import encode_column
from repro.engine.partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from repro.frame.dtypes import dictionary_of, values_equal
from repro.utils import sizeof
from tests.dataframe.test_partition_kernels import (
    reference_hash_partitions,
    reference_range_partitions,
)


def make_string_frame(n=500, n_keys=17, seed=3):
    rng = np.random.default_rng(seed)
    keys = np.array(
        [f"key-{k:03d}" for k in rng.integers(0, n_keys, n)], dtype=object
    )
    return pf.DataFrame({
        "k": keys,
        "v": rng.normal(size=n),
        "n": rng.integers(0, 1000, n),
    })


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_lookup(self):
        assert get_engine("row") is ROW_ENGINE
        assert get_engine("columnar") is COLUMNAR_ENGINE

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError, match="columnar"):
            get_engine("arrow2")

    def test_engine_of_config(self):
        cfg = Config()
        assert engine_of(cfg) is ROW_ENGINE
        cfg.chunk_engine = "columnar"
        assert engine_of(cfg) is COLUMNAR_ENGINE


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

class TestEncoding:
    def test_all_string_column_dict_encodes(self):
        arr = np.array(["b", "a", "b", "c", "a"], dtype=object)
        col = encode_column(arr)
        categories, codes = dictionary_of(col)
        assert codes.dtype == np.int32
        assert categories.tolist() == ["a", "b", "c"]  # sorted unique
        assert col.tolist() == arr.tolist()
        assert encode_column(col) is col  # encoded once

    @pytest.mark.parametrize("raw", [
        np.array(["a", None, "b"], dtype=object),       # None-bearing
        np.array(["a", 1, "b"], dtype=object),          # mixed types
        np.array([1.5, float("nan")], dtype=object),    # non-strings
        np.arange(4, dtype=np.int64),                   # numeric
        np.array([], dtype=object),                     # empty
    ])
    def test_ineligible_columns_stay_raw(self, raw):
        col = encode_column(raw)
        assert col is raw

    def test_frame_roundtrip(self):
        frame = make_string_frame()
        back = COLUMNAR_ENGINE.persist(frame)
        assert isinstance(back, pf.DataFrame)
        assert dictionary_of(back["k"].values) is not None
        assert back["v"].values is frame["v"].values
        assert back.columns.to_list() == frame.columns.to_list()
        for name in frame.columns.to_list():
            assert values_equal(back[name].values, frame[name].values)
        assert values_equal(
            np.asarray(back.index.values), np.asarray(frame.index.values)
        )

    def test_persist_is_idempotent(self):
        phys = COLUMNAR_ENGINE.persist(make_string_frame())
        assert COLUMNAR_ENGINE.persist(phys) is phys

    def test_series_roundtrip(self):
        series = pf.Series(
            np.array(["x", "y", "x"], dtype=object), name="s"
        )
        back = COLUMNAR_ENGINE.persist(series)
        assert isinstance(back, pf.Series)
        assert dictionary_of(back.values) is not None
        assert back.name == "s"
        assert values_equal(back.values, series.values)

    def test_row_engine_is_identity(self):
        frame = make_string_frame()
        assert ROW_ENGINE.persist(frame) is frame
        assert ROW_ENGINE.compute(frame) is frame


# ---------------------------------------------------------------------------
# satellite 6: hash/range draw parity against the row-space oracles
# ---------------------------------------------------------------------------

class TestDrawParity:
    @pytest.mark.parametrize("oracle", [assign_hash_partitions,
                                        reference_hash_partitions])
    @pytest.mark.parametrize("n_parts", [2, 7])
    def test_hash_partition_matches_row_oracle(self, oracle, n_parts):
        frame = make_string_frame()
        phys = COLUMNAR_ENGINE.persist(frame)
        got = COLUMNAR_ENGINE.hash_partition(phys, "k", n_parts)
        want = oracle(frame["k"].values, n_parts)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("oracle", [assign_range_partitions,
                                        reference_range_partitions])
    def test_range_partition_matches_row_oracle(self, oracle):
        frame = make_string_frame()
        boundaries = ["key-004", "key-009", "key-013"]
        phys = COLUMNAR_ENGINE.persist(frame)
        got = COLUMNAR_ENGINE.range_partition(phys, "k", boundaries)
        want = oracle(frame["k"].values, boundaries)
        np.testing.assert_array_equal(got, want)

    def test_numeric_key_delegates_to_row_kernel(self):
        frame = make_string_frame()
        phys = COLUMNAR_ENGINE.persist(frame)
        got = COLUMNAR_ENGINE.hash_partition(phys, "n", 5)
        want = assign_hash_partitions(frame["n"].values, 5)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# split: value parity
# ---------------------------------------------------------------------------

class TestSplit:
    def test_split_matches_row_split(self):
        frame = make_string_frame()
        n_parts = 4
        assignment = assign_hash_partitions(frame["k"].values, n_parts)
        phys = COLUMNAR_ENGINE.persist(frame)
        col_parts = COLUMNAR_ENGINE.split(phys, assignment, n_parts)
        row_parts = split_by_assignment(frame, assignment, n_parts)
        for back, row_part in zip(col_parts, row_parts):
            assert dictionary_of(back["k"].values) is not None
            for name in frame.columns.to_list():
                assert values_equal(back[name].values, row_part[name].values)
            assert values_equal(
                np.asarray(back.index.values),
                np.asarray(row_part.index.values),
            )


# ---------------------------------------------------------------------------
# a stored chunk is the row engine's container, charged by its cells
# ---------------------------------------------------------------------------

class TestSizeof:
    def test_sizeof_uses_nbytes(self):
        frame = make_string_frame()
        phys = COLUMNAR_ENGINE.persist(frame)
        assert sizeof(phys) == phys.nbytes == sizeof(frame)


class TestMeta:
    def test_describe_columnar_frame(self):
        frame = make_string_frame()
        fields = describe_value(COLUMNAR_ENGINE.persist(frame), {})
        assert fields["kind"] == "dataframe"
        assert fields["columns"] == ["k", "v", "n"]
        assert fields == describe_value(frame, {})

    def test_describe_columnar_series(self):
        series = pf.Series(np.array(["a", "b"], dtype=object), name="s")
        fields = describe_value(COLUMNAR_ENGINE.persist(series), {})
        assert fields["kind"] == "series"
        assert fields["shape"] == (2,)
        assert fields == describe_value(series, {})


class TestStoredChunk:
    @staticmethod
    def stored(engine: str):
        cfg = Config()
        cfg.chunk_engine = engine
        cfg.chunk_store_limit = 8_000
        with Session(cfg) as session:
            df = from_frame(make_string_frame(), session)
            filtered = df[df["v"] > 0.0]
            session.execute(filtered.data)
            return [session.storage.peek(chunk.key)
                    for chunk in filtered.data.chunks]

    def test_stored_chunk_is_a_frame_with_its_dictionary(self):
        row_chunks = self.stored("row")
        col_chunks = self.stored("columnar")
        assert len(col_chunks) == len(row_chunks) > 1
        for col, row in zip(col_chunks, row_chunks):
            assert type(col) is pf.DataFrame
            assert dictionary_of(col["k"].values) is not None
            assert dictionary_of(row["k"].values) is None
            assert values_equal(col["k"].values, row["k"].values)
            assert sizeof(col) == sizeof(row)
            assert describe_value(col) == describe_value(row)
