"""Unit tests for the columnar chunk engine.

Covers the pieces the end-to-end parity suite can't isolate: the
dictionary encoder's eligibility rules, the hash/range draw-parity
gather trick against the row-space oracles, per-partition dictionary
compaction in ``split``, the procpool wire format, sizeof dispatch and
meta introspection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import frame as pf
from repro.engine import COLUMNAR_ENGINE, ROW_ENGINE
from repro.engine.base import describe_value, engine_of, get_engine
from repro.engine.columnar import (
    ColumnarFrame,
    ColumnarSeries,
    DictColumn,
    encode_column,
)
from repro.engine.partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from repro.frame.dtypes import values_equal
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
        from repro.config import Config

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
        assert isinstance(col, DictColumn)
        assert col.codes.dtype == np.int32
        assert col.categories.tolist() == ["a", "b", "c"]  # sorted unique
        assert col.decode().tolist() == arr.tolist()

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
        phys = COLUMNAR_ENGINE.persist(frame)
        assert isinstance(phys, ColumnarFrame)
        assert isinstance(phys._data["k"], DictColumn)
        assert isinstance(phys._data["v"], np.ndarray)
        back = COLUMNAR_ENGINE.compute(phys)
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
        phys = COLUMNAR_ENGINE.persist(series)
        assert isinstance(phys, ColumnarSeries)
        assert isinstance(phys._values, DictColumn)
        back = COLUMNAR_ENGINE.compute(phys)
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
# split: value parity + per-partition dictionary compaction
# ---------------------------------------------------------------------------

class TestSplit:
    def test_split_matches_row_split(self):
        frame = make_string_frame()
        n_parts = 4
        assignment = assign_hash_partitions(frame["k"].values, n_parts)
        phys = COLUMNAR_ENGINE.persist(frame)
        col_parts = COLUMNAR_ENGINE.split(phys, assignment, n_parts)
        row_parts = split_by_assignment(frame, assignment, n_parts)
        for col_part, row_part in zip(col_parts, row_parts):
            back = COLUMNAR_ENGINE.compute(col_part)
            for name in frame.columns.to_list():
                assert values_equal(back[name].values, row_part[name].values)
            assert values_equal(
                np.asarray(back.index.values),
                np.asarray(row_part.index.values),
            )

    def test_split_compacts_partition_dictionaries(self):
        # 40 categories hashed into 8 partitions: each partition sees a
        # strict subset of the dictionary and must carry *only* that
        # subset — the byte win the bench measures depends on it.
        rng = np.random.default_rng(7)
        keys = np.array(
            [f"cust-{k:05d}" for k in rng.integers(0, 40, 2_000)],
            dtype=object,
        )
        frame = pf.DataFrame({"k": keys, "v": rng.normal(size=2_000)})
        phys = COLUMNAR_ENGINE.persist(frame)
        n_parts = 8
        assignment = COLUMNAR_ENGINE.hash_partition(phys, "k", n_parts)
        parts = COLUMNAR_ENGINE.split(phys, assignment, n_parts)
        full_nbytes = phys._data["k"].categories.size
        for part in parts:
            col = part._data["k"]
            assert isinstance(col, DictColumn)
            decoded = col.decode()
            # dictionary is exactly the values present, sorted unique
            assert col.categories.tolist() == sorted(set(decoded.tolist()))
            assert col.categories.size < full_nbytes
            assert col.codes.dtype == np.int32
        # partitions together still cover every input row
        assert sum(len(p) for p in parts) == len(frame)


# ---------------------------------------------------------------------------
# wire format (procpool boundary)
# ---------------------------------------------------------------------------

class TestWire:
    def test_frame_wire_roundtrip(self):
        phys = COLUMNAR_ENGINE.persist(make_string_frame())
        wire = COLUMNAR_ENGINE.to_wire(phys)
        assert isinstance(wire, tuple) and wire[0] == "__columnar_frame__"
        back = COLUMNAR_ENGINE.from_wire(wire)
        assert isinstance(back, ColumnarFrame)
        assert values_equal(
            back._data["k"].decode(), phys._data["k"].decode()
        )
        np.testing.assert_array_equal(back._data["v"], phys._data["v"])

    def test_series_wire_roundtrip(self):
        phys = COLUMNAR_ENGINE.persist(
            pf.Series(np.array(["a", "b", "a"], dtype=object), name="s"))
        back = COLUMNAR_ENGINE.from_wire(COLUMNAR_ENGINE.to_wire(phys))
        assert isinstance(back, ColumnarSeries)
        assert back.name == "s"
        assert values_equal(back._values.decode(), phys._values.decode())

    def test_plain_values_pass_through(self):
        arr = np.arange(8)
        assert COLUMNAR_ENGINE.to_wire(arr) is arr
        assert COLUMNAR_ENGINE.from_wire(arr) is arr
        assert ROW_ENGINE.to_wire(arr) is arr


# ---------------------------------------------------------------------------
# satellite 2: sizeof dispatches through the registry
# ---------------------------------------------------------------------------

class TestSizeof:
    def test_sizeof_uses_nbytes(self):
        phys = COLUMNAR_ENGINE.persist(make_string_frame())
        assert sizeof(phys) == phys.nbytes
        assert sizeof(phys._data["k"]) == phys._data["k"].nbytes

    def test_dictionary_is_smaller_than_rows(self):
        # low-cardinality string column: codes + small dictionary must
        # undercut the per-pointer object charge of the row layout.
        frame = make_string_frame(n=2_000, n_keys=10)
        row_bytes = sizeof(ROW_ENGINE.persist(frame))
        col_bytes = sizeof(COLUMNAR_ENGINE.persist(frame))
        assert col_bytes < row_bytes


# ---------------------------------------------------------------------------
# meta introspection
# ---------------------------------------------------------------------------

class TestMeta:
    def test_describe_columnar_frame(self):
        frame = make_string_frame()
        phys = COLUMNAR_ENGINE.persist(frame)
        fields = describe_value(phys, {})
        assert fields["kind"] == "dataframe"
        assert fields["columns"] == ["k", "v", "n"]
        # meta nbytes are *logical*: exactly what the row engine's meta
        # would report, so size-driven tiling is engine-invariant.
        assert fields["nbytes"] == describe_value(frame, {})["nbytes"]
        assert fields["nbytes"] > phys.nbytes  # dictionary win is physical
        assert fields["shape"] == phys.shape

    def test_describe_columnar_series(self):
        phys = COLUMNAR_ENGINE.persist(
            pf.Series(np.array(["a", "b"], dtype=object), name="s"))
        fields = describe_value(phys, {})
        assert fields["kind"] == "series"
        assert fields["shape"] == (2,)
