"""Partition-kernel parity and shuffle-data-plane behaviour.

The vectorized shuffle kernels (``repro.engine.partition``,
``repro.frame.hashing``) must be bit-identical to the scalar reference
definitions kept in this module (per-row ``stable_hash``, per-row binary
search, one boolean-mask scan per partition): same hash per key, same
range partition per key, same rows in the same order per output frame.
On top of that, shuffles must stay deterministic across serial/parallel
execution, and mapper-side combine must shrink shuffle bytes without
changing results.
"""

import numpy as np
import pytest

from repro.config import Config
from repro.core import Session
from repro import frame as pf
from repro.dataframe import from_frame
from repro.engine.partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from repro.frame.hashing import HASH_MOD, hash_array, stable_hash


# ---------------------------------------------------------------------------
# the scalar oracle: the per-row definitions the kernels must reproduce
# ---------------------------------------------------------------------------

def reference_hashes(values) -> np.ndarray:
    return np.array(
        [stable_hash(v) for v in np.asarray(values).tolist()], dtype=np.int64
    )


def reference_hash_partitions(keys, n_parts: int) -> np.ndarray:
    """Per-row ``stable_hash(key) % n_parts``."""
    return np.array(
        [stable_hash(v) % n_parts for v in np.asarray(keys).tolist()],
        dtype=np.int64,
    )


def reference_range_partitions(keys, boundaries: list) -> np.ndarray:
    """Per-row binary search (the original implementation): partition
    ``r`` gets ``boundaries[r-1] < key <= boundaries[r]``; ``None`` is
    never ``<=`` a boundary, so missing keys land in the last one."""
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(np.asarray(keys).tolist()):
        lo, hi = 0, len(boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if key is not None and key <= boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        out[i] = lo
    return out


def reference_split(frame, assignment: np.ndarray, n_parts: int) -> list:
    """One boolean-mask scan per partition."""
    return [frame[assignment == r] for r in range(n_parts)]


class TestHashParity:
    @pytest.mark.parametrize("name,values", [
        ("int64", np.random.default_rng(0).integers(-2**62, 2**62, 500)),
        ("int32", np.arange(-250, 250, dtype=np.int32)),
        ("uint64", np.random.default_rng(1).integers(
            0, 2**64, 500, dtype=np.uint64)),
        ("bool", np.array([True, False] * 50)),
        ("float", np.random.default_rng(2).normal(size=500) * 1e6),
        ("float_edge", np.array([np.nan, np.inf, -np.inf, 0.0, -0.0,
                                 1e300, -1e300, 1.5, -2.75])),
        ("object_str", np.array([f"key-{i % 37}" for i in range(300)],
                                dtype=object)),
        ("object_mixed", np.array(
            [1, 1.0, True, None, "1", 2**70, float("nan")] * 20,
            dtype=object)),
        ("datetime", np.array(["2020-01-01", "NaT", "2021-06-05"],
                              dtype="datetime64[ns]")),
        # integral floats hash as their ints: past 2**53 the C cast is
        # exact, past the int64 range the scalar path takes over
        ("float_integral", np.array([2.0**53, 2.0**53 + 2, -2.0**60,
                                     2.0**63 - 1024, 2.0**63, 2.0**64,
                                     -2.0**63, -2.0**70, 2.0**100, 3.0])),
        ("float32_integral", np.array([2.0**40, 2.0**70, -7.0, 0.5],
                                      dtype=np.float32)),
        ("object_numbers", np.array(
            [2**70, 2.0**70, np.float32(3.0), np.int8(3), np.True_, 0.5,
             2**53 + 1, 2.0**53, np.float32(0.25), -0.0] * 5,
            dtype=object)),
    ])
    def test_vectorized_matches_scalar(self, name, values):
        vec = hash_array(values)
        ref = reference_hashes(values)
        assert vec.dtype == np.int64
        assert (vec == ref).all()
        assert ((vec >= 0) & (vec < HASH_MOD)).all()

    def test_matches_original_formulas(self):
        # pin the published hash definition: int (Knuth multiplicative),
        # float (CPython prime), str (FNV-1a) — a silent change here
        # would reroute every row of every hash shuffle.
        assert stable_hash(5) == 5 * 2654435761 % 2**31
        assert stable_hash(-7) == -7 * 2654435761 % 2**31
        assert stable_hash(2.5) == int(2.5 * 1000003) % 2**31
        h = 2166136261
        for ch in "abc":
            h = (h ^ ord(ch)) * 16777619 % 2**32
        assert stable_hash("abc") == h % 2**31
        assert stable_hash(None) == 0
        assert stable_hash(float("nan")) == 0

    def test_equal_numbers_hash_alike(self):
        # keys equal under the key contract share a partition: an object
        # column is hashed once per distinct cell, which a dict numbers
        # with ``1 == 1.0 == True``
        values = np.array([1, 1.0, True, 1, 2**70, 2.0**70], dtype=object)
        assert (hash_array(values) == reference_hashes(values)).all()
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(2**70) == stable_hash(2.0**70)
        assert stable_hash(2**53 + 1) != stable_hash(2.0**53)
        ints = np.array([-3, 0, 7, 2**40], dtype=np.int64)
        assert (hash_array(ints) == hash_array(ints.astype(np.float64))).all()
        assert (hash_array(np.array([2**63 + 2048], dtype=np.uint64))
                == hash_array(np.array([2.0**63 + 2048]))).all()

    def test_hash_partition_ids_parity(self):
        keys = np.random.default_rng(3).integers(-10**9, 10**9, 2000)
        for n_parts in (2, 7, 64):
            vec = assign_hash_partitions(keys, n_parts)
            ref = reference_hash_partitions(keys, n_parts)
            assert (vec == ref).all()


class TestRangeParity:
    @pytest.mark.parametrize("name,keys,boundaries", [
        ("float", np.random.default_rng(4).normal(size=500),
         sorted(np.random.default_rng(5).normal(size=7).tolist())),
        ("float_nan", np.concatenate(
            [np.random.default_rng(6).normal(size=200), [np.nan] * 5]),
         sorted(np.random.default_rng(7).normal(size=3).tolist())),
        ("int", np.random.default_rng(8).integers(0, 1000, 500),
         sorted({int(v) for v in
                 np.random.default_rng(9).integers(0, 1000, 9)})),
        ("str", np.array([f"u{i % 50:03d}" for i in range(300)],
                         dtype=object),
         ["u010", "u025", "u040"]),
        ("str_none", np.array(["a", None, "z", "m"] * 25, dtype=object),
         ["f", "p"]),
        ("on_boundary", np.array([0, 5, 10, 15, 20]), [5, 15]),
    ])
    def test_vectorized_matches_scalar(self, name, keys, boundaries):
        vec = assign_range_partitions(keys, list(boundaries))
        ref = reference_range_partitions(keys, list(boundaries))
        assert (vec == ref).all()

    def test_missing_keys_go_to_last_partition(self):
        keys = np.array([None, "b", None], dtype=object)
        assert assign_range_partitions(keys, ["a", "c"]).tolist() == [2, 1, 2]
        fkeys = np.array([np.nan, 0.5, np.nan])
        assert assign_range_partitions(fkeys, [0.0, 1.0]).tolist() == [2, 1, 2]

    def test_no_boundaries_single_partition(self):
        keys = np.arange(10)
        assert (assign_range_partitions(keys, []) == 0).all()


class TestSplitByAssignment:
    def _frame(self, n=333):
        rng = np.random.default_rng(11)
        return pf.DataFrame({
            "k": rng.integers(0, 40, n),
            "v": rng.normal(size=n),
            "s": np.array([f"x{i % 9}" for i in range(n)], dtype=object),
        })

    def test_matches_boolean_mask_reference(self):
        frame = self._frame()
        assignment = assign_hash_partitions(frame["k"].values, 6)
        fast = split_by_assignment(frame, assignment, 6)
        slow = reference_split(frame, assignment, 6)
        assert sum(len(p) for p in fast) == len(frame)
        for a, b in zip(fast, slow):
            assert a.equals(b)

    def test_preserves_original_row_order_within_partition(self):
        frame = self._frame()
        assignment = np.zeros(len(frame), dtype=np.int64)
        (part,) = split_by_assignment(frame, assignment, 1)
        assert part.equals(frame[np.ones(len(frame), dtype=bool)])

    def test_empty_partitions_keep_schema(self):
        frame = self._frame(n=10)
        assignment = np.full(10, 2, dtype=np.int64)
        parts = split_by_assignment(frame, assignment, 4)
        assert [len(p) for p in parts] == [0, 0, 10, 0]
        for part in parts:
            assert part.columns.to_list() == ["k", "v", "s"]


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.combine_dropped_rows,
        report.n_subtasks,
        report.n_graph_nodes,
        dict(report.peak_memory),
        dict(report.band_busy),
    )


def shuffle_config(**overrides) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 16 * 1024
    cfg.tree_reduce_threshold = 1  # force shuffle-reduce for groupby
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def skewed_frame(n=20_000) -> pf.DataFrame:
    """90% of rows share 3 hot keys — the paper's skew scenario."""
    rng = np.random.default_rng(17)
    hot = rng.choice([1, 2, 3], size=int(n * 0.9))
    cold = rng.integers(4, 500, size=n - len(hot))
    keys = np.concatenate([hot, cold])
    rng.shuffle(keys)
    return pf.DataFrame({
        "k": keys,
        "v": rng.normal(size=n),
        "w": rng.normal(size=n),
    })


class TestShuffleDeterminism:
    def _run(self, cfg: Config):
        with Session(cfg) as session:
            df = from_frame(skewed_frame(), session)
            agg = df.groupby("k", as_index=False).agg({"v": "mean",
                                                       "w": "sum"})
            joined = agg.merge(
                from_frame(skewed_frame(4_000), session), on="k", how="inner"
            )
            return joined.fetch(), report_tuple(session)

    def test_skewed_shuffle_serial_vs_parallel(self):
        serial_cfg = shuffle_config(execution_mode="serial")
        parallel_cfg = shuffle_config(execution_mode="process")
        expected, serial_report = self._run(serial_cfg)
        actual, parallel_report = self._run(parallel_cfg)
        assert actual.equals(expected)
        assert parallel_report == serial_report

    def test_pipeline_identical_under_scalar_oracle(self, monkeypatch):
        """End to end: swapping the row engine's kernels for the scalar
        oracle changes neither the result nor any simulated number."""
        import repro.engine.row as row_engine

        fast, fast_report = self._run(shuffle_config())
        monkeypatch.setattr(row_engine, "assign_hash_partitions",
                            reference_hash_partitions)
        monkeypatch.setattr(row_engine, "assign_range_partitions",
                            reference_range_partitions)
        monkeypatch.setattr(row_engine, "split_by_assignment",
                            reference_split)
        slow, slow_report = self._run(shuffle_config())
        assert fast.equals(slow)
        assert fast_report == slow_report


class TestMapperSideCombine:
    def _run(self, combine: bool):
        rng = np.random.default_rng(5)
        local = pf.DataFrame({
            "k": rng.integers(0, 8, 20_000),  # low cardinality
            "v": rng.normal(size=20_000),
            "w": rng.normal(size=20_000),
        })
        with Session(shuffle_config(mapper_side_combine=combine)) as session:
            df = from_frame(local, session)
            out = df.groupby("k").agg({"v": ["sum", "mean"],
                                       "w": "max"}).fetch()
            report = session.last_report
            return out, report.shuffle_bytes, report.combine_dropped_rows

    def test_combine_shrinks_shuffle_bytes_same_result(self):
        plain, bytes_off, dropped_off = self._run(combine=False)
        combined, bytes_on, dropped_on = self._run(combine=True)
        assert combined.equals(plain)
        assert dropped_off == 0
        assert dropped_on > 0
        assert bytes_on < bytes_off, (
            f"combine did not reduce shuffle bytes: {bytes_on} vs {bytes_off}"
        )

    def test_combine_stat_deterministic_across_modes(self):
        stats = {}
        for mode in ("serial", "process"):
            cfg = shuffle_config(execution_mode=mode)
            rng = np.random.default_rng(5)
            local = pf.DataFrame({
                "k": rng.integers(0, 8, 10_000),
                "v": rng.normal(size=10_000),
            })
            with Session(cfg) as session:
                from_frame(local, session).groupby("k").agg(
                    {"v": "mean"}
                ).fetch()
                stats[mode] = (
                    session.executor.report.combine_dropped_rows,
                    session.executor.report.total_shuffle_bytes,
                )
        assert stats["serial"] == stats["process"]
        assert stats["serial"][0] > 0
