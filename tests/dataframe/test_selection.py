"""Filters hand on row selections inside a subtask: chains of 1-4 filters
keeping no row, one row, about half or every row feed groupbys, merges,
reductions, positional slices and sorts, and every result equals the
``repro.frame`` oracle — on both chunk engines, with operator fusion on
and off.  No selection reaches storage, and an operator that does not
read selections is handed a frame."""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.dataframe.arithmetic import build_elementwise
from repro.dataframe.core import DataFrame as RemoteFrame
from repro.dataframe.shuffle import ShufflePartition
from repro.frame.selection import Selection
from repro.storage.service import StorageService

N = 600
DEPTHS = (1, 2, 4)
KEEPS = (0, 1, N // 2, N)


@pytest.fixture(params=[("row", True), ("row", False),
                        ("columnar", True), ("columnar", False)],
                ids=lambda p: f"{p[0]}-fusion-{'on' if p[1] else 'off'}")
def session(request):
    cfg = Config()
    cfg.chunk_store_limit = 6_000  # ~8 source chunks
    cfg.chunk_engine, cfg.operator_fusion = request.param
    with Session(cfg) as s:
        yield s


@pytest.fixture(scope="module")
def local():
    rng = np.random.default_rng(41)
    r = rng.permutation(N)
    kf = rng.integers(0, 7, N).astype(np.float64)
    kf[rng.random(N) < 0.15] = np.nan
    ko = np.array([f"o{i % 6}" for i in range(N)], dtype=object)
    ko[rng.random(N) < 0.1] = None
    ko[rng.random(N) < 0.1] = np.nan
    return pf.DataFrame({
        "r": r,
        "ki": rng.integers(-3, 9, N),
        "kf": kf,
        "ko": ko,
        "ks": np.array([f"s{i % 5}" for i in range(N)], dtype=object),
        "kd": np.datetime64("2024-01-01") + rng.integers(0, 6, N).astype(
            "timedelta64[D]"),
        "kg": r // (N // 4),  # a key whose upper groups half the rows empty
        "v": rng.normal(size=N),
        "w": rng.integers(0, 1000, N),
    })


def chain(frame, depth: int, keep: int):
    """``depth`` filters on ``r``, each narrower, keeping ``r < keep``."""
    for i in range(1, depth + 1):
        bound = keep + (N - keep) * (depth - i) // depth
        frame = frame[frame["r"] < bound]
    return frame


def chains():
    return [(depth, keep) for depth in DEPTHS for keep in KEEPS]


def assert_same(got, want, by):
    got = got.sort_values(by).reset_index(drop=True)
    want = want.sort_values(by).reset_index(drop=True)
    assert got.columns.to_list() == want.columns.to_list()
    assert len(got) == len(want)
    for name in want.columns.to_list():
        g, w = got[name].values, want[name].values
        if w.dtype.kind == "f" or g.dtype.kind == "f":
            np.testing.assert_allclose(g.astype(float), w.astype(float),
                                       rtol=1e-9, equal_nan=True)
        else:
            assert g.tolist() == w.tolist(), name


GROUPINGS = [["ki"], ["kf"], ["ko"], ["ks"], ["kd"], ["kg"], ["ko", "ki"],
             ["ks", "kf"]]
SPEC = {"v": ["sum", "mean", "var", "count"], "w": ["max", "first"]}


class TestGroupByReadsSelections:
    @pytest.mark.parametrize("by", GROUPINGS, ids="+".join)
    def test_equals_oracle(self, session, local, by):
        remote = from_frame(local, session)
        for depth, keep in chains():
            got = chain(remote, depth, keep).groupby(
                by, as_index=False).agg(SPEC).fetch()
            want = chain(local, depth, keep).groupby(
                by, as_index=False).agg(SPEC)
            assert_same(got, want, by)

    def test_emptied_groups_do_not_appear(self, session, local):
        remote = from_frame(local, session)
        got = chain(remote, 2, N // 2).groupby("kg", as_index=False).agg(
            {"v": "sum"}).fetch()
        assert sorted(got["kg"].to_list()) == [0, 1]


class TestMergeReadsSelections:
    @pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
    @pytest.mark.parametrize("side", ["small", "big"])
    def test_equals_oracle(self, session, local, how, side):
        rng = np.random.default_rng(7)
        rows = 30 if side == "small" else N
        dim = pf.DataFrame({"ki": rng.integers(-5, 12, rows),
                            "d": rng.normal(size=rows)})
        remote = from_frame(local[["r", "ki", "kf", "v"]], session)
        right = from_frame(dim, session)
        shuffled = set()
        for depth, keep in chains():
            out = chain(remote, depth, keep).merge(right, on="ki", how=how)
            got = out.fetch()
            want = pf.merge(chain(local[["r", "ki", "kf", "v"]], depth, keep),
                            dim, on="ki", how=how)
            assert_same(got, want, ["ki", "r", "d"])
            shuffled.add(any(isinstance(c.op.inputs[-1].op, ShufflePartition)
                             for c in out.data.chunks))
        # a 30-row right side is broadcast to an inner or left join;
        # whole 600-row sides are shuffled
        if side == "big":
            assert True in shuffled
        elif how in ("inner", "left"):
            assert shuffled == {False}

    def test_float_key_with_missing(self, session, local):
        other = pf.DataFrame({"kf": np.arange(-1.0, 8.0),
                              "e": np.arange(9)})
        remote = from_frame(local[["r", "kf", "v"]], session)
        for how in ("inner", "left"):
            for depth, keep in chains():
                got = chain(remote, depth, keep).merge(
                    from_frame(other, session), on="kf", how=how).fetch()
                want = pf.merge(chain(local[["r", "kf", "v"]], depth, keep),
                                other, on="kf", how=how)
                assert_same(got, want, ["r"])


class TestOtherReaders:
    def test_series_reduction(self, session, local):
        remote = from_frame(local, session)
        for depth, keep in chains():
            got = chain(remote, depth, keep)
            want = chain(local, depth, keep)
            assert float(got["v"].sum().fetch()) == pytest.approx(
                float(want["v"].sum()), abs=1e-9)
            assert int(got["w"].count().fetch()) == int(want["w"].count())

    def test_head_and_iloc(self, session, local):
        remote = from_frame(local[["r", "v", "ko"]], session)
        for depth, keep in chains():
            got = chain(remote, depth, keep)
            want = chain(local[["r", "v", "ko"]], depth, keep)
            for g, w in ((got.head(7), want.head(7)),
                         (got.iloc[2:9], want.iloc[2:9])):
                g = g.fetch()
                assert g["r"].to_list() == w["r"].to_list()
                assert g.index.to_list() == w.index.to_list()

    def test_sort_values(self, session, local):
        remote = from_frame(local[["r", "v", "kd"]], session)
        for depth, keep in chains():
            got = chain(remote, depth, keep).sort_values("v").fetch()
            want = chain(local[["r", "v", "kd"]], depth, keep).sort_values(
                "v")
            assert got["r"].to_list() == want["r"].to_list()
            assert got["kd"].to_list() == want["kd"].to_list()

    def test_filtered_column_result_keeps_its_labels(self, session, local):
        remote = from_frame(local, session)
        got = chain(remote, 2, N // 2)["v"].fetch()
        want = chain(local, 2, N // 2)["v"]
        assert got.index.to_list() == want.index.to_list()
        assert got.to_list() == want.to_list()


class TestSelectionsStayInside:
    def test_storage_never_holds_a_selection(self, session, local,
                                             monkeypatch):
        put_many = StorageService.put_many
        stored = []

        def checked(self, entries, *args, **kwargs):
            entries = list(entries)
            stored.extend(type(value) for _, value, _ in entries)
            return put_many(self, entries, *args, **kwargs)

        monkeypatch.setattr(StorageService, "put_many", checked)
        remote = from_frame(local, session)
        filtered = chain(remote, 4, N // 2)
        filtered.fetch()
        filtered.groupby("ko").agg({"v": "sum"}).fetch()
        assert stored and Selection not in stored

    def test_frame_only_ops_get_a_frame(self, session, local):
        seen = []

        def frame_only(df):
            seen.append(type(df))
            return df[["r", "v"]]

        remote = from_frame(local, session)
        filtered = chain(remote, 2, N // 2)
        out = RemoteFrame(build_elementwise(
            [filtered.data], frame_only, "dataframe", (None, 2),
            out_columns=["r", "v"], cols_required=["r", "v"]), session)
        got = out.fetch()
        assert seen and set(seen) == {pf.DataFrame}
        want = chain(local, 2, N // 2)[["r", "v"]]
        assert got["r"].to_list() == want["r"].to_list()
        seen.clear()
        mapped = filtered.map_partitions(frame_only)
        mapped.fetch()
        assert seen and set(seen) == {pf.DataFrame}
