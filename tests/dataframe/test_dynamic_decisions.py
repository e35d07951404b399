"""Tests of the dynamic-tiling *decisions* (Section IV-C): which reduce
algorithm, which join strategy, whether small chunks get merged, and how
balanced the sampled range partitions come out."""

import numpy as np
import pytest

from repro.config import Config
from repro.core import Session
from repro.core.operator import TileContext
from repro.dataframe import from_frame
from repro.dataframe.shuffle import range_cuts
from repro.dataframe.utils import spread_sample
from repro.graph.entity import ChunkData
from repro import frame as pf


def make_session(chunk_limit=8_000, tree_threshold=None, **overrides):
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.tree_reduce_threshold = (
        tree_threshold if tree_threshold is not None else chunk_limit // 2
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return Session(cfg)


def big_frame(n=6_000, n_groups=2_000, seed=0):
    rng = np.random.default_rng(seed)
    return pf.DataFrame({
        "k": rng.integers(0, n_groups, n),
        "v": rng.normal(size=n),
    })


def ops_used(tileable) -> set:
    """Operator class names reachable from a tiled tileable's chunks."""
    seen: set = set()
    names: set = set()
    stack = list(tileable.chunks)
    while stack:
        chunk = stack.pop()
        if chunk.key in seen:
            continue
        seen.add(chunk.key)
        if chunk.op is not None:
            names.add(type(chunk.op).__name__)
            stack.extend(chunk.op.inputs)
    return names


class TestAutoReduceSelection:
    def test_small_aggregate_uses_tree(self):
        session = make_session(tree_threshold=10 ** 9)  # everything "small"
        local = big_frame(n_groups=5)
        out = from_frame(local, session).groupby("k").agg({"v": "sum"})
        out.execute()
        assert "GroupByPartition" not in ops_used(out.data)
        assert len(out.data.chunks) == 1  # tree funnels to one reduce node
        session.close()

    def test_large_aggregate_uses_shuffle(self):
        session = make_session(tree_threshold=1)  # everything "large"
        local = big_frame()
        out = from_frame(local, session).groupby("k").agg({"v": "sum"})
        out.execute()
        assert "GroupByPartition" in ops_used(out.data)
        assert len(out.data.chunks) > 1
        session.close()

    def test_both_paths_agree(self):
        local = big_frame(seed=1)
        results = []
        for threshold in (1, 10 ** 9):
            session = make_session(tree_threshold=threshold)
            out = from_frame(local, session).groupby("k").agg({"v": "sum"})
            results.append(out.fetch().sort_index())
            session.close()
        np.testing.assert_allclose(
            np.asarray(results[0]["v"].values, float),
            np.asarray(results[1]["v"].values, float),
        )

    def test_static_fallback_is_tree(self):
        session = make_session(tree_threshold=1, dynamic_tiling=False)
        local = big_frame(seed=2)
        out = from_frame(local, session).groupby("k").agg({"v": "sum"})
        out.execute()
        assert "GroupByPartition" not in ops_used(out.data)
        session.close()


class TestJoinStrategySelection:
    def test_small_side_broadcast(self):
        session = make_session(chunk_limit=8_000)
        big = big_frame()
        dim = pf.DataFrame({"k": np.arange(2_000, dtype=np.int64),
                            "label": np.arange(2_000, dtype=np.int64)})
        # dim is larger than a chunk? keep it tiny to force broadcast
        dim_small = dim.head(50)
        out = from_frame(big, session).merge(
            from_frame(dim_small, session), on="k"
        )
        out.execute()
        assert "ShufflePartition" not in ops_used(out.data)
        session.close()

    def test_two_big_sides_shuffle(self):
        session = make_session(chunk_limit=4_000)
        a = big_frame(seed=3)
        b = big_frame(seed=4).rename(columns={"v": "v2"})
        out = from_frame(a, session).merge(from_frame(b, session), on="k")
        out.execute()
        assert "ShufflePartition" in ops_used(out.data)
        session.close()

    def test_shuffle_reducers_balanced(self):
        """The monotonic-key trap: orderly keys must still spread evenly,
        and so must a float key with missing cells (NaN orders with
        nothing, so it must not become a cut)."""
        n = 8_000
        rng = np.random.default_rng(0)
        with_nan = np.arange(n, dtype=np.float64)
        with_nan[rng.random(n) < 0.2] = np.nan
        for left_keys in (np.arange(n), with_nan):
            session = make_session(chunk_limit=4_000)
            a = pf.DataFrame({"k": left_keys, "v": np.ones(n)})
            b = pf.DataFrame({"k": np.arange(n, dtype=left_keys.dtype),
                              "w": np.ones(n)})
            out = from_frame(a, session).merge(from_frame(b, session), on="k")
            got = out.fetch().sort_values("k").reset_index(drop=True)
            want = pf.merge(a, b, on="k").sort_values("k").reset_index(drop=True)
            assert got.columns.to_list() == want.columns.to_list()
            for name in want.columns.to_list():
                assert got[name].to_list() == want[name].to_list()
            sizes = [
                session.meta.get(c.key).shape[0]
                for c in out.data.chunks if session.meta.get(c.key)
            ]
            assert len(sizes) > 2
            assert max(sizes) < 0.5 * sum(sizes), f"skewed reducers: {sizes}"
            session.close()


class TestAutoMerge:
    def test_small_chunks_merged_before_shuffle(self):
        with_merge = make_session(tree_threshold=1)
        without = make_session(tree_threshold=1, auto_merge=False)
        local = big_frame(seed=5)
        n_nodes = {}
        for name, session in (("on", with_merge), ("off", without)):
            out = from_frame(local, session).groupby("k").agg({"v": "sum"})
            out.fetch()
            n_nodes[name] = session.executor.report.n_graph_nodes
            session.close()
        assert n_nodes["on"] <= n_nodes["off"]

    def test_results_unchanged(self):
        local = big_frame(seed=6)
        results = []
        for auto in (True, False):
            session = make_session(tree_threshold=1, auto_merge=auto)
            out = from_frame(local, session).groupby("k").agg({"v": "sum"})
            results.append(out.fetch().sort_index())
            session.close()
        np.testing.assert_allclose(
            np.asarray(results[0]["v"].values, float),
            np.asarray(results[1]["v"].values, float),
        )


class TestSpreadSample:
    def _chunks(self, n):
        return [ChunkData("dataframe", (1, 1), (i, 0)) for i in range(n)]

    def test_returns_all_when_few(self):
        chunks = self._chunks(2)
        assert spread_sample(chunks, 5) == chunks

    def test_covers_first_and_last(self):
        chunks = self._chunks(20)
        picked = spread_sample(chunks, 3)
        assert picked[0] is chunks[0]
        assert picked[-1] is chunks[-1]
        assert len(picked) == 3

    def test_spread_not_prefix(self):
        chunks = self._chunks(100)
        picked = spread_sample(chunks, 4)
        indices = [c.index[0] for c in picked]
        assert max(indices) - min(indices) > 50

    def test_no_duplicates(self):
        chunks = self._chunks(7)
        picked = spread_sample(chunks, 5)
        assert len({id(c) for c in picked}) == len(picked)


class TestSortPartitionBalance:
    def test_monotonic_sort_key_balanced(self):
        """Keys ordered across chunks, and keys ordered within each chunk
        (a chunk's head holds only its smallest keys): the cuts must
        sample every chunk by stride."""
        chunk_sorted = np.random.default_rng(1).random(40_000)
        chunk_sorted = np.concatenate([np.sort(chunk_sorted[i:i + 2_000])
                                       for i in range(0, 40_000, 2_000)])
        for keys, chunk_limit in ((np.arange(8_000, dtype=np.float64), 4_000),
                                  (chunk_sorted, 32_000)):
            session = make_session(chunk_limit=chunk_limit)
            local = pf.DataFrame({"k": keys, "v": np.ones(len(keys))})
            out = from_frame(local, session).sort_values("k")
            result = out.fetch()
            assert result["k"].to_list() == sorted(keys.tolist())
            sizes = [
                session.meta.get(c.key).shape[0]
                for c in out.data.chunks if session.meta.get(c.key)
            ]
            assert len(sizes) > 2
            assert max(sizes) < 0.5 * sum(sizes), f"skewed reducers: {sizes}"
            session.close()


class StoredChunks:
    """A tile context whose chunks are all stored: frames by chunk key."""

    def __init__(self, frames, pending=()):
        self.chunks = [ChunkData("dataframe", (len(f), 1), (i, 0))
                       for i, f in enumerate(frames)]
        self.frames = {c.key: f for c, f in zip(self.chunks, frames)}
        self.pending = {self.chunks[i].key for i in pending}

    def has_value(self, key):
        return key not in self.pending

    def peek(self, key):
        return self.frames[key]


def cuts_of(ctx, n_parts, key="k"):
    gen = range_cuts(ctx, [(c, key) for c in ctx.chunks], n_parts)
    try:
        asked = next(gen)
    except StopIteration as stop:
        return stop.value
    assert [c.key for c in asked] == sorted(ctx.pending)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def strided_quantile_cuts(ctx, n_parts, key="k"):
    """The groupby sampler the shared one replaced (it kept NaN)."""
    per_chunk = max(4000 // len(ctx.chunks), 20)
    collected = []
    for chunk in ctx.chunks:
        values = ctx.peek(chunk.key)[key].values
        if len(values) > per_chunk:
            values = values[::max(len(values) // per_chunk, 1)]
        collected.extend(v for v in values.tolist() if v is not None)
    collected.sort()
    cuts = []
    for r in range(1, n_parts):
        cut = collected[min(int(len(collected) * r / n_parts),
                            len(collected) - 1)]
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return cuts


class TestRangeCuts:
    def test_cuts_are_increasing_python_scalars_without_na(self):
        rng = np.random.default_rng(2)
        floats = rng.normal(size=3_000)
        floats[rng.random(3_000) < 0.3] = np.nan
        cells = np.array([None, 4, float("nan"), 2.5, None, -1] * 50,
                         dtype=object)
        ctx = StoredChunks([pf.DataFrame({"k": floats}),
                            pf.DataFrame({"k": cells})], pending=[1])
        cuts = cuts_of(ctx, 16)
        assert 0 < len(cuts) <= 15
        assert all(type(c) in (int, float) for c in cuts), cuts
        assert not any(c != c for c in cuts)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        nothing = StoredChunks([pf.DataFrame({"k": np.full(50, np.nan)})])
        assert cuts_of(nothing, 4) == []

    def test_yielded_chunks_need_no_storage_call(self):
        """What the operator being tiled yielded is held until its tile
        returns, so the sampler's pending check asks storage only about
        the rest (a groupby checks none of the maps it just ran)."""
        asked = []

        class Storage:
            def contains(self, key):
                asked.append(key)
                return False

        ctx = TileContext(Config(), meta=None, storage=Storage())
        ctx.yielded = {"held"}
        assert ctx.has_value("held") and asked == []
        assert not ctx.has_value("other") and asked == ["other"]

    @pytest.mark.parametrize("n_chunks", [3, 25, 300])
    def test_stride_budget_matches_groupby_cuts(self, n_chunks):
        """On a NaN-free key the cuts are the groupby sampler's: every
        chunk by stride, 4,000 values in all and at least 20 a chunk."""
        rng = np.random.default_rng(n_chunks)
        frames = [pf.DataFrame({"k": np.sort(rng.integers(0, 10**6, 700))})
                  for _ in range(n_chunks)]
        ctx = StoredChunks(frames)
        for n_parts in (2, 7, 16):
            assert cuts_of(ctx, n_parts) == strided_quantile_cuts(ctx, n_parts)
