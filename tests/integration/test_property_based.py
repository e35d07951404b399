"""Property-based tests (hypothesis) on core invariants.

The central property of the whole system: for any frame and any supported
operator chain, the distributed result equals the single-node backend's
result. Plus structural invariants of auto rechunk, fusion, scheduling,
and the storage service.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.core import Session, auto_rechunk, fusion_groups
from repro.core.fusion import color_chunk_graph, singleton_groups
from repro.dataframe import from_frame
from repro import frame as pf
from repro.frame import dtypes
from repro.frame.groupby import Grouper, factorize
from tests.frame import reference_kernels as reference
from tests.frame.reference_kernels import key_signature, signature

SLOW = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def small_frames(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    keys = draw(st.lists(
        st.integers(min_value=0, max_value=5), min_size=n, max_size=n,
    ))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    return pf.DataFrame({"k": keys, "v": values})


#: unicode, the empty string, a NUL, a prefix of another key
STRING_KEYS = ["", "a", "ab", "\0", "é", "日本", "𝄞-key", "a "]


@st.composite
def string_key_frames(draw):
    """``small_frames`` keyed by strings: a few repeating keys, one
    distinct key, or every row its own key — plus a second string column
    to carry along and a low-cardinality int to filter on."""
    n = draw(st.integers(min_value=1, max_value=60))
    kind = draw(st.sampled_from(["few", "one", "distinct"]))
    if kind == "few":
        keys = draw(st.lists(st.sampled_from(STRING_KEYS),
                             min_size=n, max_size=n))
    elif kind == "one":
        keys = [draw(st.sampled_from(STRING_KEYS))] * n
    else:
        keys = [f"{draw(st.sampled_from(STRING_KEYS))}#{i}" for i in range(n)]
    tags = draw(st.lists(st.sampled_from(["x", "", "ÿ"]),
                         min_size=n, max_size=n))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    return pf.DataFrame({"k": dtypes.object_array(keys),
                         "tag": dtypes.object_array(tags), "v": values})


#: every cell kind the object kernels tell apart (tests/frame/
#: test_kernel_encoding.py has the same kinds as a fixed table); small
#: alphabets, so keys repeat and 1 / 1.0 / True meet in one column.
OBJECT_CELLS = st.one_of(
    st.sampled_from(["", "a", "b", "ab", "\0"]),
    st.none(),
    st.sampled_from([float("nan"), np.float64("nan"), np.float32("nan")]),
    st.sampled_from([0, 1, 2, 2 ** 70]),
    st.sampled_from([0.0, 1.0, 0.5, np.float64(2.0)]),
    st.booleans(),
    st.sampled_from([b"", b"a", b"b"]),
    st.sampled_from([(1, "x"), (1, "y"), (2, "x")]),
    st.sampled_from([np.str_("a"), np.str_("c")]),
)


@st.composite
def object_key_columns(draw, max_rows=200, max_keys=3):
    """1-3 object key columns of equal length, each over a few cell kinds."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    n_keys = draw(st.integers(min_value=1, max_value=max_keys))
    return [dtypes.object_array(draw(st.lists(OBJECT_CELLS, min_size=n, max_size=n)))
            for _ in range(n_keys)]


def frame_signature(frame):
    return (list(frame.columns), signature(frame.index.values),
            [signature(frame[name].values) for name in frame.columns])


def outcome(fn):
    """``fn()``'s result signature, or the type of what it raised (keys of
    unorderable kinds raise ``TypeError`` from ``sorted`` either way)."""
    try:
        return fn()
    except TypeError as exc:
        return type(exc)


@st.composite
def shapes_and_limits(draw):
    ndim = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=500)) for _ in range(ndim)
    )
    itemsize = draw(st.sampled_from([1, 4, 8]))
    limit = draw(st.integers(min_value=8, max_value=100_000))
    return shape, itemsize, limit


def tiny_session(**overrides):
    cfg = Config()
    cfg.chunk_store_limit = 256  # force many chunks even on tiny frames
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


# ---------------------------------------------------------------------------
# distributed == single-node
# ---------------------------------------------------------------------------

class TestDistributedEquivalence:
    @SLOW
    @given(small_frames())
    def test_groupby_sum_equivalence(self, local):
        session = tiny_session()
        try:
            dist = from_frame(local, session)
            got = dist.groupby("k").agg({"v": "sum"}).fetch().sort_index()
            expected = local.groupby("k").agg({"v": "sum"})
            np.testing.assert_allclose(
                np.asarray(got["v"].values, float),
                np.asarray(expected["v"].values, float),
                rtol=1e-9, atol=1e-6,
            )
        finally:
            session.close()

    @SLOW
    @given(small_frames(), st.floats(min_value=-1e5, max_value=1e5,
                                     allow_nan=False))
    def test_filter_equivalence(self, local, threshold):
        session = tiny_session()
        try:
            dist = from_frame(local, session)
            got = dist[dist["v"] > threshold].fetch()
            expected = local[local["v"] > threshold]
            assert len(got) == len(expected)
            np.testing.assert_allclose(
                np.asarray(got["v"].values, float),
                np.asarray(expected["v"].values, float),
            )
        finally:
            session.close()

    @SLOW
    @given(small_frames())
    def test_sort_equivalence(self, local):
        session = tiny_session()
        try:
            dist = from_frame(local, session)
            got = dist.sort_values("v").fetch()
            expected = local.sort_values("v")
            np.testing.assert_allclose(
                np.asarray(got["v"].values, float),
                np.asarray(expected["v"].values, float),
            )
        finally:
            session.close()

    @SLOW
    @given(small_frames())
    def test_reduction_equivalence(self, local):
        session = tiny_session()
        try:
            dist = from_frame(local, session)
            assert float(dist["v"].sum()) == pytest.approx(
                float(local["v"].sum()), rel=1e-9, abs=1e-6
            )
            assert int(dist["v"].count()) == local["v"].count()
        finally:
            session.close()


def assert_frames_equal(got, expected, sort_by=None):
    """Same columns, same cells (object cells by exact type, numbers to
    1e-9: a distributed count sums float partials), after an optional
    sort of both — distributed groupbys return partition order."""
    got, expected = got.reset_index(), expected.reset_index()
    assert list(got.columns) == list(expected.columns)
    assert len(got) == len(expected)
    if len(expected) == 0:  # an empty distributed result has no dtypes
        return
    if sort_by:
        got, expected = got.sort_values(sort_by), expected.sort_values(sort_by)
    for name in expected.columns:
        if name == "index":
            continue
        want, have = expected[name].values, got[name].values
        if want.dtype.kind in "fiub":
            np.testing.assert_allclose(np.asarray(have, float), want,
                                       rtol=1e-9, atol=1e-6)
        else:
            assert signature(have) == signature(want), name


class TestColumnarStringKeyEquivalence:
    """The pipelines above on ``chunk_engine="columnar"`` with string keys:
    every kernel between the source and the fetch sees dictionary-carrying
    columns (and chunks a filter emptied), and the answer is the
    ``repro.frame`` oracle's."""

    @SLOW
    @given(string_key_frames(), st.booleans())
    def test_groupby_equivalence(self, local, shuffle):
        session = tiny_session(
            chunk_engine="columnar",
            tree_reduce_threshold=1 if shuffle else 10 ** 9)
        try:
            dist = from_frame(local, session)
            spec = {"v": ["sum", "count"], "tag": ["min", "nunique"]}
            assert_frames_equal(dist.groupby("k").agg(spec).fetch(),
                                local.groupby("k").agg(spec), sort_by=["k"])
            assert_frames_equal(
                dist.groupby(["tag", "k"]).agg({"v": "max"}).fetch(),
                local.groupby(["tag", "k"]).agg({"v": "max"}),
                sort_by=["tag", "k"])
        finally:
            session.close()

    @SLOW
    @given(string_key_frames(), st.floats(min_value=-1e5, max_value=1e5,
                                          allow_nan=False))
    def test_filter_then_groupby_equivalence(self, local, threshold):
        session = tiny_session(chunk_engine="columnar")
        try:
            dist = from_frame(local, session)
            assert_frames_equal(dist[dist["v"] > threshold].fetch(),
                                local[local["v"] > threshold])
            kept = dist[dist["v"] > threshold]  # some chunks come out empty
            assert_frames_equal(
                kept.groupby("k").agg({"v": "sum"}).fetch(),
                local[local["v"] > threshold].groupby("k").agg({"v": "sum"}),
                sort_by=["k"])
        finally:
            session.close()

    @SLOW
    @given(string_key_frames(), st.booleans())
    def test_sort_equivalence(self, local, ascending):
        session = tiny_session(chunk_engine="columnar")
        try:
            got = from_frame(local, session).sort_values(
                "k", ascending=ascending).fetch()
            expected = local.sort_values("k", ascending=ascending)
            assert signature(got["k"].values) == signature(expected["k"].values)
            assert_frames_equal(got, expected, sort_by=["k", "v", "tag"])
        finally:
            session.close()

    @SLOW
    @given(string_key_frames(),
           st.sampled_from(["inner", "left", "right", "outer"]))
    def test_merge_then_groupby_equivalence(self, local, how):
        session = tiny_session(chunk_engine="columnar")
        try:
            names = sorted(set(local["k"].values.tolist()))[::2] + ["absent"]
            dim = pf.DataFrame({"k": dtypes.object_array(names),
                                "label": np.arange(len(names)) % 3})
            dist, ddim = from_frame(local, session), from_frame(dim, session)
            assert_frames_equal(
                dist.merge(ddim, on="k", how=how).fetch(),
                local.merge(dim, on="k", how=how),
                sort_by=["k", "v", "tag"])
            assert_frames_equal(
                dist.merge(ddim, on="k").groupby("label").agg(
                    {"v": "sum"}).fetch(),
                local.merge(dim, on="k").groupby("label").agg({"v": "sum"}),
                sort_by=["label"])
        finally:
            session.close()


# ---------------------------------------------------------------------------
# Algorithm 1 invariants
# ---------------------------------------------------------------------------

class TestObjectKernelsMatchReference:
    """The C-speed object kernels of ``repro.frame`` against the per-cell
    loops they replaced (``tests/frame/reference_kernels.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(object_key_columns())
    def test_kernels(self, keys):
        for arr in keys:
            assert signature(dtypes.isna_array(arr)) == signature(
                reference.isna_array(arr))
            assert outcome(lambda: [signature(a) for a in factorize(arr)]) \
                == outcome(lambda: [signature(a) for a in reference.factorize(arr)])

        def grouping(result):
            codes, n_groups, group_keys = result
            return signature(codes), n_groups, key_signature(group_keys)

        def ours():
            grouper = Grouper(keys, list(range(len(keys))))
            return grouper.codes, grouper.n_groups, grouper.group_keys

        assert outcome(lambda: grouping(ours())) == outcome(
            lambda: grouping(reference.grouper(keys)))

    @settings(max_examples=75, deadline=None)
    @given(object_key_columns(max_rows=60), object_key_columns(max_rows=60),
           st.sampled_from(["inner", "left", "right", "outer"]))
    def test_groupby_and_merge_answer_as_before(self, left_keys, right_keys, how):
        def frame(keys):
            data = {f"k{i}": arr for i, arr in enumerate(keys)}
            data["v"] = np.arange(len(keys[0]), dtype=np.float64)
            return pf.DataFrame(data)

        left, right = frame(left_keys), frame(right_keys)
        by = [f"k{i}" for i in range(len(left_keys))]
        on = by[:len(right_keys)]

        def answers():
            return (
                outcome(lambda: frame_signature(
                    left.groupby(by).agg({"v": ["sum", "count"]}))),
                outcome(lambda: frame_signature(
                    left.groupby(by[0], as_index=False).agg({"v": "max"}))),
                outcome(lambda: frame_signature(
                    left.merge(right, on=on, how=how, suffixes=("_l", "_r")))),
            )

        after = answers()
        with reference.installed():
            before = answers()
        assert after == before


class TestSourceChunksOwnTheirData:
    def test_slicing_a_client_frame_does_not_alias_it(self):
        # FromFrameSlice takes ``frame.iloc[a:b]``; were that a view, an
        # in-place write to the client's frame would change a stored chunk
        # under the identity the result cache filed it by.
        local = pf.DataFrame({"k": dtypes.object_array("abcd" * 50),
                              "v": np.arange(200.0)})
        session = tiny_session()
        try:
            dist = from_frame(local, session).execute()
            keys = [chunk.key for chunk in dist.data.chunks]
            assert len(keys) > 1
            before = [frame_signature(session.storage.peek_value(key))
                      for key in keys]
            local["v"].values[:] = -1.0
            local["k"].values[:] = "z"
            local.index.values[:] = 7
            after = [frame_signature(session.storage.peek_value(key))
                     for key in keys]
            assert after == before
            assert not any(
                np.shares_memory(session.storage.peek_value(key)[name].values,
                                 local[name].values)
                for key in keys for name in ("k", "v"))
        finally:
            session.close()


class TestAutoRechunkProperties:
    @settings(max_examples=100, deadline=None)
    @given(shapes_and_limits())
    def test_covers_shape_exactly(self, case):
        shape, itemsize, limit = case
        result = auto_rechunk(shape, {}, itemsize, limit)
        for dim, length in enumerate(shape):
            assert sum(result[dim]) == length
            assert all(e >= 1 for e in result[dim])

    @settings(max_examples=100, deadline=None)
    @given(shapes_and_limits())
    def test_constrained_dim_respected(self, case):
        shape, itemsize, limit = case
        constraint = {0: shape[0]}  # whole first dimension per chunk
        result = auto_rechunk(shape, constraint, itemsize, limit)
        assert result[0] == [shape[0]]

    @settings(max_examples=100, deadline=None)
    @given(shapes_and_limits())
    def test_chunks_bounded_unless_unit(self, case):
        shape, itemsize, limit = case
        result = auto_rechunk(shape, {}, itemsize, limit)
        max_bytes = itemsize
        for dim in range(len(shape)):
            max_bytes *= max(result[dim])
        # either within ~2x of the limit or already at minimum granularity
        at_minimum = all(max(result[d]) == 1 for d in range(len(shape)))
        assert max_bytes <= 4 * limit or at_minimum


# ---------------------------------------------------------------------------
# fusion invariants
# ---------------------------------------------------------------------------

@st.composite
def random_dags(draw):
    """Random chunk DAGs via random predecessor selection; about one
    operator in three has several output chunks (a shuffle mapper)."""
    from repro.core.operator import Operator
    from repro.graph import DAG, ChunkData

    class AnyOp(Operator):
        def execute(self, ctx):
            return None

    n = draw(st.integers(min_value=1, max_value=25))
    graph = DAG()
    chunks = []
    for i in range(n):
        n_preds = draw(st.integers(min_value=0, max_value=min(i, 3)))
        preds = (
            draw(st.lists(st.sampled_from(chunks), min_size=n_preds,
                          max_size=n_preds, unique=True))
            if chunks and n_preds else []
        )
        n_outputs = draw(st.sampled_from([1, 1, 1, 1, 2, 3]))
        for chunk in AnyOp().new_chunks(preds, [
            {"kind": "tensor", "shape": (1,), "index": (i, r)}
            for r in range(n_outputs)
        ]):
            graph.add_node(chunk)
            for p in preds:
                graph.add_edge(p, chunk)
            chunks.append(chunk)
    return graph


class TestFusionProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_groups_partition_nodes(self, graph):
        groups = fusion_groups(graph)
        seen = [c.key for g in groups for c in g]
        assert sorted(seen) == sorted(c.key for c in graph.nodes())

    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_groups_are_convex(self, graph):
        """No path may leave a subtask and re-enter it (deadlock-free)."""
        from repro.graph.subtask import build_subtask_graph

        groups = fusion_groups(graph)
        subtask_graph = build_subtask_graph(graph, groups)
        subtask_graph.topological_order()  # raises GraphError on a cycle

    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_operator_outputs_share_a_subtask(self, graph):
        """One operator instance, one subtask — with and without fusion,
        and after whatever the convexity repair had to dissolve."""
        for groups in (fusion_groups(graph), singleton_groups(graph)):
            owner = {}
            for gid, group in enumerate(groups):
                for chunk in group:
                    assert owner.setdefault(id(chunk.op), gid) == gid

    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_every_node_colored(self, graph):
        color = color_chunk_graph(graph)
        assert set(color) == {c.key for c in graph.nodes()}


# ---------------------------------------------------------------------------
# storage invariants
# ---------------------------------------------------------------------------

class TestStorageProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=400),
                    min_size=1, max_size=30))
    def test_memory_accounting_never_exceeds_limit(self, sizes):
        from repro.cluster import ClusterState
        from repro.storage import StorageService

        cfg = Config()
        cfg.cluster.n_workers = 1
        cfg.cluster.memory_limit = 1200
        cfg.spill_to_disk = True
        cluster = ClusterState(cfg)
        service = StorageService(cluster, cfg)
        from repro.errors import WorkerOutOfMemory

        stored = []
        for i, size in enumerate(sizes):
            try:
                service.put(f"k{i}", bytearray(size), "worker-0")
                stored.append(f"k{i}")
            except WorkerOutOfMemory:
                pass
            assert cluster.memory["worker-0"].used <= 1200
        # everything stored must still be readable (memory or disk)
        for key in stored:
            assert service.get(key, "worker-0").value is not None
