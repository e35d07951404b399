"""Tests for the column-pruning optimizer: how far requirements reach,
that a handle tiled narrow is widened when a later query needs more, and
that a pruned plan answers exactly as the unpruned one does."""

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.core import Session, build_tileable_graph, prune_columns
from repro.dataframe import from_frame, read_parquet
from repro import frame as pf
from repro.workloads.tpch.dbgen import generate_tables
from repro.workloads.tpch.queries import ALL_QUERIES, materialize

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
try:
    from profile_workload import count_source_columns
finally:
    sys.path.remove(os.path.join(ROOT, "tools"))


@pytest.fixture
def session():
    cfg = Config()
    cfg.chunk_store_limit = 8_000
    s = Session(cfg)
    yield s
    s.close()


@pytest.fixture
def local():
    rng = np.random.default_rng(0)
    return pf.DataFrame({
        "a": rng.integers(0, 5, 500),
        "b": rng.normal(size=500),
        "c": rng.normal(size=500),
        "d": np.array([f"s{i % 3}" for i in range(500)], dtype=object),
    })


def source_of(df):
    """The datasource tileable a linear pipeline starts from."""
    node = df.data
    while node.inputs:
        node = node.inputs[0]
    return node


def source_pruned_columns(df):
    """The columns the pruning pass told ``df``'s source to carry."""
    carried = source_of(df).carried_columns
    return sorted(carried) if carried is not None else None


class TestPruningPass:
    def test_projection_prunes_source(self, session, local):
        df = from_frame(local, session)
        result = df[["b"]]
        graph = build_tileable_graph([result.data])
        required = prune_columns(graph, [result.data])
        assert source_pruned_columns(result) == ["b"]

    def test_filter_keeps_mask_column(self, session, local):
        df = from_frame(local, session)
        result = df[df["a"] > 2][["b"]]
        graph = build_tileable_graph([result.data])
        prune_columns(graph, [result.data])
        pruned = source_pruned_columns(result)
        assert set(pruned) == {"a", "b"}

    def test_groupby_requires_keys_and_values(self, session, local):
        df = from_frame(local, session)
        result = df.groupby("a").agg({"c": "sum"})
        graph = build_tileable_graph([result.data])
        prune_columns(graph, [result.data])
        assert set(source_pruned_columns(result)) == {"a", "c"}

    def test_result_requires_everything(self, session, local):
        df = from_frame(local, session)
        graph = build_tileable_graph([df.data])
        required = prune_columns(graph, [df.data])
        assert required[df.data.key] is None  # the user sees it all

    def test_merge_requires_both_sides_keys(self, session, local):
        left = from_frame(local, session)
        dim = from_frame(pf.DataFrame({"a": [0, 1], "e": [1.0, 2.0]}),
                         session)
        result = left.merge(dim, on="a")[["b", "e"]]
        graph = build_tileable_graph([result.data])
        prune_columns(graph, [result.data])
        assert "a" in (source_pruned_columns(result) or ["a"])


    def test_merge_keeps_a_column_that_only_looks_suffixed(self, session):
        left = from_frame(pf.DataFrame(
            {"k": [0, 1], "v_x": [1.0, 2.0], "w": [3.0, 4.0]}), session)
        right = from_frame(pf.DataFrame({"k": [0, 1], "e": [5.0, 6.0]}),
                           session)
        out = left.merge(right, on="k")[["v_x", "e"]].fetch()
        assert out["v_x"].to_list() == [1.0, 2.0]
        assert source_pruned_columns(left) == ["e", "k", "v", "v_x"]

    def test_requirements_pass_through_frame_methods(self, session, local):
        df = from_frame(local, session)
        result = (df.rename(columns={"b": "z"}).fillna(0.0)
                  .drop(columns=["c"]).head(3)[["z"]])
        graph = build_tileable_graph([result.data])
        required = prune_columns(graph, [result.data])
        assert required[df.data.key] == ["b"]

    def test_arbitrary_callable_stays_conservative(self, session, local):
        df = from_frame(local, session)
        result = df.map_partitions(lambda f: f, columns=list("abcd"))[["b"]]
        graph = build_tileable_graph([result.data])
        assert prune_columns(graph, [result.data])[df.data.key] is None


class TestSourceInvalidation:
    def test_later_query_needing_more_columns_retiles(self, session, local,
                                                      tmp_path):
        path = tmp_path / "t.rpq"
        local.to_parquet(path)
        df = read_parquet(path, session=session)
        # query 1 prunes the scan down to column b
        df[["b"]].fetch()
        first_chunks = [c.key for c in df.data.chunks]
        # query 2 needs column c: the cached tiling is unusable
        out = df[["c"]].fetch()
        assert out.columns.to_list() == ["c"]
        assert out["c"].to_list() == local["c"].to_list()

    def test_subset_query_reuses_tiling(self, session, local, tmp_path):
        path = tmp_path / "t.rpq"
        local.to_parquet(path)
        df = read_parquet(path, session=session)
        df[["b", "c"]].fetch()
        chunks_before = [c.key for c in df.data.chunks]
        df[["b"]].fetch()  # subset of what is already read
        assert [c.key for c in df.data.chunks] == chunks_before

    def test_the_other_sides_columns_do_not_retile(self, session, local):
        # a join asks both sides for every required name; ``w`` is not
        # something ``df`` could carry more of
        df = from_frame(local, session)
        dim = from_frame(pf.DataFrame({"a": np.arange(5),
                                       "w": np.arange(5) * 0.5}), session)
        df[["a", "b"]].fetch()
        chunks_before = [c.key for c in df.data.chunks]
        out = df.merge(dim, on="a")[["b", "w"]].fetch()
        assert [c.key for c in df.data.chunks] == chunks_before
        assert_same(out, local.merge(dim.fetch(), on="a")[["b", "w"]])

    def test_full_frame_after_pruned_query(self, session, local, tmp_path):
        path = tmp_path / "t.rpq"
        local.to_parquet(path)
        df = read_parquet(path, session=session)
        df[["b"]].fetch()
        full = df.fetch()
        assert full.columns.to_list() == local.columns.to_list()
        assert full["d"].to_list() == local["d"].to_list()

    def test_pruning_disabled_reads_everything(self, local, tmp_path):
        cfg = Config()
        cfg.column_pruning = False
        session = Session(cfg)
        path = tmp_path / "t.rpq"
        local.to_parquet(path)
        df = read_parquet(path, session=session)
        df[["b"]].fetch()
        assert source_pruned_columns(df) is None
        session.close()


def make_session(**overrides):
    cfg = Config()
    cfg.chunk_store_limit = 8_000
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def assert_same(got, want):
    """Frames: same columns in the same order and the same cells, rows
    compared in sorted order (distributed joins and groupbys return
    partition order); numbers to 1e-9, whatever dtype carries them."""
    if not hasattr(want, "columns"):
        assert got == pytest.approx(want, rel=1e-9)
        return
    columns = list(want.columns)
    assert list(got.columns) == columns
    assert len(got) == len(want)
    if not len(want):
        return
    got = got.sort_values(columns).reset_index(drop=True)
    want = want.sort_values(columns).reset_index(drop=True)
    for name in columns:
        have, expected = got[name].to_list(), want[name].to_list()
        if all(isinstance(v, (int, float, np.number)) for v in expected):
            np.testing.assert_allclose(np.asarray(have, float),
                                       np.asarray(expected, float),
                                       rtol=1e-9, atol=1e-9, err_msg=name)
        else:
            assert have == expected, name


# ---------------------------------------------------------------------------
# reach: what each TPC-H query reads of its tables
# ---------------------------------------------------------------------------

#: the columns each query cannot do without, written out by hand.
MINIMAL = {
    "q1": {"lineitem": {
        "l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax"}},                # 7 of 16
    "q3": {"customer": {"c_custkey", "c_mktsegment"},
           "orders": {"o_orderkey", "o_custkey", "o_orderdate",
                      "o_shippriority"},
           "lineitem": {"l_orderkey", "l_shipdate", "l_extendedprice",
                        "l_discount"}},                            # 10 of 33
    "q5": {"region": {"r_regionkey", "r_name"},
           "nation": {"n_nationkey", "n_regionkey", "n_name"},
           "customer": {"c_custkey", "c_nationkey"},
           "orders": {"o_orderkey", "o_custkey", "o_orderdate"},
           "lineitem": {"l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"},
           "supplier": {"s_suppkey", "s_nationkey"}},              # 16 of 47
    "q6": {"lineitem": {"l_shipdate", "l_discount", "l_quantity",
                        "l_extendedprice"}},                       # 4 of 16
}


class TestTpchCensus:
    @pytest.fixture(scope="class")
    def tables(self):
        return generate_tables(sf=1.0, seed=7)

    @staticmethod
    def run(tables, name, **overrides):
        with make_session(chunk_store_limit=64 * 1024, **overrides) as session:
            handles = {t: from_frame(frame, session)
                       for t, frame in tables.items()}
            value = materialize(ALL_QUERIES[name](handles))
            # a join asks both sides for a name: drop the other side's
            carried = {t: h.data.carried_columns if h.data.carried_columns
                       is None else h.data.carried_columns & set(h.columns)
                       for t, h in handles.items() if h.data.is_tiled}
        return value, carried

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES,
                                            key=lambda q: int(q[1:])))
    def test_pruned_equals_unpruned_equals_oracle(self, tables, name, engine):
        want = ALL_QUERIES[name](tables)
        with count_source_columns() as rows:
            pruned, carried = self.run(tables, name, chunk_engine=engine)
        unpruned, untouched = self.run(tables, name, chunk_engine=engine,
                                       column_pruning=False)
        assert_same(pruned, want)
        assert_same(unpruned, pruned)
        assert set(untouched.values()) == {None}
        # every plan named the columns it reads of every table: no
        # operator on the way answered "everything" for a result that
        # shows less (q2 does read all 7 of supplier — by name)
        assert rows
        blocked = [row for row in rows if row[-2] and not row[-1]]
        assert not blocked
        for table, columns in MINIMAL.get(name, {}).items():
            assert carried[table] == columns, table
        if name in MINIMAL:
            assert set(carried) == set(MINIMAL[name])


# ---------------------------------------------------------------------------
# soundness: a handle tiled narrow is asked for more
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["row", "columnar"])
class TestReusedHandles:
    @pytest.fixture
    def session(self, engine):
        with make_session(chunk_engine=engine) as s:
            yield s

    def test_whole_frame_after_one_column_of_it(self, session, local):
        df = from_frame(local, session)
        flt = df[df["a"] > 2]
        want = local[local["a"] > 2]
        assert flt["b"].sum().fetch() == pytest.approx(want["b"].sum())
        assert flt.data.carried_columns == {"b"}
        assert df.data.carried_columns == {"a", "b"}
        out = flt.fetch()  # all four columns, in source order
        assert out.columns.to_list() == ["a", "b", "c", "d"]
        assert_same(out, want)

    def test_widening_twice_in_a_row(self, session, local):
        df = from_frame(local, session)
        flt = df[df["a"] > 2]
        want = local[local["a"] > 2]
        flt["b"].sum().fetch()
        assert_same(flt[["c", "b"]].fetch(), want[["c", "b"]])
        assert flt.data.carried_columns == {"b", "c"}
        assert df.data.carried_columns == {"a", "b", "c"}
        assert_same(flt.fetch(), want)
        assert flt.data.carried_columns is None
        assert df.data.carried_columns is None
        # ... and what was asked first still answers
        assert flt["b"].sum().fetch() == pytest.approx(want["b"].sum())

    def test_subset_query_reuses_intermediate_tiling(self, session, local):
        df = from_frame(local, session)
        flt = df[df["a"] > 2]
        flt[["b", "c"]].fetch()
        chunks_before = [c.key for c in flt.data.chunks]
        source_before = [c.key for c in df.data.chunks]
        total = flt["b"].sum().fetch()  # subset of what the chunks carry
        assert [c.key for c in flt.data.chunks] == chunks_before
        assert [c.key for c in df.data.chunks] == source_before
        assert total == pytest.approx(local[local["a"] > 2]["b"].sum())

    def test_scalar_of_an_assigned_column_then_groupby(self, session, local):
        """q11's shape: ``ps["value"].sum()``, then ``ps.groupby(...)``."""
        dim = pf.DataFrame({"a": np.arange(5), "w": np.arange(5) * 0.5})

        def query(frame, dim, as_float):
            ps = frame.merge(dim, on="a")
            ps = ps.assign(value=lambda d: d["b"] * d["w"])
            total = as_float(ps["value"].sum())
            per_key = ps.groupby("a", as_index=False).agg({"value": "sum",
                                                           "c": "max"})
            return per_key[per_key["value"] > total * 0.1]

        got = query(from_frame(local, session), from_frame(dim, session),
                    lambda s: float(s.fetch()))
        assert_same(got.fetch(), query(local, dim, float))

    def test_mean_of_a_filter_then_sibling_filter(self, session, local):
        """q22's shape: ``positive["b"].mean()``, then ``rich[...]`` off
        the same assigned-and-filtered frame."""
        def query(frame, as_float):
            cust = frame.assign(code=lambda d: d["d"].str.slice(0, 2))
            cust = cust[cust["code"].isin(["s0", "s1"])]
            positive = cust[cust["b"] > 0.0]
            avg = as_float(positive["b"].mean())
            rich = cust[cust["b"] > avg]
            return rich.groupby("code", as_index=False).agg(
                {"a": "count", "c": "sum"}
            ).rename(columns={"a": "n", "c": "total"})

        got = query(from_frame(local, session), lambda s: float(s.fetch()))
        assert_same(got.fetch(), query(local, float))


def test_widening_keeps_one_chunking_per_plan(local):
    """``flt``'s mask was cut like the narrow source. A static plan cannot
    align it with the wider, differently cut one, so it is tiled again
    with the rest — and the source is read once, not once per width."""
    with make_session(dynamic_tiling=False, chunk_store_limit=4_000) as s:
        df = from_frame(local, s)
        mask = df["a"] > 2
        flt = df[mask]
        flt["b"].sum().fetch()
        narrow = [c.key for c in mask.data.chunks]
        assert len(df.data.chunks) < len(local) * 4 * 8 // 4_000
        assert_same(flt.fetch(), local[local["a"] > 2])
        assert len(mask.data.chunks) == len(df.data.chunks) > len(narrow)
        assert not set(narrow) & {c.key for c in mask.data.chunks}


# ---------------------------------------------------------------------------
# column order of what comes back
# ---------------------------------------------------------------------------

class TestColumnOrder:
    @pytest.mark.parametrize("build", [
        lambda d: d.assign(e=lambda x: x["b"] + 1),            # assign-new
        lambda d: d.assign(b=lambda x: x["c"] * 2),            # overwrite
        lambda d: d.assign(b=1.5),
        lambda d: d.assign(b=lambda x: x["c"] * 2).assign(a=lambda x: x["b"]),
        lambda d: d.rename(columns={"b": "z", "d": "b"}),
        lambda d: d.drop(columns=["b"]),
        lambda d: d[d["a"] > 1].assign(c=lambda x: x["b"])[["d", "c", "a"]],
    ], ids=["assign-new", "assign-overwrite", "assign-overwrite-scalar",
            "assign-overwrite-chain", "rename", "drop", "filter-assign-project"])
    def test_fetched_frame_has_the_oracles_columns(self, session, local,
                                                   build):
        got = build(from_frame(local, session)).fetch()
        want = build(local)
        assert got.columns.to_list() == want.columns.to_list()
        assert_same(got, want)

    def test_pruned_source_keeps_source_order(self, session, local):
        df = from_frame(local, session)
        out = df.assign(e=lambda x: x["c"])[["e", "d", "b", "a"]]
        out.execute()
        assert df.data.carried_columns == {"a", "b", "c", "d"} or \
            df.data.carried_columns is None
        narrow = from_frame(local, session)
        narrow[["d", "a"]].execute()
        assert narrow.data.chunks[0].columns == ["a", "d"]

    def test_empty_requirement_keeps_one_column(self, session, local):
        df = from_frame(local, session)
        df["e"] = 1.0
        out = df[["e"]].fetch()
        assert len(out) == len(local)
        assert source_of(df).chunks[0].columns == ["a"]


# ---------------------------------------------------------------------------
# property: any chain, pruned == unpruned == oracle
# ---------------------------------------------------------------------------

DIM = pf.DataFrame({"k": np.arange(4), "m": np.arange(4) * 10.0,
                    "n": np.array(["w", "x", "y", "z"], dtype=object)})


@st.composite
def pipelines(draw):
    """A 4-6 column frame (int key ``k``, whole-number float columns, so
    every sum is exact whatever the chunking) and a chain of steps, each
    valid for the columns the chain has at that point."""
    n_rows = draw(st.integers(min_value=1, max_value=40))
    names = ["k"] + [f"c{i}" for i in range(draw(st.integers(3, 5)))]
    data = {"k": draw(st.lists(st.integers(0, 3), min_size=n_rows,
                               max_size=n_rows))}
    for name in names[1:]:
        data[name] = [float(v) for v in draw(st.lists(
            st.integers(-50, 50), min_size=n_rows, max_size=n_rows))]
    # ``strings``: the object columns (a merge brings ``n``; a rename
    # carries it along), which no arithmetic step may read.
    columns, strings, steps, fresh = list(names), set(), [], 0
    for _ in range(draw(st.integers(1, 6))):
        numeric = [c for c in columns if c not in strings]
        kind = draw(st.sampled_from(
            ["filter", "getitem", "setitem", "rename", "drop", "merge",
             "groupby"]))
        if kind == "filter" and numeric:
            steps.append(("filter", draw(st.sampled_from(numeric)),
                          draw(st.integers(-20, 20))))
        elif kind == "getitem":
            keep = draw(st.lists(st.sampled_from(columns), min_size=1,
                                 unique=True))
            steps.append(("getitem", keep))
            columns = list(keep)
            strings &= set(keep)
        elif kind == "setitem" and numeric:
            target = draw(st.sampled_from(columns + [f"new{fresh}"]))
            fresh += 1
            steps.append(("setitem", target, draw(st.sampled_from(numeric)),
                          draw(st.sampled_from(numeric))))
            if target not in columns:
                columns.append(target)
            strings.discard(target)
        elif kind == "rename":
            old = draw(st.sampled_from(columns))
            steps.append(("rename", old, f"r{fresh}"))
            columns[columns.index(old)] = f"r{fresh}"
            if old in strings:
                strings.remove(old)
                strings.add(f"r{fresh}")
            fresh += 1
        elif kind == "drop" and len(columns) > 1:
            gone = draw(st.sampled_from(columns))
            steps.append(("drop", gone))
            columns.remove(gone)
            strings.discard(gone)
        elif kind == "merge" and "k" in columns \
                and not {"m", "n"} & set(columns):
            steps.append(("merge",))
            columns += ["m", "n"]
            strings.add("n")
        elif kind == "groupby" and len(numeric) > 1:
            key = draw(st.sampled_from(numeric))
            value = draw(st.sampled_from([c for c in numeric if c != key]))
            how = draw(st.sampled_from(["sum", "max", "count"]))
            steps.append(("groupby", key, value, how))
            columns, strings = [key, value], set()
    return pf.DataFrame(data), steps


def run_pipeline(frame, dim, steps):
    for step in steps:
        if step[0] == "filter":
            frame = frame[frame[step[1]] > step[2]]
        elif step[0] == "getitem":
            frame = frame[step[1]]
        elif step[0] == "setitem":
            _, target, left, right = step
            frame = frame.assign(
                **{target: lambda d, l=left, r=right: d[l] + d[r]})
        elif step[0] == "rename":
            frame = frame.rename(columns={step[1]: step[2]})
        elif step[0] == "drop":
            frame = frame.drop(columns=[step[1]])
        elif step[0] == "merge":
            frame = frame.merge(dim, on="k")
        else:
            _, key, value, how = step
            frame = frame.groupby(key, as_index=False).agg({value: how})
    return frame


class TestPrunedEqualsUnpruned:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pipelines())
    def test_any_chain(self, pipeline):
        local, steps = pipeline
        want = run_pipeline(local, DIM, steps)
        got = {}
        for pruning in (True, False):
            with make_session(chunk_store_limit=256,
                              column_pruning=pruning) as session:
                got[pruning] = run_pipeline(
                    from_frame(local, session), from_frame(DIM, session),
                    steps).fetch()
        assert got[True].columns.to_list() == got[False].columns.to_list()
        assert_same(got[True], got[False])
        assert_same(got[True], want)


# ---------------------------------------------------------------------------
# result cache: narrow and wide plans over one source
# ---------------------------------------------------------------------------

class TestPruningWithResultCache:
    def test_narrow_and_wide_never_serve_each_other(self, local):
        want = local[local["a"] > 2]
        with make_session(result_cache=True) as session:
            def kept():  # fresh handles: reuse is by identity alone
                df = from_frame(local, session)
                return df[df["a"] > 2]

            assert kept()["b"].sum().fetch() == pytest.approx(want["b"].sum())
            # same filter over the same frame, all four columns this
            # time: the slices read more, so nothing of the narrow run is
            # a hit — least of all its two-column filter chunks
            wide = kept().fetch()
            assert session.last_report.cache_hit_chunks == 0
            assert wide.columns.to_list() == ["a", "b", "c", "d"]
            assert_same(wide, want)
            # and the wide run's chunks do not answer the narrow plan
            # with a frame where it built a series
            assert kept()["b"].sum().fetch() == pytest.approx(want["b"].sum())
            assert session.last_report.cache_hit_chunks > 0
            assert_same(kept().fetch(), want)

    def test_reused_handle_with_cache(self, local):
        want = local[local["a"] > 2]
        with make_session(result_cache=True) as session:
            df = from_frame(local, session)
            flt = df[df["a"] > 2]
            assert flt["b"].sum().fetch() == pytest.approx(want["b"].sum())
            assert_same(flt.fetch(), want)
            assert_same(flt[["c"]].fetch(), want[["c"]])
