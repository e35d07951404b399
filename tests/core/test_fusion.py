"""Unit tests for coloring-based graph-level fusion (Fig. 7),
operator-level fusion planning and the kernel loop's fused steps."""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import color_chunk_graph, fusion_groups, singleton_groups
from repro.core.operator import Operator
from repro.core.opfusion import plan_subtask, step_io_keys
from repro.dataframe.arithmetic import ElementwiseChunk
from repro.dataframe.indexing import FilterChunk
from repro.frame.selection import Selection
from repro.graph import DAG, ChunkData, Subtask
from repro.services.runner import run_subtask_kernels


class PlainOp(Operator):
    def execute(self, ctx):
        return None


class ElemOp(Operator):
    is_elementwise = True

    def execute(self, ctx):
        return None


def make_chunk(op_cls, inputs, idx):
    op = op_cls()
    return op.new_chunk(inputs, "tensor", (1,), (idx,))


def build(edges_spec):
    """Build a chunk graph from {name: [pred names]} (insertion order)."""
    graph = DAG()
    chunks = {}
    for i, (name, preds) in enumerate(edges_spec.items()):
        chunk = make_chunk(PlainOp, [chunks[p] for p in preds], i)
        chunks[name] = chunk
        graph.add_node(chunk)
        for p in preds:
            graph.add_edge(chunks[p], chunk)
    return graph, chunks


def groups_as_names(graph, chunks):
    groups = fusion_groups(graph)
    name_of = {chunk.key: name for name, chunk in chunks.items()}
    return [sorted(name_of[c.key] for c in group) for group in groups]


class TestColoring:
    def test_straight_line_fuses(self):
        graph, chunks = build({"a": [], "b": ["a"], "c": ["b"]})
        groups = groups_as_names(graph, chunks)
        assert groups == [["a", "b", "c"]]

    def test_independent_sources_get_distinct_colors(self):
        graph, chunks = build({"a": [], "b": []})
        color = color_chunk_graph(graph)
        assert color[chunks["a"].key] != color[chunks["b"].key]

    def test_join_of_different_colors_gets_new_color(self):
        graph, chunks = build({"a": [], "b": [], "c": ["a", "b"]})
        color = color_chunk_graph(graph)
        assert color[chunks["c"].key] not in (
            color[chunks["a"].key], color[chunks["b"].key]
        )
        groups = groups_as_names(graph, chunks)
        assert sorted(groups) == [["a"], ["b"], ["c"]]

    def test_diamond_reconverges_into_one_group(self):
        # a feeds b and c (both inherit a's color in step 2); d joins b+c.
        # b and c share a color so d inherits it; step 3 sees a's
        # successors all sharing a's color → no separation: all fused.
        graph, chunks = build({
            "a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]
        })
        groups = groups_as_names(graph, chunks)
        assert groups == [["a", "b", "c", "d"]]

    def test_step3_separates_mixed_branch(self):
        # Fig. 7 pattern: a -> b (same color chain) but a also feeds j,
        # which joins with another source s, so j has a different color.
        # Step 3 must split b away from a.
        graph, chunks = build({
            "a": [], "s": [], "b": ["a"], "j": ["a", "s"], "b2": ["b"],
        })
        color = color_chunk_graph(graph)
        assert color[chunks["b"].key] != color[chunks["a"].key]
        # the recolor propagates down b's chain
        assert color[chunks["b2"].key] == color[chunks["b"].key]
        groups = groups_as_names(graph, chunks)
        assert ["b", "b2"] in groups
        assert ["a"] in groups

    def test_groups_partition_nodes(self):
        graph, chunks = build({
            "a": [], "b": ["a"], "c": ["a"], "d": ["b"], "e": ["c", "d"],
        })
        groups = fusion_groups(graph)
        seen = [c.key for g in groups for c in g]
        assert sorted(seen) == sorted(c.key for c in graph.nodes())

    def test_same_color_requires_connectivity(self):
        # two disjoint straight lines must not share a subtask
        graph, chunks = build({"a": [], "b": ["a"], "x": [], "y": ["x"]})
        groups = groups_as_names(graph, chunks)
        assert sorted(groups) == [["a", "b"], ["x", "y"]]

    def test_singleton_groups(self):
        graph, chunks = build({"a": [], "b": ["a"]})
        groups = singleton_groups(graph)
        assert all(len(g) == 1 for g in groups)
        assert len(groups) == 2


class TestOperatorFusionPlan:
    def test_elementwise_chain_becomes_one_step(self):
        a = make_chunk(ElemOp, [], 0)
        b = make_chunk(ElemOp, [a], 1)
        c = make_chunk(ElemOp, [b], 2)
        subtask = Subtask([a, b, c])
        steps = plan_subtask(subtask, enable=True)
        assert len(steps) == 1
        assert [ch.key for ch in steps[0]] == [a.key, b.key, c.key]

    def test_disabled_gives_one_step_per_op(self):
        a = make_chunk(ElemOp, [], 0)
        b = make_chunk(ElemOp, [a], 1)
        subtask = Subtask([a, b])
        assert len(plan_subtask(subtask, enable=False)) == 2

    def test_non_elementwise_breaks_chain(self):
        a = make_chunk(ElemOp, [], 0)
        b = make_chunk(PlainOp, [a], 1)
        c = make_chunk(ElemOp, [b], 2)
        subtask = Subtask([a, b, c])
        steps = plan_subtask(subtask, enable=True)
        assert len(steps) == 3

    def test_branching_consumer_breaks_chain(self):
        a = make_chunk(ElemOp, [], 0)
        b = make_chunk(ElemOp, [a], 1)
        c = make_chunk(ElemOp, [a], 2)  # a has two consumers
        subtask = Subtask([a, b, c])
        steps = plan_subtask(subtask, enable=True)
        assert len(steps) == 3

    def test_output_chunk_not_fused_away(self):
        # a is also an output of the subtask → it must stay addressable
        a = make_chunk(ElemOp, [], 0)
        b = make_chunk(ElemOp, [a], 1)
        subtask = Subtask([a, b])
        subtask.output_keys = [a.key, b.key]
        steps = plan_subtask(subtask, enable=True)
        assert len(steps) == 2

    def test_step_io_keys_hide_intermediates(self):
        ext = make_chunk(PlainOp, [], 9)
        a = make_chunk(ElemOp, [ext], 0)
        b = make_chunk(ElemOp, [a], 1)
        inputs, outputs = step_io_keys([a, b])
        assert inputs == {ext.key}
        assert outputs == {b.key}  # a is an invisible intermediate


# ---------------------------------------------------------------------------
# the kernel loop: a fused step is its ops run in turn, one result kept
# ---------------------------------------------------------------------------

def filter_compare_filter_project():
    """filter → column compare → filter → projection over one frame.

    The first filter feeds the compare and the second filter, so it is a
    step of its own; the other three are one fused step whose second
    filter's selection reaches the projection, which reads frames only.
    """
    frame = ChunkData("dataframe", (8, 3), (0, 0), columns=["a", "b", "c"])
    mask = ChunkData("series", (8,), (0,))
    first = FilterChunk().new_chunk([frame, mask], "dataframe", (np.nan, 3),
                                    (0, 0), columns=["a", "b", "c"])
    compare = ElementwiseChunk(
        func=lambda df: df["b"] > 3, reads_selection=True,
    ).new_chunk([first], "series", (np.nan,), (0,))
    second = FilterChunk().new_chunk([first, compare], "dataframe",
                                     (np.nan, 3), (0, 0),
                                     columns=["a", "b", "c"])
    project = ElementwiseChunk(func=lambda df: df[["a", "c"]]).new_chunk(
        [second], "dataframe", (np.nan, 2), (0, 0), columns=["a", "c"])
    subtask = Subtask([first, compare, second, project])
    subtask.output_keys = [project.key]
    inputs = {
        frame.key: pf.DataFrame({"a": np.arange(8), "b": np.arange(8) % 5,
                                 "c": np.arange(8) * 0.5}),
        mask.key: pf.Series(np.arange(8) != 2),
    }
    return subtask, inputs


def run_kernels(subtask, inputs, fusion: bool):
    cfg = Config()
    cfg.operator_fusion = fusion
    return run_subtask_kernels(subtask, dict(inputs), cfg)


class TestKernelLoop:
    @pytest.fixture
    def materializations(self, monkeypatch):
        calls = []
        materialize = Selection.materialize

        def counted(selection):
            calls.append(selection)
            return materialize(selection)

        monkeypatch.setattr(Selection, "materialize", counted)
        return calls

    def test_fused_and_unfused_outputs_are_equal(self):
        subtask, inputs = filter_compare_filter_project()
        fused = run_kernels(subtask, inputs, fusion=True).outputs
        unfused = run_kernels(subtask, inputs, fusion=False).outputs
        assert set(fused) == set(unfused) == {subtask.chunks[-1].key}
        got, want = (out[subtask.chunks[-1].key] for out in (fused, unfused))
        assert type(got) is pf.DataFrame
        assert got.columns.to_list() == want.columns.to_list() == ["a", "c"]
        for name in ("a", "c"):
            assert got[name].values.tolist() == want[name].values.tolist()
        assert got["a"].values.tolist() == [4]

    def test_fused_step_records_only_its_final_op(self):
        subtask, inputs = filter_compare_filter_project()
        first, compare, second, project = subtask.chunks
        steps = plan_subtask(subtask, enable=True)
        assert [[c.key for c in step] for step in steps] == [
            [first.key], [compare.key, second.key, project.key]]
        record = run_kernels(subtask, inputs, fusion=True)
        assert set(record.op_results) == {id(first.op), id(project.op)}
        assert set(record.op_extra_meta) == set(record.op_results)
        assert set(record.outputs) == {project.key}
        record = run_kernels(subtask, inputs, fusion=False)
        assert set(record.op_results) == {id(c.op) for c in subtask.chunks}

    @pytest.mark.parametrize("fusion", [True, False])
    def test_selection_reaching_a_frame_reader_is_materialized_once(
            self, materializations, fusion):
        subtask, inputs = filter_compare_filter_project()
        record = run_kernels(subtask, inputs, fusion=fusion)
        # the second filter's selection, before the projection takes it;
        # the first filter's rows are read only by selection readers
        assert len(materializations) == 1
        (selection,) = materializations
        assert selection.rows.tolist() == [4]
        assert type(record.outputs[subtask.chunks[-1].key]) is pf.DataFrame


# ---------------------------------------------------------------------------
# sibling fusion: the outputs of one operator instance are adjacent
# ---------------------------------------------------------------------------

def make_outputs(inputs, n_outputs, idx):
    """One operator instance with ``n_outputs`` output chunks."""
    return PlainOp().new_chunks(inputs, [
        {"kind": "tensor", "shape": (1,), "index": (idx, r)}
        for r in range(n_outputs)
    ])


def graph_of(*chunks):
    """The DAG over ``chunks`` with the edges their ops' inputs imply."""
    graph = DAG()
    for chunk in chunks:
        graph.add_node(chunk)
    for chunk in chunks:
        for dep in chunk.inputs:
            if dep in graph:
                graph.add_edge(dep, chunk)
    return graph


def shuffle_stage(n_mappers, n_reducers, stored_inputs):
    """Mappers with one partition per reducer, reducers reading a column
    of partitions; the mappers' inputs are in the graph or already
    stored (so a mapper node has no predecessor at all)."""
    sources = [make_chunk(PlainOp, [], m) for m in range(n_mappers)]
    mappers = [make_outputs([src], n_reducers, m)
               for m, src in enumerate(sources)]
    reducers = [make_chunk(PlainOp, [parts[r] for parts in mappers], r)
                for r in range(n_reducers)]
    nodes = [c for parts in mappers for c in parts] + reducers
    if not stored_inputs:
        nodes = sources + nodes
    return graph_of(*nodes), sources, mappers, reducers


def group_index(groups):
    return {chunk.key: gid for gid, group in enumerate(groups)
            for chunk in group}


class TestSiblingFusion:
    def test_stored_input_mapper_is_one_subtask(self):
        # the case the shared-predecessor coloring missed: with the
        # mapper's input stored there is no predecessor to inherit from.
        graph, _, mappers, reducers = shuffle_stage(4, 3, stored_inputs=True)
        groups = fusion_groups(graph)
        assert len(groups) == len(mappers) + len(reducers)
        where = group_index(groups)
        for parts in mappers:
            assert len({where[c.key] for c in parts}) == 1

    def test_mapper_fuses_with_its_input_chain(self):
        graph, sources, mappers, reducers = shuffle_stage(
            4, 3, stored_inputs=False)
        groups = fusion_groups(graph)
        assert len(groups) == len(mappers) + len(reducers)
        where = group_index(groups)
        for src, parts in zip(sources, mappers):
            assert {where[c.key] for c in parts} == {where[src.key]}

    def test_separation_pass_moves_siblings_together(self):
        # a feeds both outputs of one op and a join with another source:
        # step 3 splits the op off a, as one unit.
        a = make_chunk(PlainOp, [], 0)
        s = make_chunk(PlainOp, [], 1)
        x1, x2 = make_outputs([a], 2, 2)
        j = make_chunk(PlainOp, [a, s], 3)
        graph = graph_of(a, s, x1, x2, j)
        color = color_chunk_graph(graph)
        assert color[x1.key] == color[x2.key] != color[a.key]
        where = group_index(fusion_groups(graph))
        assert where[x1.key] == where[x2.key] != where[a.key]

    def test_no_fusion_baseline_still_runs_an_op_once(self):
        graph, _, mappers, reducers = shuffle_stage(3, 4, stored_inputs=True)
        groups = singleton_groups(graph)
        assert len(groups) == len(mappers) + len(reducers)
        assert sorted(map(len, groups)) == [1] * 4 + [4] * 3

    def test_unread_and_kept_outputs_are_stored(self):
        from repro.graph.subtask import build_subtask_graph

        # this graph reads partition 0 only; partition 1 has no consumer
        # here but is stored all the same (a later stage reads it).
        src = make_chunk(PlainOp, [], 0)
        p0, p1 = make_outputs([src], 2, 1)
        reducer = make_chunk(PlainOp, [p0], 2)
        graph = graph_of(src, p0, p1, reducer)
        groups = fusion_groups(graph)
        (subtask,) = build_subtask_graph(graph, groups).nodes()
        assert subtask.output_keys == [p1.key, reducer.key]
        # the plan reads src again after this graph: it is stored too.
        (subtask,) = build_subtask_graph(
            graph, groups, keep={src.key}).nodes()
        assert subtask.output_keys == [src.key, p1.key, reducer.key]

    def test_closure_of_one_output_holds_its_siblings(self):
        from repro.core.tiler import chunk_closure

        src = make_chunk(PlainOp, [], 0)
        p0, p1, p2 = make_outputs([src], 3, 1)
        reducer = make_chunk(PlainOp, [p0], 2)
        graph = chunk_closure([reducer], lambda key: False)
        assert {c.key for c in graph.nodes()} == {
            c.key for c in (src, p0, p1, p2, reducer)}
        # told what the plan reads, it leaves the unread sibling out
        # (the Q blocks of a QR asked for R alone).
        graph = chunk_closure([reducer], lambda key: False,
                              {p1.key}.__contains__)
        assert {c.key for c in graph.nodes()} == {
            c.key for c in (src, p0, p1, reducer)}
        # a stored sibling is a source node: present, not expanded.
        graph = chunk_closure([reducer], {p0.key, p1.key}.__contains__)
        assert {c.key for c in graph.nodes()} == {
            c.key for c in (p0, reducer)}

    def test_shuffle_stage_runs_mappers_plus_reducers(self):
        from repro.core.executor import GraphExecutor
        from tests.core.golden_harness import (
            WORKLOADS, make_session, record_plan)

        workload, overrides = WORKLOADS["groupby_shuffle"]
        stages = []
        execute = GraphExecutor.execute

        def logging(self, *args, **kwargs):
            stages.append(execute(self, *args, **kwargs))
            return stages[-1]

        GraphExecutor.execute = logging
        try:
            with make_session(**overrides) as session, record_plan() as plan:
                workload(session)
        finally:
            GraphExecutor.execute = execute
        groupby = plan[-1]
        mappers = groupby["chunk_ops"]["GroupByPartition"]
        reducers = groupby["chunk_ops"]["GroupByAgg:reduce"]
        assert mappers > 1 and reducers > 1
        # the map chunks ran in the yields before: the last stage is the
        # shuffle alone, one subtask per mapper and one per reducer.
        assert stages[-1].n_subtasks == mappers + reducers
