"""Unit tests for the Operator base class and tiling protocol helpers."""

import pytest

from repro.core.operator import (
    DataSourceOp,
    ExecContext,
    Operator,
    TileContext,
    run_tile,
)
from repro.config import Config
from repro.core.meta import MetaService
from repro.graph.entity import ChunkData, TileableData


class AddOp(Operator):
    def execute(self, ctx):
        return sum(ctx.get(c.key) for c in self.inputs)


class TestGraphConstruction:
    def test_new_tileable_wires_inputs_outputs(self):
        source = TileableData("tensor", (4,))
        op = AddOp(alpha=2)
        out = op.new_tileable([source], "tensor", (4,))
        assert op.inputs == [source]
        assert op.outputs == [out]
        assert out.op is op
        assert out.inputs == [source]
        assert op.params["alpha"] == 2

    def test_new_tileables_multi_output(self):
        op = AddOp()
        outs = op.new_tileables([], [
            {"kind": "tensor", "shape": (2, 2)},
            {"kind": "tensor", "shape": (2,)},
        ])
        assert len(outs) == 2
        assert all(o.op is op for o in outs)

    def test_new_chunk(self):
        dep = ChunkData("tensor", (3,), (0,))
        op = AddOp()
        out = op.new_chunk([dep], "tensor", (3,), (0,))
        assert out.index == (0,)
        assert out.inputs == [dep]

    def test_display_name_includes_stage(self):
        op = AddOp()
        assert op.display_name == "AddOp"
        op.stage = "combine"
        assert op.display_name == "AddOp::combine"


class TestTilingProtocol:
    def test_run_tile_wraps_plain_function(self):
        class PlainTile(Operator):
            def tile(self, ctx):
                return [(["chunks"], ((1,),))]

        gen = run_tile(PlainTile(), None)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == [(["chunks"], ((1,),))]

    def test_run_tile_passes_through_generators(self):
        class GenTile(Operator):
            def tile(self, ctx):
                yield ["partial"]
                return [([], ((),))]

        gen = run_tile(GenTile(), None)
        assert next(gen) == ["partial"]

    def test_default_tile_and_execute_raise(self):
        with pytest.raises(NotImplementedError):
            Operator().tile(None)
        with pytest.raises(NotImplementedError):
            Operator().execute(None)

    def test_default_column_requirements_conservative(self):
        op = AddOp()
        op.inputs = [TileableData("dataframe", (1, 1)),
                     TileableData("dataframe", (1, 1))]
        assert op.input_column_requirements(["a"]) == [None, None]


class TestContexts:
    def test_exec_context(self):
        ctx = ExecContext({"k": 41}, Config())
        assert ctx.get("k") == 41
        assert ctx.has("k") and not ctx.has("other")
        ctx.annotate("out", rows=10)
        ctx.annotate("out", bytes=20)
        assert ctx.extra_meta == {"out": {"rows": 10, "bytes": 20}}

    def test_tile_context_meta_helpers(self):
        meta = MetaService()
        ctx = TileContext(Config(), meta)
        chunk = ChunkData("tensor", (5,), (0,))
        assert ctx.chunk_meta(chunk) is None
        assert ctx.chunk_nbytes(chunk, default=7) == 7
        assert ctx.chunk_len(chunk) == 5
        meta.set_from_value(chunk.key, __import__("numpy").zeros(3))
        assert ctx.chunk_nbytes(chunk) == 24
        assert ctx.chunk_len(chunk) == 3

    def test_tile_context_without_storage(self):
        ctx = TileContext(Config(), MetaService())
        assert not ctx.has_value("any")
        with pytest.raises(RuntimeError):
            ctx.peek("any")

    def test_data_source_marker(self):
        assert issubclass(DataSourceOp, Operator)
