"""Unit tests for placement (breadth-first + locality) and the meta service."""

import numpy as np
import pytest

from repro.cluster import ClusterState
from repro.config import Config
from repro.core import MetaService, meta_from_value
from repro.core.operator import Operator
from repro.frame import DataFrame, Series
from repro.graph import DAG, ChunkData, Subtask
from repro.services.scheduling import SchedulingService


class PassOp(Operator):
    def execute(self, ctx):
        return ctx.get(self.inputs[0].key)


def make_cluster(n_workers=2, bands_per_worker=2):
    cfg = Config()
    cfg.cluster.n_workers = n_workers
    cfg.cluster.bands_per_worker = bands_per_worker
    return ClusterState(cfg), cfg


def make_scheduler(cluster, cfg) -> SchedulingService:
    """The scheduling service alone: placement needs no meta or storage."""
    return SchedulingService.create(cluster, cfg, MetaService(), storage=None)


def chunk(idx, inputs=()):
    if inputs:
        op = PassOp()
        return op.new_chunk(list(inputs), "tensor", (1,), (idx,))
    return ChunkData("tensor", (1,), (idx,))


class TestBreadthFirst:
    def test_initial_subtasks_fill_bands_in_order(self):
        cluster, cfg = make_cluster()
        scheduler = make_scheduler(cluster, cfg)
        graph = DAG()
        subtasks = [Subtask([chunk(i)]) for i in range(4)]
        for s in subtasks:
            graph.add_node(s)
        scheduler.assign(graph)
        bands = [s.band for s in subtasks]
        assert bands == [
            "worker-0/band-0", "worker-0/band-1",
            "worker-1/band-0", "worker-1/band-1",
        ]

    def test_wraps_around_when_more_sources_than_bands(self):
        cluster, cfg = make_cluster(n_workers=1, bands_per_worker=2)
        scheduler = make_scheduler(cluster, cfg)
        graph = DAG()
        subtasks = [Subtask([chunk(i)]) for i in range(5)]
        for s in subtasks:
            graph.add_node(s)
        scheduler.assign(graph)
        assert subtasks[0].band == subtasks[2].band == subtasks[4].band


class TestLocality:
    def _graph_with_dependency(self):
        src_chunk = chunk(0)
        dep_chunk = chunk(1, [src_chunk])
        src = Subtask([src_chunk])
        src.output_keys = [src_chunk.key]
        dep = Subtask([dep_chunk])
        dep.output_keys = [dep_chunk.key]
        graph = DAG()
        graph.add_edge(src, dep)
        return graph, src, dep

    def test_successor_follows_predecessor(self):
        cluster, cfg = make_cluster()
        scheduler = make_scheduler(cluster, cfg)
        graph, src, dep = self._graph_with_dependency()
        scheduler.assign(graph)
        assert dep.band == src.band

    def test_locality_disabled_spreads(self):
        cluster, cfg = make_cluster()
        cfg.locality_scheduling = False
        scheduler = make_scheduler(cluster, cfg)
        graph, src, dep = self._graph_with_dependency()
        scheduler.assign(graph)
        # least-loaded placement: the successor avoids the already-loaded band
        assert dep.band != src.band

    def test_majority_bytes_wins(self):
        cluster, cfg = make_cluster()
        scheduler = make_scheduler(cluster, cfg)
        big = chunk(0)
        small = chunk(1)
        join_chunk = chunk(2, [big, small])
        s_big, s_small = Subtask([big]), Subtask([small])
        s_big.output_keys = [big.key]
        s_small.output_keys = [small.key]
        s_join = Subtask([join_chunk])
        graph = DAG()
        graph.add_edge(s_big, s_join)
        graph.add_edge(s_small, s_join)
        scheduler.assign(graph, input_nbytes={big.key: 1000, small.key: 10})
        assert s_join.band == s_big.band

    def test_chunk_band_recorded(self):
        cluster, cfg = make_cluster()
        scheduler = make_scheduler(cluster, cfg)
        c = chunk(0)
        s = Subtask([c])
        s.output_keys = [c.key]
        graph = DAG()
        graph.add_node(s)
        scheduler.assign(graph)
        assert scheduler.chunk_band[c.key] == s.band


class TestMetaService:
    def test_meta_from_dataframe(self):
        df = DataFrame({"a": [1, 2], "b": ["x", "y"]})
        meta = meta_from_value(df)
        assert meta.kind == "dataframe"
        assert meta.shape == (2, 2)
        assert meta.columns == ["a", "b"]
        assert meta.nbytes > 0

    def test_meta_from_series_and_array(self):
        assert meta_from_value(Series([1.0])).kind == "series"
        assert meta_from_value(np.zeros((2, 3))).shape == (2, 3)
        assert meta_from_value(42).kind == "scalar"

    def test_set_get_require(self):
        service = MetaService()
        service.set_from_value("k", np.zeros(4))
        assert service.get("k").nbytes == 32
        assert service.require("k") is service.get("k")
        with pytest.raises(KeyError):
            service.require("missing")
        assert service.get("missing") is None

    def test_extras(self):
        service = MetaService()
        service.set_from_value("k", 1, extra={"input_rows": 10})
        service.update_extra("k", ratio=0.5)
        meta = service.require("k")
        assert meta.extra == {"input_rows": 10, "ratio": 0.5}

    def test_delete(self):
        service = MetaService()
        service.set_from_value("k", 1)
        service.delete("k")
        assert not service.has("k")
        assert len(service) == 0
