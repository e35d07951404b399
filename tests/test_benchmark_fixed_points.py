"""The end-to-end benchmark reads names in ``src/`` from outside: its
tracer patches them (``benchmarks/e2e/trace.py::TARGETS``) and its
counters read service internals (``workloads.py::session_counters``). A
rename or a call moved out from under a patched module global would
silently zero a per-layer metric, and a reshaped read path would break
every iteration; this keeps both visible in tier-1 instead of only in
the separate ``e2e-smoke`` job. The benchmark's files are read, never
changed.
"""

from __future__ import annotations

import importlib.util
import numbers
import pathlib
import sys

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame

E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: the ``=``-marked counters of the benchmark's per-layer table.
SESSION_COUNTERS = {
    "graph.n_subtasks", "graph.n_chunk_nodes", "tiler.partial_executes",
    "storage.transferred_bytes", "storage.spilled_bytes", "shuffle.bytes",
    "cache.hit_chunks", "cache.reused_bytes", "cluster.virtual_makespan_s",
    "cluster.virtual_peak_memory", "actors.messages",
    "actors.runner_restarts",
}


def _exec(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, E2E / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trace():
    try:
        yield _exec("e2e_trace", "trace.py")
    finally:
        sys.modules.pop("e2e_trace", None)


@pytest.fixture(scope="module")
def workloads():
    # ``workloads.py`` does ``import datagen``: served from sys.modules.
    try:
        _exec("datagen", "datagen.py")
        yield _exec("e2e_workloads", "workloads.py")
    finally:
        sys.modules.pop("e2e_workloads", None)
        sys.modules.pop("datagen", None)


def _groupby(session: Session) -> None:
    local = pf.DataFrame({"k": np.arange(40) % 4, "v": np.arange(40.0)})
    from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def test_every_target_resolves_on_its_owner(trace):
    missing = [
        (module, cls, attr)
        for module, cls, attr, _span in trace.TARGETS
        if attr not in trace.target_owner(module, cls).__dict__
    ]
    assert not missing


def test_module_global_call_sites_are_still_intercepted(trace):
    """``fusion_groups`` & co. are patched as globals of the module that
    calls them: the call sites must still go through those globals."""
    recorder = trace.Recorder()
    cfg = Config()
    cfg.chunk_store_limit = 400
    cfg.result_cache = True
    with trace.instrument(recorder), Session(cfg) as session:
        _groupby(session)
    seen = {span.name for span in recorder.spans}
    assert {"graph.identity", "fusion.groups", "graph.subtask_build",
            "tiler.graph_build", "pruning.prune"} <= seen


def test_session_counters_read_path_resolves(workloads):
    """Every counter the benchmark reads off a fetched session is there
    and is a number (``actors.runner_restarts`` goes through
    ``cluster.supervision.supervisor``)."""
    cfg = Config()
    cfg.chunk_store_limit = 400
    with Session(cfg) as session:
        _groupby(session)
        counters = workloads.session_counters(session)
    assert SESSION_COUNTERS <= set(counters)
    not_numeric = {
        name: value for name, value in counters.items()
        if isinstance(value, bool) or not isinstance(value, numbers.Real)
    }
    assert not not_numeric
