"""The end-to-end benchmark's tracer patches names in ``src/`` from
outside (``benchmarks/e2e/trace.py::TARGETS``). A rename or a call moved
out from under a patched module global would silently zero a per-layer
metric; this keeps that visible in tier-1 instead of only in the
separate ``e2e-smoke`` job. The benchmark's files are read, never
changed.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame

TRACE_PATH = (pathlib.Path(__file__).resolve().parents[1]
              / "benchmarks" / "e2e" / "trace.py")


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
        local = pf.DataFrame({"k": np.arange(40) % 4, "v": np.arange(40.0)})
        from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()
    seen = {span.name for span in recorder.spans}
    assert {"graph.identity", "fusion.groups", "graph.subtask_build",
            "tiler.graph_build", "pruning.prune"} <= seen
