"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload, gated or not, at 5 % size with 2 reps through the
real command, traced, and checks the emitted JSON against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402  (found through HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOAD_NAMES = [*(w["name"] for w in SPEC["workloads"]),
                  *run.UNGATED_WORKLOADS]


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--reps", "2", "--scale", "0.05",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_spec_matches_the_workload_registry():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric(workload):
    check_result(run_benchmark(workload, trace=1), SPEC["per_layer"])
    path = os.path.join(HERE, "out", f"{workload}.trace.json")
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert any(e["name"] == "executor.execute" for e in events)


def test_untraced_run_emits_every_end_to_end_metric():
    result = run_benchmark("plan_sweep", trace=0)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_instrument_restores_every_patched_attribute():
    import trace

    def owners():
        for module, cls, attr, _ in trace.TARGETS:
            yield trace.target_owner(module, cls), attr

    before = [owner.__dict__[attr] for owner, attr in owners()]
    recorder = trace.Recorder()
    with trace.instrument(recorder):
        during = [owner.__dict__[attr] for owner, attr in owners()]
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
    after = [owner.__dict__[attr] for owner, attr in owners()]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    totals = trace.layer_totals(recorder.spans, recorder.iteration)
    assert totals.self_s["outer"] == pytest.approx(
        outer.seconds - inner.seconds)
