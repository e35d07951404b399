"""Shared harness for the engine golden-report tests.

The service-plane refactor (supervisor/worker actors) must be a pure
re-plumbing of boundaries: every ``SimReport``/``RunReport`` number has
to stay bit-identical to the pre-refactor engine, serially and in
parallel, on the tier-1 workloads — fault-free, under seeded chaos, and
under memory pressure.  The goldens committed in
``tests/core/goldens/engine_reports.json`` were generated by
``tools/gen_golden_reports.py`` *against the pre-refactor engine*;
``test_service_plane.py`` replays the same scenarios and compares
field-for-field.

Floats survive the JSON round-trip exactly (shortest-repr encoding), so
equality below really is bit-equality.

Each scenario also pins its ``plan``: every tiling *decision* the run
took (:func:`record_plan`).  A change to fusion, retention or staging
may move the simulated numbers — and then regenerates this file — but
must leave the plan section as it was unless it set out to change what
dynamic tiling decides.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter

import numpy as np

from repro import frame as pf
from repro.cluster import ClusterState
from repro.config import Config
from repro.core import Session
from repro.core.tiler import TilingEngine
from repro.dataframe import from_frame
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize

GOLDEN_PATH = "tests/core/goldens/engine_reports.json"

#: chaos rates mirroring the acceptance dial of the fault-recovery suite.
CHAOS = {
    "seed": 20240806,
    "compute_fault_rate": 0.05,
    "chunk_loss_rate": 0.03,
    "worker_kill_rate": 0.01,
    "memory_squeeze_rate": 0.05,
}


def make_config(parallel: bool = False, chunk_limit: int = 8_000,
                faults: dict | None = None,
                memory_limit: int | None = None, **overrides) -> Config:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = "process" if parallel else "serial"
    if memory_limit is not None:
        cfg.cluster.memory_limit = memory_limit
    for name, value in (faults or {}).items():
        setattr(cfg.faults, name, value)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def make_session(**kwargs) -> Session:
    """A session that builds its own cluster (:func:`make_config` args)."""
    return Session(make_config(**kwargs))


# ---------------------------------------------------------------------------
# tier-1 workloads (same shapes/seeds as the chaos suite)
# ---------------------------------------------------------------------------

def groupby_shuffle(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def merge_frames(session: Session):
    rng = np.random.default_rng(5)
    left = pf.DataFrame({
        "k": rng.integers(0, 50, 1_500),
        "a": rng.normal(size=1_500),
    })
    right = pf.DataFrame({"k": np.arange(50), "b": rng.normal(size=50)})
    return from_frame(left, session).merge(
        from_frame(right, session), on="k"
    ).fetch()


def sort_frame(session: Session):
    rng = np.random.default_rng(9)
    local = pf.DataFrame({
        "x": rng.normal(size=3_000),
        "y": np.arange(3_000, dtype=float),
    })
    return from_frame(local, session).sort_values("x").fetch()


def tpch_q5(session: Session):
    tables = generate_tables(sf=1.0, seed=7)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES["q5"](handles))


#: name -> (workload, session overrides).
WORKLOADS = {
    "groupby_shuffle": (groupby_shuffle,
                        {"chunk_limit": 4_000, "tree_reduce_threshold": 1}),
    "merge": (merge_frames, {"chunk_limit": 4_000}),
    "sort": (sort_frame, {"chunk_limit": 4_000}),
    "tpch_q5": (tpch_q5, {"chunk_limit": 64 * 1024}),
}


@functools.cache
def golden_fields() -> dict[str, list[str]]:
    """The report fields the committed goldens pin, per section.

    Every scenario holds the same ones; counters added after the file
    was generated (the result cache's) are not in it, so dumping
    by these names keeps a regenerated file byte-identical.
    """
    with open(GOLDEN_PATH) as f:
        golden = next(iter(json.load(f).values()))
    return {section: list(golden[section]) for section in ("sim", "run")}


def _dump(report, names: list[str]) -> dict:
    out = {}
    for name in names:
        value = getattr(report, name)
        if isinstance(value, dict):
            value = dict(sorted(value.items()))
        out[name] = value
    return out


def _decision(op) -> dict:
    """What tiling ``op`` decided, read off the chunks it produced.

    The chunk operators between the op's input tileables and its output
    chunks, counted per class and stage (broadcast vs shuffle join, tree
    vs shuffle reduce are different censuses), the output chunk counts,
    and every partitioner's fan-out and boundaries.
    """
    inputs = {id(chunk) for dep in op.inputs for chunk in dep.chunks}
    stack = [chunk for out in op.outputs for chunk in out.chunks]
    ops: dict[int, object] = {}
    while stack:
        chunk = stack.pop()
        if id(chunk) in inputs or chunk.op is None or id(chunk.op) in ops:
            continue
        ops[id(chunk.op)] = chunk.op
        stack.extend(chunk.op.inputs)
    census = Counter(
        type(o).__name__ + (f":{o.stage}" if o.stage else "")
        for o in ops.values())
    partitioners = {
        (type(o).__name__, len(o.outputs), repr(o.boundaries))
        for o in ops.values() if hasattr(o, "boundaries")}
    return {
        "op": type(op).__name__,
        "chunks": [len(out.chunks) for out in op.outputs],
        "chunk_ops": dict(sorted(census.items())),
        "partitioners": sorted(partitioners),
    }


@contextlib.contextmanager
def record_plan():
    """Collect one :func:`_decision` per tileable operator, in tiling
    order, for as long as the context is open."""
    plan: list[dict] = []
    attach = TilingEngine._attach_outputs

    def recording(self, op, tile_result):
        attach(self, op, tile_result)
        plan.append(_decision(op))

    TilingEngine._attach_outputs = recording
    try:
        yield plan
    finally:
        TilingEngine._attach_outputs = attach


def collect_report(session: Session, plan=()) -> dict:
    """The simulated numbers of a finished run (and the ``plan`` a
    :func:`record_plan` around it collected), JSON-serializable."""
    fields = golden_fields()
    return {
        "sim": _dump(session.executor.report, fields["sim"]),
        "run": _dump(session.last_report, fields["run"]),
        "fault_events": [
            (e.point, e.stage, e.priority) for e in session.faults.events
        ],
        "plan": list(plan),
    }


def scenarios() -> list[tuple[str, dict]]:
    """(scenario name, session kwargs + workload name) pairs."""
    out: list[tuple[str, dict]] = []
    for name in sorted(WORKLOADS):
        _, overrides = WORKLOADS[name]
        for parallel in (False, True):
            mode = "parallel" if parallel else "serial"
            out.append((
                f"{name}/{mode}",
                {"workload": name, "parallel": parallel, **overrides},
            ))
    # chaos: seeded faults over the two shuffle-heavy workloads.
    for name in ("groupby_shuffle", "tpch_q5"):
        _, overrides = WORKLOADS[name]
        for parallel in (False, True):
            mode = "parallel" if parallel else "serial"
            out.append((
                f"{name}/chaos/{mode}",
                {"workload": name, "parallel": parallel,
                 "faults": dict(CHAOS), **overrides},
            ))
    # memory squeeze: a budget of SQUEEZE x the plain run's largest
    # per-worker peak (``run_scenario`` resolves it).
    for parallel in (False, True):
        mode = "parallel" if parallel else "serial"
        _, overrides = WORKLOADS["groupby_shuffle"]
        out.append((
            f"groupby_shuffle/squeezed/{mode}",
            {"workload": "groupby_shuffle", "parallel": parallel,
             "squeeze": SQUEEZE, **overrides},
        ))
    return out


#: the squeezed scenarios' budget as a fraction of the plain run's
#: largest per-worker peak. From 0.26 up the squeeze only spills; 0.22 to
#: 0.25 also fail a subtask on two workers and re-tile once; 0.21 is
#: fatal.
SQUEEZE = 0.23


@functools.cache
def plain_peak(workload: str) -> int:
    """The largest per-worker peak of ``workload``'s plain serial run."""
    _, overrides = WORKLOADS[workload]
    report = run_scenario({"workload": workload, **overrides})
    return max(report["sim"]["peak_memory"].values())


def check_fires(name: str, report: dict) -> None:
    """A scenario fires what it names: a squeeze spills and re-tiles, and
    chaos retries or recomputes."""
    sim, run = report["sim"], report["run"]
    if "/squeezed/" in name:
        assert run["spilled_bytes"] > 0 and sim["pressure_splits"] >= 1, (
            f"{name} squeezed nothing")
    if "/chaos/" in name:
        assert sim["retries"] + sim["recomputed_subtasks"] > 0, (
            f"{name} recovered from nothing")


def scenario_config(spec: dict) -> tuple[str, Config]:
    """A scenario's workload name and session config; a ``squeeze``
    becomes the budget it names."""
    spec = dict(spec)
    name = spec.pop("workload")
    squeeze = spec.pop("squeeze", None)
    if squeeze is not None:
        spec["memory_limit"] = int(squeeze * plain_peak(name))
    return name, make_config(**spec)


def run_scenario(spec: dict, lone_tenant: bool = False) -> dict:
    """Run one scenario in a session that builds its own cluster, or —
    ``lone_tenant`` — as the only tenant of a cluster built beside it."""
    name, cfg = scenario_config(spec)
    workload, _ = WORKLOADS[name]
    cluster = ClusterState(cfg) if lone_tenant else None
    try:
        with Session(cfg, cluster=cluster) as session, \
                record_plan() as plan:
            workload(session)
            return collect_report(session, plan)
    finally:
        if cluster is not None:
            cluster.shutdown()
