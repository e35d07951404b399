"""Memory-pressure benchmark: shrinking worker budgets (Table II).

Runs TPC-H Q5 and a shuffle-heavy groupby at 100%, 50% and 25% of a
"comfortable" per-worker budget (1.25x the workload's unconstrained
per-worker peak), once with the full memory-pressure machinery
(admission-controlled dispatch, one retry on another worker and
memory-aware re-tiling) and once with it disabled (the no-backpressure seed engine). The full engine must
complete every point with results identical to the unconstrained run;
the seed engine is expected to OOM as the budget shrinks — the paper's
"OOM or Killed" column in miniature.

Writes ``BENCH_memory.json`` (repo root). Run standalone::

    PYTHONPATH=src python benchmarks/bench_memory_pressure.py [--smoke]
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, save_bench_json  # noqa: E402

from repro import frame as pf  # noqa: E402
from repro.config import default_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.errors import WorkerOutOfMemory  # noqa: E402
from repro.workloads.tpch import generate_tables  # noqa: E402
from repro.workloads.tpch.queries import ALL_QUERIES, materialize  # noqa: E402


FAULT_SEED = 20240806

#: budget points as fractions of the comfortable per-worker budget.
FRACTIONS = [1.0, 0.5, 0.25]


def q5_workload(sf: float):
    def run(session: Session):
        tables = generate_tables(sf=sf, seed=7)
        handles = {
            name: from_frame(frame, session)
            for name, frame in tables.items()
        }
        return materialize(ALL_QUERIES["q5"](handles))
    return run, {"chunk_store_limit": 64 * 1024}


def groupby_workload(rows: int):
    def run(session: Session):
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 500, rows),
            "v": rng.normal(size=rows),
        })
        return from_frame(local, session).groupby("k").agg(
            {"v": "sum"}
        ).fetch()
    return run, {"chunk_store_limit": 4_000, "tree_reduce_threshold": 1}


def make_session(overrides: dict, memory_limit: int | None,
                 full_engine: bool) -> Session:
    cfg = default_config()
    cfg.cluster.n_workers = 4
    cfg.faults.seed = FAULT_SEED
    for name, value in overrides.items():
        setattr(cfg, name, value)
    if memory_limit is not None:
        cfg.cluster.memory_limit = memory_limit
    cfg.admission_control = full_engine
    return Session(cfg)


def run_point(workload, overrides: dict, memory_limit: int | None,
              full_engine: bool):
    session = make_session(overrides, memory_limit, full_engine)
    try:
        try:
            value = workload(session)
        except WorkerOutOfMemory:
            return None, {"status": "oom"}
        report = session.executor.report
        peak = max(session.cluster.peak_memory().values(), default=0)
        return value, {
            "status": "ok",
            "makespan": round(session.cluster.clock.makespan, 4),
            "peak_memory": peak,
            "admission_wait_time": round(report.admission_wait_time, 4),
            "oom_retries": report.oom_retries,
            "pressure_splits": report.pressure_splits,
            "spilled_bytes": session.storage.spilled_bytes(),
        }
    finally:
        session.close()


def same_result(actual, expected) -> bool:
    if hasattr(expected, "equals"):
        return bool(expected.equals(actual))
    return (np.asarray(actual).tobytes() == np.asarray(expected).tobytes())


def run_workload(name: str, workload, overrides: dict) -> list[dict]:
    expected, stats = run_point(workload, overrides, None, True)
    if stats["status"] != "ok":
        raise AssertionError(f"{name}: unconstrained run failed")
    # comfortable = 1.25x the unconstrained per-worker peak, 4 KiB aligned
    comfortable = ((stats["peak_memory"] * 5 // 4) // 4096 + 1) * 4096
    rows: list[dict] = []
    for fraction in FRACTIONS:
        budget = int(comfortable * fraction)
        for engine, full in (("full", True), ("no-backpressure", False)):
            value, point = run_point(workload, overrides, budget, full)
            row = {
                "workload": name,
                "engine": engine,
                "budget_fraction": fraction,
                "memory_limit": budget,
                **point,
            }
            if point["status"] == "ok":
                if not same_result(value, expected):
                    raise AssertionError(
                        f"{name}@{fraction:.0%} ({engine}): result "
                        "diverged from the unconstrained run"
                    )
                row["result_identical"] = True
            rows.append(row)
    return rows


def run_bench(smoke: bool) -> list[dict]:
    sf = 0.25 if smoke else 1.0
    rows = []
    rows += run_workload("tpch_q5", *q5_workload(sf))
    rows += run_workload("shuffle_groupby",
                         *groupby_workload(5_000 if smoke else 20_000))
    return rows


def save_and_render(rows: list[dict], smoke: bool) -> str:
    payload = {
        "benchmark": "memory_pressure_shrinking_budget",
        "smoke": smoke,
        "fault_seed": FAULT_SEED,
        "fractions": FRACTIONS,
        "rows": rows,
    }
    save_bench_json("BENCH_memory.json", payload)

    table_rows = []
    for row in rows:
        if row["status"] == "ok":
            table_rows.append([
                row["workload"], f"{row['budget_fraction']:.0%}",
                row["engine"], "ok",
                f"{row['makespan']:.3f}s",
                f"{row['admission_wait_time']:.3f}s",
                str(row["oom_retries"]),
                str(row["pressure_splits"]),
            ])
        else:
            table_rows.append([
                row["workload"], f"{row['budget_fraction']:.0%}",
                row["engine"], "OOM", "-", "-", "-", "-",
            ])
    return format_table(
        "Memory pressure: shrinking worker budgets",
        ["workload", "budget", "engine", "status", "makespan",
         "adm. wait", "oom retries", "re-tiles"],
        table_rows,
        note=("budget = fraction of 1.25x the unconstrained per-worker "
              "peak; every completing run's result is verified identical "
              "to the unconstrained run (paper Table II, 'OOM or "
              "Killed')."),
    )


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    rows = run_bench(smoke)
    print(save_and_render(rows, smoke))
    full = [r for r in rows if r["engine"] == "full"]
    seed = [r for r in rows if r["engine"] == "no-backpressure"]
    if any(r["status"] != "ok" for r in full):
        print("WARNING: the full engine OOMed inside the budget grid")
        return 1
    if all(r["status"] == "ok" for r in seed):
        print("WARNING: the no-backpressure engine survived every "
              "budget; the grid is not tight enough to show the gap")
        return 1
    return 0


def test_memory_pressure_bench(benchmark=None):
    """Pytest entry: the full engine completes every budget point the
    seed engine cannot, with identical results."""
    rows = run_bench(smoke=True)
    save_and_render(rows, smoke=True)
    full = [r for r in rows if r["engine"] == "full"]
    seed = [r for r in rows if r["engine"] == "no-backpressure"]
    assert all(r["status"] == "ok" for r in full)
    assert all(r.get("result_identical") for r in full)
    assert any(r["status"] == "oom" for r in seed)


if __name__ == "__main__":
    raise SystemExit(main())
