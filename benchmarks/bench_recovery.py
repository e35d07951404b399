"""Fault-recovery benchmark: TPC-H Q5 under increasing chaos rates.

Runs the same query fault-free and with seeded injections at 1% and 5%
rates (compute faults, chunk drops, worker kills), asserting the result
stays byte-identical to the clean run, and reports what the recovery
machinery cost: retries, lineage recomputation, bytes restored, backoff
charged to the virtual clock, and the makespan inflation over the
fault-free baseline.

Writes ``BENCH_recovery.json`` (repo root) with one row per fault
rate so future PRs can track the overhead trajectory. Run standalone::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--smoke]
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from harness import MiB, format_table, save_bench_json  # noqa: E402

from repro.config import default_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.workloads.tpch import generate_tables  # noqa: E402
from repro.workloads.tpch.queries import ALL_QUERIES, materialize  # noqa: E402


FAULT_SEED = 20240806

#: (label, compute fault rate, chunk loss rate, worker kill rate)
RATE_POINTS = [
    ("0%", 0.0, 0.0, 0.0),
    ("1%", 0.01, 0.01, 0.002),
    ("5%", 0.05, 0.03, 0.01),
]


def run_q5(sf: float, compute_rate: float, loss_rate: float,
           kill_rate: float):
    cfg = default_config()
    cfg.cluster.n_workers = 4
    cfg.cluster.memory_limit = 256 * MiB
    cfg.chunk_store_limit = 64 * 1024
    cfg.faults.seed = FAULT_SEED
    cfg.faults.compute_fault_rate = compute_rate
    cfg.faults.chunk_loss_rate = loss_rate
    cfg.faults.worker_kill_rate = kill_rate
    session = Session(cfg)
    try:
        tables = generate_tables(sf=sf, seed=7)
        handles = {
            name: from_frame(frame, session)
            for name, frame in tables.items()
        }
        value = materialize(ALL_QUERIES["q5"](handles))
        report = session.executor.report
        return value, {
            "makespan": session.cluster.clock.makespan,
            "injected_events": len(session.faults.events),
            "retries": report.retries,
            "recomputed_subtasks": report.recomputed_subtasks,
            "recovery_bytes": report.recovery_bytes,
            "backoff_time": report.backoff_time,
        }
    finally:
        session.close()


def run_recovery(sf: float) -> list[dict]:
    rows: list[dict] = []
    baseline = None
    baseline_makespan = 0.0
    for label, compute_rate, loss_rate, kill_rate in RATE_POINTS:
        value, stats = run_q5(sf, compute_rate, loss_rate, kill_rate)
        if baseline is None:
            baseline = value
            baseline_makespan = stats["makespan"]
        elif not baseline.equals(value):
            raise AssertionError(
                f"q5 result diverged from fault-free run at {label} faults"
            )
        overhead = (
            stats["makespan"] / baseline_makespan if baseline_makespan else 0.0
        )
        rows.append({
            "fault_rate": label,
            "makespan": round(stats["makespan"], 4),
            "makespan_overhead": round(overhead, 3),
            "injected_events": stats["injected_events"],
            "retries": stats["retries"],
            "recomputed_subtasks": stats["recomputed_subtasks"],
            "recovery_bytes": stats["recovery_bytes"],
            "backoff_time": round(stats["backoff_time"], 4),
        })
    return rows


def save_and_render(rows: list[dict], sf: float) -> str:
    payload = {
        "benchmark": "fault_recovery_tpch_q5",
        "scale_factor": sf,
        "fault_seed": FAULT_SEED,
        "rows": rows,
    }
    save_bench_json("BENCH_recovery.json", payload)

    table_rows = [
        [row["fault_rate"],
         f"{row['makespan']:.3f}s",
         f"{row['makespan_overhead']:.2f}x",
         str(row["injected_events"]),
         str(row["retries"]),
         str(row["recomputed_subtasks"]),
         f"{row['backoff_time']:.3f}s"]
        for row in rows
    ]
    return format_table(
        "Fault recovery: TPC-H Q5 under seeded chaos",
        ["faults", "makespan", "overhead", "events", "retries",
         "recomputed", "backoff"],
        table_rows,
        note=(f"sf={sf}, seed={FAULT_SEED}; every faulted run's result is "
              "verified identical to the fault-free run."),
    )


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    sf = 0.25 if smoke else 1.0
    rows = run_recovery(sf)
    print(save_and_render(rows, sf))
    faulted = [row for row in rows if row["fault_rate"] != "0%"]
    if not any(row["injected_events"] for row in faulted):
        print("WARNING: no faults fired at non-zero rates; the chaos "
              "path was not exercised")
        return 1
    return 0


def test_recovery_overhead(benchmark=None):
    """Pytest entry: results survive chaos and recovery actually ran."""
    rows = run_recovery(0.25)
    save_and_render(rows, 0.25)
    five = next(row for row in rows if row["fault_rate"] == "5%")
    assert five["injected_events"] > 0
    assert five["retries"] + five["recomputed_subtasks"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
