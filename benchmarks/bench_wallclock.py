"""Wall-clock benchmark: serial vs thread-pool vs process-pool execution.

Unlike the figure/table benches (which report *virtual* time), this one
measures real elapsed seconds, because the band runners are wall-clock
optimizations by design: they must leave every simulated number
untouched (asserted here) while finishing sooner on multi-core hosts.

Workloads: TPC-H Q1/Q5, the Fig-8a pipelines (TPCx-AI UC10, census) and
a 64-chunk BLAS-heavy tensor workload.  Thread mode only overlaps
kernels that release the GIL (BLAS); process mode is the one that helps
the pure-Python/pandas kernels, which is where the thread runner
plateaued.

Writes ``BENCH_wallclock.json`` (repo root)
with one row per (workload, mode): ``{workload, mode, seconds,
speedup}`` so future PRs can track the trajectory.  ``cpu_count`` and
``multicore`` are recorded so 1-core CI numbers are never mistaken for
a speedup measurement.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import MiB, format_table, save_bench_json  # noqa: E402

from repro.config import default_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.tensor import rand  # noqa: E402
from repro.workloads.census import census_pipeline, generate_census  # noqa: E402
from repro.workloads.tpch import generate_tables  # noqa: E402
from repro.workloads.tpch.queries import ALL_QUERIES, materialize  # noqa: E402
from repro.workloads.tpcxai import generate_uc10, uc10_pipeline  # noqa: E402

import numpy as np  # noqa: E402

#: wall-clock speedup targets on a multi-core runner (acceptance bars).
TARGET_SPEEDUP = 1.5          # thread mode, GIL-releasing kernels
PROCESS_TARGET_SPEEDUP = 2.5  # process mode, GIL-bound kernels
MULTICORE = (os.cpu_count() or 1) >= 2

MODES = ("serial", "thread", "process")


def _configure(cfg, mode: str) -> None:
    cfg.parallel_execution = mode != "serial"
    cfg.execution_mode = "process" if mode == "process" else "thread"


def _warm(session, mode: str) -> None:
    """Spawn pool workers before the timer starts: measured speedup
    should reflect steady state, not interpreter spawn cost."""
    if mode == "process":
        session.cluster.procpool_client().warm()


def _run_frames(fn, tables, *, mode: str, n_workers: int,
                chunk_store_limit: int, memory_limit: int):
    cfg = default_config()
    cfg.cluster.n_workers = n_workers
    cfg.cluster.memory_limit = memory_limit
    cfg.chunk_store_limit = chunk_store_limit
    _configure(cfg, mode)
    session = Session(cfg)
    try:
        handles = {
            name: from_frame(frame, session) for name, frame in tables.items()
        }
        _warm(session, mode)
        start = time.perf_counter()
        value = materialize(fn(handles))
        seconds = time.perf_counter() - start
        return value, seconds, session.cluster.clock.makespan
    finally:
        session.close()


def _run_wide_tensor(*, mode: str):
    """64 independent BLAS-heavy chunks on an 8-band cluster."""
    cfg = default_config()
    cfg.cluster.n_workers = 4  # x2 bands -> 8 logical slots
    cfg.chunk_store_limit = 256 * 1024  # 16 MiB tensor -> 64 chunks
    _configure(cfg, mode)

    def crunch(block: np.ndarray) -> np.ndarray:
        out = block
        for _ in range(60):  # matmul chain: releases the GIL in BLAS
            out = block @ (block.T @ out) / np.float64(block.shape[0])
        return out

    session = Session(cfg)
    try:
        t = rand(65536, 32, seed=13, session=session)
        heavy = t.map_blocks(crunch, out_cols=32).sum()
        _warm(session, mode)
        start = time.perf_counter()
        value = np.asarray(heavy.fetch())
        seconds = time.perf_counter() - start
        return value, seconds, session.cluster.clock.makespan
    finally:
        session.close()


def build_workloads():
    tpch = generate_tables(sf=0.5, seed=1)
    tpch_bytes = sum(frame.nbytes for frame in tpch.values())
    tpch_limits = dict(
        n_workers=4,
        chunk_store_limit=max(tpch_bytes // 48, 16 * 1024),
        memory_limit=256 * MiB,
    )
    uc10 = generate_uc10(n_customers=300, n_transactions=60_000, skew=0.8)
    census = generate_census(n_rows=40_000)
    return [
        ("tpch_q1", lambda mode: _run_frames(
            ALL_QUERIES["q1"], tpch, mode=mode, **tpch_limits)),
        ("tpch_q5", lambda mode: _run_frames(
            ALL_QUERIES["q5"], tpch, mode=mode, **tpch_limits)),
        ("fig8a_uc10", lambda mode: _run_frames(
            uc10_pipeline, uc10, mode=mode, n_workers=2,
            chunk_store_limit=192 * 1024, memory_limit=96 * MiB)),
        ("fig8a_census", lambda mode: _run_frames(
            census_pipeline, census, mode=mode, n_workers=1,
            chunk_store_limit=256 * 1024, memory_limit=256 * MiB)),
        ("wide_tensor", lambda mode: _run_wide_tensor(mode=mode)),
    ]


def _values_match(a, b) -> bool:
    if hasattr(a, "equals"):
        return bool(a.equals(b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run_wallclock() -> list[dict]:
    rows: list[dict] = []
    for name, runner in build_workloads():
        results = {mode: runner(mode) for mode in MODES}
        base_value, base_seconds, base_makespan = results["serial"]
        for mode in MODES[1:]:
            value, _, makespan = results[mode]
            if not _values_match(base_value, value):
                raise AssertionError(
                    f"{name}: {mode} result diverged from serial")
            if base_makespan != makespan:
                raise AssertionError(
                    f"{name}: {mode} virtual makespan diverged "
                    f"({base_makespan} vs {makespan})"
                )
        for mode in MODES:
            seconds = results[mode][1]
            speedup = base_seconds / seconds if seconds else 0.0
            rows.append({"workload": name, "mode": mode,
                         "seconds": round(seconds, 4),
                         "speedup": round(speedup, 3)})
    return rows


def save_and_render(rows: list[dict]) -> str:
    payload = {
        "benchmark": "wallclock_serial_vs_thread_vs_process",
        "cpu_count": os.cpu_count(),
        "multicore": MULTICORE,
        "target_speedup": TARGET_SPEEDUP,
        "process_target_speedup": PROCESS_TARGET_SPEEDUP,
        "rows": rows,
    }
    save_bench_json("BENCH_wallclock.json", payload)

    by_workload: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], {})[row["mode"]] = row
    table_rows = [
        [name,
         f"{modes['serial']['seconds']:.3f}s",
         f"{modes['thread']['seconds']:.3f}s",
         f"{modes['thread']['speedup']:.2f}x",
         f"{modes['process']['seconds']:.3f}s",
         f"{modes['process']['speedup']:.2f}x"]
        for name, modes in by_workload.items()
    ]
    return format_table(
        "Wall-clock: serial vs thread vs process subtask execution",
        ["workload", "serial", "thread", "t-speedup", "process",
         "p-speedup"], table_rows,
        note=(f"cpus={os.cpu_count()} (multicore={MULTICORE}); virtual "
              "SimReport numbers verified identical across all modes. "
              "Speedups measured on a 1-core host are not speedup "
              "measurements."),
    )


def main() -> int:
    rows = run_wallclock()
    print(save_and_render(rows))
    best_thread = max(
        (row["speedup"] for row in rows if row["mode"] == "thread"),
        default=0.0,
    )
    best_process = max(
        (row["speedup"] for row in rows if row["mode"] == "process"),
        default=0.0,
    )
    if MULTICORE and best_thread < TARGET_SPEEDUP:
        print(f"WARNING: best thread speedup {best_thread:.2f}x below the "
              f"{TARGET_SPEEDUP}x target on a {os.cpu_count()}-cpu host")
        return 1
    if MULTICORE and best_process < PROCESS_TARGET_SPEEDUP:
        print(f"WARNING: best process speedup {best_process:.2f}x below "
              f"the {PROCESS_TARGET_SPEEDUP}x target on a "
              f"{os.cpu_count()}-cpu host")
        return 1
    return 0


def test_wallclock_speedup(benchmark=None):
    """Pytest entry: determinism always; the speedup bar only multi-core."""
    rows = run_wallclock()
    save_and_render(rows)
    wide = next(
        row for row in rows
        if row["workload"] == "wide_tensor" and row["mode"] == "thread"
    )
    if (os.cpu_count() or 1) >= 4:
        assert wide["speedup"] >= TARGET_SPEEDUP, (
            f"wide_tensor parallel speedup {wide['speedup']}x < "
            f"{TARGET_SPEEDUP}x on a {os.cpu_count()}-core host"
        )


if __name__ == "__main__":
    raise SystemExit(main())
