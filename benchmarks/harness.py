"""Shared helpers for the benchmark suite.

Every bench regenerates one table or figure of the paper: it runs the
workloads through the engine profiles, prints the measured rows next to
the paper's published values, and saves the table under
``benchmarks/results/`` (``BENCH_*.json`` trajectories go to the repo
root). Absolute numbers differ (the substrate is a
simulator, the data laptop-scale); the *shape* — who fails, who wins, by
roughly what factor — is the reproduction target.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.baselines import Workload, make_engine
from repro.workloads.tpch import ALL_QUERIES, QUERY_FEATURES, generate_tables
from repro.workloads.tpch.dbgen import dataset_bytes

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MiB = 1024 * 1024


def save_bench_json(filename: str, payload: dict) -> None:
    """Persist a ``BENCH_*.json`` at the repo root — the perf-trajectory
    location the ROADMAP cites."""
    with open(os.path.join(REPO_ROOT, filename), "w") as f:
        f.write(json.dumps(payload, indent=2) + "\n")


@dataclass
class ScalePoint:
    """One TPC-H scale point mapped from the paper to laptop scale."""

    label: str            # the paper's name, e.g. "SF100"
    sf: float             # our dbgen scale factor
    n_workers: int
    memory_ratio: float   # per-worker memory as a multiple of dataset bytes
    chunk_fraction: float = 1 / 48  # chunk_store_limit as dataset fraction


#: the three scale points of Table I. Memory ratios are calibrated to the
#: paper's cluster-to-data proportions (see DESIGN.md §5).
SCALE_POINTS = {
    # memory_ratio = per-worker memory as a multiple of the in-memory
    # dataset, matching the paper's instance-to-data proportions
    # (256 GB r6i.8xlarge workers; parquet expands ~3.5x in memory):
    # SF10 ~ 256/45 per node, SF100 ~ 256/130, SF1000 ~ 256/1300.
    "SF10": ScalePoint("SF10", sf=0.5, n_workers=2, memory_ratio=5.0),
    "SF100": ScalePoint("SF100", sf=2.0, n_workers=4, memory_ratio=1.6),
    "SF1000": ScalePoint("SF1000", sf=4.0, n_workers=4, memory_ratio=0.2),
}


def tpch_workloads() -> list[Workload]:
    return [
        Workload(name, fn, QUERY_FEATURES[name])
        for name, fn in ALL_QUERIES.items()
    ]


def run_tpch_engine(engine_name: str, point: ScalePoint, tables,
                    data_bytes: int) -> dict[str, object]:
    """All 22 queries under one engine at one scale point."""
    engine = make_engine(engine_name)
    memory_limit = max(int(data_bytes * point.memory_ratio), 192 * 1024)
    chunk_limit = max(int(data_bytes * point.chunk_fraction), 16 * 1024)
    results = {}
    for workload in tpch_workloads():
        results[workload.name] = engine.run(
            workload, tables, n_workers=point.n_workers,
            memory_limit=memory_limit, chunk_store_limit=chunk_limit,
        )
    return results


def tpch_tables_for(point: ScalePoint, seed: int = 1):
    tables = generate_tables(sf=point.sf, seed=seed)
    return tables, dataset_bytes(tables)


def format_table(title: str, headers: list[str],
                 rows: list[list], note: str = "") -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ] if rows else [len(h) for h in headers]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def report(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
