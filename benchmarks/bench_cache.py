"""Result-cache benchmark: warm-vs-cold TPC-H plus overlapping queries.

Measures what the lineage-keyed cache (``services/cache.py``) buys on
the workloads that motivated it:

- **warm vs cold** — TPC-H q1 and q5 run twice in one session with
  ``config.result_cache`` on; the warm run should prune nearly every
  subtask (the chains re-tile to the same structural identities) and
  beat the cold wall-clock by the recompute it skipped;
- **overlapping queries** — a sweep of distinct queries sharing lineage
  prefixes over one set of source tables, the multi-query session shape
  where a cache pays off without anyone re-running a whole query.

Every warm/overlapping result is verified identical (``repr``) to its
cold counterpart before a number is recorded.  Writes
``BENCH_cache.json`` (repo root).  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_cache.py [--smoke]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, report, save_bench_json  # noqa: E402

from repro.config import Config  # noqa: E402
from repro.core import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.workloads.tpch import ALL_QUERIES, generate_tables  # noqa: E402
from repro.workloads.tpch.queries import materialize  # noqa: E402

KiB = 1024

#: the overlapping-query sweep: queries over one shared table set. q1
#: and q6 share the lineitem scan; q3/q5 share customer-orders-lineitem
#: joins; the repeats at the end are full warm hits.
SWEEP = ["q1", "q6", "q3", "q5", "q1", "q5"]


def make_session(cache: bool) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 64 * KiB
    cfg.parallel_execution = False
    cfg.result_cache = cache
    return Session(cfg)


def run_query(session: Session, tables, name: str):
    handles = {
        tname: from_frame(frame, session) for tname, frame in tables.items()
    }
    t0 = time.perf_counter()
    value = materialize(ALL_QUERIES[name](handles))
    elapsed = time.perf_counter() - t0
    rep = session.last_report
    return value, elapsed, rep


def warm_vs_cold(sf: float, queries: list[str]) -> list[dict]:
    tables = generate_tables(sf=sf, seed=7)
    rows = []
    for name in queries:
        with make_session(cache=True) as session:
            cold_val, cold_s, cold_rep = run_query(session, tables, name)
            warm_val, warm_s, warm_rep = run_query(session, tables, name)
        assert repr(warm_val) == repr(cold_val), name
        skipped = cold_rep.n_subtasks - warm_rep.n_subtasks
        rows.append({
            "query": name,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "cold_subtasks": cold_rep.n_subtasks,
            "warm_subtasks": warm_rep.n_subtasks,
            "subtasks_skipped": skipped,
            "skip_fraction": skipped / max(cold_rep.n_subtasks, 1),
            "cache_hit_chunks": warm_rep.cache_hit_chunks,
            "bytes_reused": warm_rep.cache_reused_bytes,
        })
    return rows


def overlapping_sweep(sf: float) -> dict:
    tables = generate_tables(sf=sf, seed=7)
    # cold reference values, one fresh session per query.
    reference = {}
    for name in set(SWEEP):
        with make_session(cache=False) as session:
            value, _, _ = run_query(session, tables, name)
            reference[name] = repr(value)

    def sweep(cache: bool) -> tuple[float, int, list[dict]]:
        steps = []
        with make_session(cache=cache) as session:
            t0 = time.perf_counter()
            for name in SWEEP:
                value, elapsed, rep = run_query(session, tables, name)
                assert repr(value) == reference[name], name
                steps.append({
                    "query": name,
                    "seconds": elapsed,
                    "subtasks": rep.n_subtasks,
                    "cache_hit_chunks": rep.cache_hit_chunks,
                    "bytes_reused": rep.cache_reused_bytes,
                })
            total = time.perf_counter() - t0
            subtasks = sum(s["subtasks"] for s in steps)
        return total, subtasks, steps

    plain_s, plain_subtasks, _ = sweep(cache=False)
    cached_s, cached_subtasks, steps = sweep(cache=True)
    return {
        "queries": SWEEP,
        "uncached_seconds": plain_s,
        "cached_seconds": cached_s,
        "speedup": plain_s / cached_s if cached_s > 0 else float("inf"),
        "uncached_subtasks": plain_subtasks,
        "cached_subtasks": cached_subtasks,
        "subtasks_skipped": plain_subtasks - cached_subtasks,
        "cache_hit_chunks": sum(s["cache_hit_chunks"] for s in steps),
        "bytes_reused": sum(s["bytes_reused"] for s in steps),
        "steps": steps,
    }


def render(rows: list[dict], sweep_row: dict, sf: float) -> str:
    table_rows = [
        [row["query"],
         f"{row['cold_seconds']:.3f}s",
         f"{row['warm_seconds']:.3f}s",
         f"{row['speedup']:.1f}x",
         f"{row['cold_subtasks']} -> {row['warm_subtasks']}",
         f"{row['skip_fraction'] * 100:.0f}%",
         f"{row['bytes_reused'] / KiB:.0f} KiB"]
        for row in rows
    ]
    table_rows.append([
        "sweep",
        f"{sweep_row['uncached_seconds']:.3f}s",
        f"{sweep_row['cached_seconds']:.3f}s",
        f"{sweep_row['speedup']:.1f}x",
        f"{sweep_row['uncached_subtasks']} -> "
        f"{sweep_row['cached_subtasks']}",
        f"{sweep_row['subtasks_skipped'] / max(sweep_row['uncached_subtasks'], 1) * 100:.0f}%",
        f"{sweep_row['bytes_reused'] / KiB:.0f} KiB",
    ])
    return format_table(
        "Result cache: warm-vs-cold TPC-H and overlapping queries",
        ["workload", "cold", "warm", "speedup", "subtasks", "skipped",
         "reused"],
        table_rows,
        note=(f"sf={sf}; cold/warm = same session, second run; sweep = "
              f"{'-'.join(SWEEP)} in one cached session vs uncached. "
              "Every cached result verified identical to its cold run."),
    )


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    sf = 0.25 if smoke else 1.0
    rows = warm_vs_cold(sf, ["q1", "q5"])
    sweep_row = overlapping_sweep(sf)
    payload = {
        "benchmark": "result_cache",
        "scale_factor": sf,
        "warm_vs_cold": rows,
        "overlapping_sweep": sweep_row,
    }
    save_bench_json("BENCH_cache.json", payload)
    report("BENCH_cache", render(rows, sweep_row, sf))
    q5 = next(row for row in rows if row["query"] == "q5")
    if q5["skip_fraction"] < 0.8:
        print(f"WARNING: warm q5 skipped only "
              f"{q5['skip_fraction'] * 100:.0f}% of subtasks (< 80%)")
        return 1
    if q5["speedup"] < 2.0:
        print(f"WARNING: warm q5 speedup {q5['speedup']:.2f}x (< 2x)")
        return 1
    return 0


def test_cache_bench(benchmark=None):
    """Pytest entry: warm runs skip work and match cold results."""
    rows = warm_vs_cold(0.25, ["q1", "q5"])
    sweep_row = overlapping_sweep(0.25)
    for row in rows:
        assert row["skip_fraction"] >= 0.8
        assert row["bytes_reused"] > 0
    assert sweep_row["subtasks_skipped"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
