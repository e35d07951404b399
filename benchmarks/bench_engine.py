"""Chunk-engine benchmark: row vs columnar backend.

Runs the same workloads under ``Config.chunk_engine = "row"`` and
``"columnar"`` and compares wall-clock and simulated bytes.  A columnar
chunk is the row engine's ``repro.frame`` container whose string
columns carry their dictionary, charged by its cells, so the engine may
change wall-clock only: shuffle bytes, transferred bytes and subtask
counts must be equal.

- **TPC-H q1** — scan-heavy aggregation, little shuffle.
- **TPC-H q5** — the six-table join pipeline, shuffle over mostly
  numeric keys.
- **Low-cardinality string groupby** — mapper-side combine is *off*, so
  the shuffle carries every repeated string key: the columnar engine's
  kernels read the keys' codes instead of hashing them.

Writes ``BENCH_engine.json`` (repo root).
Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, save_bench_json  # noqa: E402

from repro import frame as pf  # noqa: E402
from repro.config import Config  # noqa: E402
from repro.core import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.workloads.tpch import ALL_QUERIES, generate_tables  # noqa: E402
from repro.workloads.tpch.queries import materialize  # noqa: E402

ENGINES = ("row", "columnar")


def _session(engine: str, chunk_limit: int, **overrides) -> Session:
    cfg = Config()
    cfg.chunk_engine = engine
    cfg.chunk_store_limit = chunk_limit
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def _tpch_case(query: str, tables):
    def build(session: Session):
        handles = {
            name: from_frame(frame, session)
            for name, frame in tables.items()
        }
        return materialize(ALL_QUERIES[query](handles))
    return build


def _groupby_case(n_rows: int, n_keys: int):
    def build(session: Session):
        rng = np.random.default_rng(13)
        keys = np.array(
            [f"cust-{k:07d}" for k in rng.integers(0, n_keys, n_rows)],
            dtype=object,
        )
        local = pf.DataFrame({"k": keys, "v": rng.normal(size=n_rows)})
        return from_frame(local, session).groupby("k").agg(
            {"v": "sum"}).fetch()
    return build


def _run_case(name: str, build, engine: str, chunk_limit: int,
              **overrides) -> dict:
    with _session(engine, chunk_limit, **overrides) as session:
        start = time.perf_counter()
        build(session)
        wall = time.perf_counter() - start
        run = session.last_report
        return {
            "workload": name,
            "engine": engine,
            "wall_seconds": round(wall, 4),
            "shuffle_bytes": run.shuffle_bytes,
            "transferred_bytes": run.transferred_bytes,
            "n_subtasks": run.n_subtasks,
        }


def run_bench(smoke: bool) -> list[dict]:
    sf = 0.25 if smoke else 1.0
    tables = generate_tables(sf=sf, seed=7)
    n_rows = 6_000 if smoke else 24_000
    cases = [
        ("tpch_q1", _tpch_case("q1", tables), 64 * 1024, {}),
        ("tpch_q5", _tpch_case("q5", tables), 64 * 1024, {}),
        # combine off: the shuffle carries every repeated key, which is
        # the regime where a dictionary column pays for itself.
        ("groupby_lowcard_strings", _groupby_case(n_rows, n_keys=32),
         8_000, {"mapper_side_combine": False, "tree_reduce_threshold": 1}),
    ]
    rows = []
    for name, build, chunk_limit, overrides in cases:
        for engine in ENGINES:
            rows.append(_run_case(name, build, engine, chunk_limit,
                                  **overrides))
    return rows


def save_and_render(rows: list[dict], smoke: bool) -> str:
    payload = {
        "benchmark": "chunk_engine_row_vs_columnar",
        "smoke": smoke,
        "rows": rows,
    }
    save_bench_json("BENCH_engine.json", payload)

    by_case: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_case.setdefault(row["workload"], {})[row["engine"]] = row
    table_rows = []
    for name, engines in by_case.items():
        row_r, col_r = engines["row"], engines["columnar"]
        ratio = (col_r["shuffle_bytes"] / row_r["shuffle_bytes"]
                 if row_r["shuffle_bytes"] else float("nan"))
        table_rows.append([
            name,
            f"{row_r['wall_seconds']:.3f}s",
            f"{col_r['wall_seconds']:.3f}s",
            f"{row_r['shuffle_bytes']:,}",
            f"{col_r['shuffle_bytes']:,}",
            f"{ratio:.2f}x" if ratio == ratio else "n/a",
        ])
    return format_table(
        "Chunk engine: row vs columnar",
        ["workload", "row wall", "col wall",
         "row shuffle B", "col shuffle B", "col/row bytes"],
        table_rows,
        note="bytes and subtasks are identical across engines by the "
             "seam's parity contract; only wall-clock may differ.",
    )


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    print(save_and_render(run_bench(smoke), smoke))
    return 0


def test_engine_bench_smoke():
    """Pytest entry: on every workload the columnar engine moves the
    same shuffle and transferred bytes as row, over the same subtasks."""
    rows = run_bench(smoke=True)
    save_and_render(rows, smoke=True)
    by = {(r["workload"], r["engine"]): r for r in rows}
    assert by[("groupby_lowcard_strings", "row")]["shuffle_bytes"] > 0
    for name in ("tpch_q1", "tpch_q5", "groupby_lowcard_strings"):
        for field in ("shuffle_bytes", "transferred_bytes", "n_subtasks"):
            assert (by[(name, "row")][field]
                    == by[(name, "columnar")][field]), (name, field)


if __name__ == "__main__":
    raise SystemExit(main())
