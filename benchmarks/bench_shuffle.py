"""Shuffle data-plane benchmark: partition kernels and mapper-side combine.

The partition step of every hash/range shuffle runs as a handful of
NumPy sweeps (``repro.engine.partition``; bit-identity with the scalar
per-row definitions is pinned by ``tests/dataframe/
test_partition_kernels.py``). This bench measures real elapsed seconds
and simulated shuffle bytes for shuffle-heavy merge and groupby
pipelines.

It also quantifies mapper-side combine: a low-cardinality groupby runs
with the combiner off and on, reporting the shuffle-byte reduction and
the rows dropped before the wire.

Writes ``BENCH_shuffle.json`` at the repo root. Run standalone::

    PYTHONPATH=src python benchmarks/bench_shuffle.py [--smoke]

``--smoke`` shrinks the inputs for CI: it checks the combine byte
reduction at a scale where timings say nothing.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, save_bench_json  # noqa: E402

import numpy as np  # noqa: E402

from repro.config import default_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro import frame as pf  # noqa: E402


def _shuffle_config(*, combine: bool = True, shuffle_reduce: bool = False):
    cfg = default_config()
    cfg.cluster.n_workers = 4
    cfg.cluster.memory_limit = 512 * 1024 * 1024
    cfg.mapper_side_combine = combine
    if shuffle_reduce:
        # groupby picks shuffle-reduce during dynamic tiling once the
        # sampled size clears the threshold; make any size clear it.
        cfg.tree_reduce_threshold = 1
    else:
        # merges without dynamic tiling always take the static hash
        # shuffle plan (no broadcast fast path).
        cfg.dynamic_tiling = False
    return cfg


def _merge_tables(n_rows: int, str_keys: bool, seed: int = 29):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_rows // 4, n_rows)
    dim_keys = np.arange(n_rows // 4)
    if str_keys:
        keys = np.array([f"cust-{k:07d}" for k in keys], dtype=object)
        dim_keys = np.array(
            [f"cust-{k:07d}" for k in dim_keys], dtype=object
        )
    fact = pf.DataFrame({
        "k": keys,
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    dim = pf.DataFrame({
        "k": dim_keys,
        "label": rng.integers(0, 100, len(dim_keys)),
    })
    return fact, dim


def _run_merge(n_rows: int, str_keys: bool):
    fact, dim = _merge_tables(n_rows, str_keys)
    cfg = _shuffle_config()
    cfg.chunk_store_limit = max(fact.nbytes // 16, 8 * 1024)
    with Session(cfg) as session:
        left = from_frame(fact, session)
        right = from_frame(dim, session)
        joined = left.merge(right, on="k", how="inner")
        start = time.perf_counter()
        joined.fetch()
        seconds = time.perf_counter() - start
        return seconds, session.last_report.shuffle_bytes


def _run_groupby(n_rows: int):
    rng = np.random.default_rng(31)
    local = pf.DataFrame({
        "k": rng.integers(0, n_rows // 2, n_rows),  # high cardinality
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    cfg = _shuffle_config(shuffle_reduce=True)
    cfg.chunk_store_limit = max(local.nbytes // 16, 8 * 1024)
    with Session(cfg) as session:
        df = from_frame(local, session)
        agg = df.groupby("k").agg({"v": "mean", "w": "sum"})
        start = time.perf_counter()
        agg.fetch()
        seconds = time.perf_counter() - start
        return seconds, session.last_report.shuffle_bytes


def _run_combine_experiment(n_rows: int) -> dict:
    """Low-cardinality groupby with the mapper-side combiner off vs on."""
    rng = np.random.default_rng(37)
    local = pf.DataFrame({
        "k": rng.integers(0, 16, n_rows),
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    results = {}
    for combine in (False, True):
        cfg = _shuffle_config(combine=combine, shuffle_reduce=True)
        cfg.chunk_store_limit = max(local.nbytes // 16, 8 * 1024)
        with Session(cfg) as session:
            df = from_frame(local, session)
            value = df.groupby("k").agg({"v": "sum", "w": "max"}).fetch()
            report = session.last_report
            results[combine] = (
                value, report.shuffle_bytes, report.combine_dropped_rows
            )
    plain, bytes_off, _ = results[False]
    combined, bytes_on, dropped = results[True]
    if not combined.equals(plain):
        raise AssertionError("mapper-side combine changed the groupby result")
    if dropped <= 0 or bytes_on >= bytes_off:
        raise AssertionError(
            f"combine ineffective: {bytes_off} -> {bytes_on} bytes, "
            f"{dropped} rows dropped"
        )
    return {
        "workload": "groupby_low_cardinality",
        "shuffle_bytes_off": int(bytes_off),
        "shuffle_bytes_on": int(bytes_on),
        "reduction": round(bytes_off / bytes_on, 2),
        "combine_dropped_rows": int(dropped),
    }


def build_workloads(smoke: bool):
    n = 20_000 if smoke else 400_000
    return [
        ("merge_int_keys", lambda: _run_merge(n, False)),
        ("merge_str_keys", lambda: _run_merge(n // 2, True)),
        ("groupby_range_shuffle", lambda: _run_groupby(n)),
    ]


def run_shuffle_bench(smoke: bool) -> tuple[list[dict], dict]:
    rows: list[dict] = []
    repeats = 1 if smoke else 2  # best-of-n: damp timer noise at full scale
    for name, runner in build_workloads(smoke):
        seconds, shuffle_bytes = runner()
        for _ in range(repeats - 1):
            seconds = min(seconds, runner()[0])
        rows.append({"workload": name, "seconds": round(seconds, 4),
                     "shuffle_bytes": int(shuffle_bytes)})
    combine = _run_combine_experiment(5_000 if smoke else 200_000)
    return rows, combine


def save_and_render(rows: list[dict], combine: dict, smoke: bool) -> str:
    payload = {
        "benchmark": "shuffle_data_plane",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "rows": rows,
        "mapper_side_combine": combine,
    }
    save_bench_json("BENCH_shuffle.json", payload)

    table_rows = [
        [row["workload"], f"{row['seconds']:.3f}s", row["shuffle_bytes"]]
        for row in rows
    ]
    table_rows.append([
        "combine off -> on", "",
        f"{combine['shuffle_bytes_off']} -> {combine['shuffle_bytes_on']} "
        f"({combine['reduction']:.2f}x less)",
    ])
    return format_table(
        "Shuffle data plane: partition kernels and mapper-side combine",
        ["workload", "seconds", "shuffle bytes"], table_rows,
        note=("combine row drops "
              f"{combine['combine_dropped_rows']} pre-shuffle rows"),
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    rows, combine = run_shuffle_bench(smoke)
    print(save_and_render(rows, combine, smoke))
    return 0


def test_shuffle_smoke(benchmark=None):
    """Pytest entry: combine reduction at smoke scale."""
    rows, combine = run_shuffle_bench(smoke=True)
    save_and_render(rows, combine, smoke=True)
    assert combine["reduction"] > 1.0
    assert combine["combine_dropped_rows"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
