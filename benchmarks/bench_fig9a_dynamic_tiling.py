"""Figure 9(a) — ablation: dynamic tiling on vs off.

Paper shape: enabling dynamic tiling speeds up merge-heavy TPC-H queries
dramatically — 7.08x on Q2 (four merges) and 10.59x on Q7 (nine merges).
With tiling off, merges fall back to static hash shuffles and groupbys to
blind tree-reduce; with it on, the engine samples real sizes, broadcasts
small sides, and range-partitions by observed keys.
"""

from harness import MiB, format_table, report

from repro.config import default_config
from repro.core import Session
from repro.dataframe import from_frame
from repro.dataframe.datasource import columns_to_read
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.dbgen import dataset_bytes
from repro.workloads.tpch.queries import materialize

# The paper ablates Q2 (four merges) and Q7 (nine merges) at SF1000,
# reporting 7.08x / 10.59x. At laptop scale Q2's tables (part, partsupp,
# supplier) are only a few hundred rows, so there is nothing for dynamic
# tiling to re-partition; the reproduction ablates the data-heavy
# merge/groupby queries instead, where the mechanism actually engages.
QUERIES = ["q7", "q3", "q5", "q9"]
PAPER = {"q7": 10.59}


def _run_query(name: str, tables, dynamic: bool, chunk_limit: int,
               memory_limit: int) -> float:
    cfg = default_config()
    cfg.dynamic_tiling = dynamic
    cfg.chunk_store_limit = chunk_limit
    cfg.tree_reduce_threshold = chunk_limit // 2
    cfg.cluster.memory_limit = memory_limit
    session = Session(cfg)
    try:
        handles = {k: from_frame(v, session) for k, v in tables.items()}
        materialize(ALL_QUERIES[name](handles))
        return session.cluster.clock.makespan
    finally:
        session.close()


def _bytes_read(name: str, tables) -> int:
    """Bytes of the columns query ``name`` reads: one unmeasured run with
    every table in a single chunk, then what column pruning left each
    source carrying."""
    cfg = default_config()
    cfg.chunk_store_limit = dataset_bytes(tables)
    with Session(cfg) as session:
        handles = {k: from_frame(v, session) for k, v in tables.items()}
        materialize(ALL_QUERIES[name](handles))
        return sum(
            tables[table][columns_to_read(handle.data.op,
                                          handle.data.columns)].nbytes
            for table, handle in handles.items() if handle.data.is_tiled)


def run_fig9a():
    tables = generate_tables(sf=3.0, seed=1, skew=0.5)
    memory_limit = 512 * MiB
    out = {}
    for name in QUERIES:
        # 48 chunks of what the query *reads*: the paper ran its
        # ablations with column pruning on, and a source is cut by the
        # bytes read of it — sized from the whole dataset, a pruned q7
        # is a dozen chunks and the static plan has nothing to shuffle.
        chunk_limit = _bytes_read(name, tables) // 48
        on = _run_query(name, tables, True, chunk_limit, memory_limit)
        off = _run_query(name, tables, False, chunk_limit, memory_limit)
        out[name] = (on, off)
    return out


def test_fig9a_dynamic_tiling(benchmark):
    out = benchmark.pedantic(run_fig9a, rounds=1, iterations=1)
    rows = []
    for name, (on, off) in out.items():
        speedup = off / on if on else float("inf")
        paper = f"{PAPER[name]:.2f}x" if name in PAPER else "-"
        rows.append([name, f"{on:.4f}s", f"{off:.4f}s",
                     f"{speedup:.2f}x", paper])
    text = format_table(
        "Figure 9(a): dynamic tiling ablation (skewed TPC-H)",
        ["query", "dy on", "dy off", "speedup", "paper"], rows,
        note="Measured on skewed data: static planning concentrates hot "
             "keys; dynamic tiling broadcasts / range-partitions instead.",
    )
    report("fig9a_dynamic_tiling", text)

    for name, (on, off) in out.items():
        assert off > on, f"dynamic tiling must help {name}"
    assert out["q7"][1] / out["q7"][0] > 1.5
