"""The five engine profiles of the evaluation.

Each profile encodes the design decisions the paper attributes to the
corresponding system; see DESIGN.md for the calibration rationale.

- **xorbits** — the full engine: dynamic tiling, coloring fusion,
  operator fusion, auto merge, combine stage, spill, locality.
- **pandas** — single node, single thread, no partitioning, no spill:
  correct until the working set exceeds one machine's memory.
- **pyspark** (pandas API on Spark) — static planning but a robust
  shuffle engine with whole-stage fusion; pays a serialization penalty on
  every transfer (JVM↔Python rows) and rejects several pandas APIs.
- **dask** — static tiling from source sizes, tree-reduce by default,
  spills, central Python scheduler (higher per-task overhead); workers
  *pause* near the memory limit, which manifests as a hang.
- **modin** (on Ray) — static tiling, eager per-op execution (no graph
  or operator fusion), no combine stage, and no spill: the first
  oversized partition kills a worker.
"""

from __future__ import annotations

from .base import BaselineEngine, EngineProfile

XORBITS = EngineProfile(
    name="xorbits",
    display_name="Xorbits (this work)",
    unsupported=frozenset({"groupby_udf"}),
)

PANDAS = EngineProfile(
    name="pandas",
    display_name="pandas (single node)",
    unsupported=frozenset(),
    single_node=True,
    single_chunk=True,
    # eager: every statement runs on whole frames, so nothing upstream
    # learns which columns a later statement reads
    overrides={"spill_to_disk": False, "dynamic_tiling": False,
               "graph_fusion": True, "column_pruning": False},
)

PYSPARK = EngineProfile(
    name="pyspark",
    display_name="pandas API on Spark",
    unsupported=frozenset({
        "groupby_named_agg", "groupby_udf", "iloc", "merge_key_sort",
        "value_counts", "groupby_of_groupby_udf", "mixed_index",
    }),
    overrides={"dynamic_tiling": False, "auto_merge": False},
    overhead_factor=2.0,
    network_penalty=2.0,   # Python<->JVM row serialization
    time_factor=1.1,       # job/stage startup
    memory_fraction=0.75,  # JVM heap + execution-memory overheads
)

DASK = EngineProfile(
    name="dask",
    display_name="Dask DataFrame",
    unsupported=frozenset({
        "iloc", "merge_key_sort", "groupby_median", "groupby_udf",
        "pivot_table", "apply_axis1", "mixed_index", "sort_within_groups",
    }),
    overrides={"dynamic_tiling": False, "operator_fusion": False,
               "auto_merge": False, "column_pruning": False},
    overhead_factor=5.0,   # central Python scheduler, ~1 ms/task
    hang_memory_fraction=0.97,
    hang_spill_factor=3.0,
)

MODIN = EngineProfile(
    name="modin",
    display_name="Modin on Ray",
    unsupported=frozenset({"array_interop"}),
    # graph_fusion stays on: Modin's query compiler lazily fuses map
    # operations per partition, so elementwise chains do not materialize;
    # shuffle/merge/groupby results do, and stay pinned (eager_release off).
    overrides={"dynamic_tiling": False,
               "operator_fusion": False, "auto_merge": False,
               "combine_stage": False, "spill_to_disk": False,
               "eager_release": False, "column_pruning": False},
    overhead_factor=3.0,
    memory_fraction=0.55,  # Ray object store share of worker RAM
)

PROFILES = {p.name: p for p in (XORBITS, PANDAS, PYSPARK, DASK, MODIN)}

#: the dataframe comparison set of Section VI-B.
DATAFRAME_ENGINES = ("xorbits", "pandas", "pyspark", "dask", "modin")

#: the distributed-only set used for the large-scale tables.
DISTRIBUTED_ENGINES = ("xorbits", "pyspark", "dask", "modin")


def make_engine(name: str) -> BaselineEngine:
    """Engine instance by profile name."""
    return BaselineEngine(PROFILES[name])


def all_engines(names=DATAFRAME_ENGINES) -> list[BaselineEngine]:
    return [make_engine(name) for name in names]
