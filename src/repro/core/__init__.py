"""``repro.core`` — the paper's contribution: operators, dynamic tiling,
graph fusion, column pruning, scheduling, auto rechunk, sessions."""

from .executor import GraphExecutor
from .fusion import color_chunk_graph, fusion_groups, singleton_groups
from .meta import ChunkMeta, MetaService, meta_from_value
from .operator import (
    DataSourceOp,
    ExecContext,
    Operator,
    TileContext,
    run_tile,
)
from .opfusion import plan_subtask, step_io_keys
from .pruning import prune_columns
from .rechunk import auto_rechunk, balanced_splits, rechunk_to_splits
from .session import (
    RunReport,
    Session,
    assemble,
    get_default_session,
    init_session,
    stop_session,
)
from .tiler import TilingEngine, build_tileable_graph, chunk_closure

__all__ = [
    "ChunkMeta",
    "DataSourceOp",
    "ExecContext",
    "GraphExecutor",
    "MetaService",
    "Operator",
    "RunReport",
    "Session",
    "TileContext",
    "TilingEngine",
    "assemble",
    "auto_rechunk",
    "balanced_splits",
    "build_tileable_graph",
    "chunk_closure",
    "color_chunk_graph",
    "fusion_groups",
    "get_default_session",
    "init_session",
    "meta_from_value",
    "plan_subtask",
    "prune_columns",
    "rechunk_to_splits",
    "run_tile",
    "singleton_groups",
    "step_io_keys",
    "stop_session",
]
