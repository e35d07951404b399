"""Column pruning over the tileable graph (Section V-A).

Walking backwards from the data sinks, each operator reports which
columns of each input it needs to produce its required output columns
(``Operator.input_column_requirements``). Requirements accumulate per
tileable, and every tileable about to be tiled records the set as the
columns its chunks will carry (``TileableData.carried_columns``); a
datasource reads exactly those, so unused columns are never loaded from
disk or moved over the network — the dataframe equivalent of predicate
pushdown.

Tileables outlive a query: a handle tiled narrow for one ``execute()``
may be asked for more by the next. One rule covers sources and
intermediates alike — a tiled node whose chunks do not carry what this
plan requires of it is un-tiled and tiled again, wide enough for both.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..graph.dag import DAG
from ..graph.entity import TileableData
from .tiler import build_tileable_graph


def _requirements(graph: DAG[TileableData], results: Sequence[TileableData],
                  floors: dict[str, Optional[frozenset]]
                  ) -> dict[str, Optional[set]]:
    """Per tileable key, the columns the plan reads of it (``None`` =
    all): at least its ``floors`` entry, everything if it is a result."""
    required: dict[str, Optional[set]] = {}
    for node in graph.nodes():
        floor = floors.get(node.key, frozenset())
        required[node.key] = set(floor) if floor is not None else None
    for node in results:
        required[node.key] = None  # the user sees the full result
    for node in graph.reverse_topological_order():
        need = required[node.key]
        op = node.op
        if op is None or node.is_tiled:
            continue  # a source of this plan: its inputs are not in it
        per_input = op.input_column_requirements(
            sorted(need, key=str) if need is not None else None)
        if len(per_input) != len(op.inputs):
            raise ValueError(
                f"{type(op).__name__} returned {len(per_input)} requirement "
                f"lists for {len(op.inputs)} inputs"
            )
        for dep, cols in zip(op.inputs, per_input):
            if cols is None:
                required[dep.key] = None
            elif required[dep.key] is not None:
                required[dep.key].update(cols)
    return required


def _covers(node: TileableData, need: Optional[set]) -> bool:
    """Do the chunks of tiled ``node`` carry what is in ``need`` of its
    columns? (A join asks both sides for every name: the other side's
    are nothing this node could carry more of.)"""
    carried = node.carried_columns
    if carried is None:
        return True
    if need is not None and node.columns is not None:
        need = need.intersection(node.columns)
    return need is not None and need <= carried


def _stands_on_untiled(node: TileableData) -> bool:
    """Were tiled ``node``'s chunks built on a tiling since dropped?"""
    stack, seen = list(node.inputs), set()
    while stack:
        dep = stack.pop()
        if not dep.is_tiled:
            return True
        if dep.key not in seen:
            seen.add(dep.key)
            stack += dep.inputs
    return False


def prune_columns(graph: DAG[TileableData],
                  results: Sequence[TileableData]) -> dict[str, Optional[list]]:
    """Run the pruning pass over the plan ``graph`` of ``results``.

    Records on every tileable still to be tiled the columns its chunks
    will carry. A node tiled by an earlier query with fewer columns than
    this one requires is un-tiled — its ancestors join ``graph``, which
    is extended in place — and carries the union from now on, so the
    earlier query's shape stays covered too. So is every tiled node of
    the plan that was built on the dropped chunks: one plan never mixes
    two chunkings of the same rows (a static plan could not align them,
    and a dynamic one would read the source once per chunking).

    Returns what this plan alone requires of each tileable (``None`` =
    all columns), for introspection and testing.
    """
    floors: dict[str, Optional[frozenset]] = {}
    while True:
        required = _requirements(graph, results, floors)
        stale = [
            node for node in graph.nodes() if node.is_tiled
            and (not _covers(node, required[node.key])
                 or floors and _stands_on_untiled(node))
        ]
        if not stale:
            break
        for node in stale:
            floors[node.key] = node.carried_columns
            node.chunks = []
            node.nsplits = ()
        build_tileable_graph(stale, graph)

    for node in graph.nodes():
        if not node.is_tiled:
            need = required[node.key]
            if need is not None and node.columns is not None \
                    and need >= set(node.columns):
                need = None  # every column there is
            node.carried_columns = (frozenset(need) if need is not None
                                    else None)
    if floors:  # report the plan's own needs, not what it was widened to
        required = _requirements(graph, results, {})
    return {
        key: (sorted(value, key=str) if value is not None else None)
        for key, value in required.items()
    }
