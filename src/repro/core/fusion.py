"""Coloring-based graph-level fusion (Section V-A, Fig. 7).

The algorithm assigns every chunk-graph node a color in three steps:

1. initial (source) nodes each get a fresh color;
2. forward topological propagation — a node whose predecessors all share
   one color inherits it, otherwise it gets a fresh color;
3. a separation pass — when a node's successors *mix* its own color with
   other colors, the same-colored successors are recolored fresh (the
   node's output must be materialized anyway, so gluing only one branch
   to it would duplicate work), and the recoloring propagates to their
   same-colored descendants.

Adjacent nodes sharing a color afterwards become one subtask.

A node of this DAG is an *output chunk*, so a shuffle mapper emitting n
partitions is n nodes; the coloring assumes one node per unit of work.
Hence the sibling rule: **the outputs of one operator instance are
adjacent** — one color, one connected component, one subtask.
"""

from __future__ import annotations

import itertools

from ..graph.dag import DAG
from ..graph.entity import ChunkData


def color_chunk_graph(graph: DAG[ChunkData]) -> dict[str, int]:
    """Run the three coloring steps; returns chunk key -> color."""
    topo = graph.topological_order()
    counter = itertools.count()
    color: dict[str, int] = {}
    #: id(op) -> the color its first-seen output took (siblings follow).
    op_color: dict[int, int] = {}

    # step 1 + 2: forward propagation
    for node in topo:
        pred_colors = {color[p.key] for p in graph.predecessors(node)}
        own = pred_colors.pop() if len(pred_colors) == 1 else next(counter)
        if node.op is not None and len(node.op.outputs) > 1:
            own = op_color.setdefault(id(node.op), own)
        color[node.key] = own

    # step 3: separate branches that share the parent's color with siblings
    # of other colors
    for node in topo:
        succs = graph.successors(node)
        if not succs:
            continue
        own = color[node.key]
        same = [s for s in succs if color[s.key] == own]
        if not same or len(same) == len(succs):
            continue
        fresh: dict[int, int] = {}  # siblings split off together
        for branch in same:
            new = fresh.get(id(branch.op))
            if new is None:
                new = fresh[id(branch.op)] = next(counter)
            color[branch.key] = new
            _propagate_recolor(graph, topo, color, branch, own, new)
    return color


def _propagate_recolor(graph: DAG[ChunkData], topo: list[ChunkData],
                       color: dict[str, int], start: ChunkData,
                       old: int, new: int) -> None:
    """Push a recolor down: descendants keep following their chain if they
    had the old color and all their predecessors now carry the new one."""
    started = False
    for node in topo:
        if node.key == start.key:
            started = True
            continue
        if not started or color[node.key] != old:
            continue
        preds = graph.predecessors(node)
        if preds and all(color[p.key] == new for p in preds):
            color[node.key] = new


def fusion_groups(graph: DAG[ChunkData],
                  color: dict[str, int] | None = None) -> list[list[ChunkData]]:
    """Partition the chunk graph into subtask groups.

    Groups are connected components of same-colored adjacent nodes, so two
    unconnected nodes can never share a subtask even if their colors match.
    """
    if color is None:
        color = color_chunk_graph(graph)
    group_of: dict[str, int] = {}
    groups: list[list[ChunkData]] = []
    for node in graph.topological_order():
        if node.key in group_of:
            continue
        gid = len(groups)
        members: list[ChunkData] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.key in group_of:
                continue
            group_of[current.key] = gid
            members.append(current)
            neighbors = graph.successors(current) + graph.predecessors(current)
            if current.op is not None and len(current.op.outputs) > 1:
                neighbors += [s for s in current.op.outputs if s in graph]
            for neighbor in neighbors:
                if (neighbor.key not in group_of
                        and color[neighbor.key] == color[current.key]):
                    stack.append(neighbor)
        groups.append(members)
    return _repair_convexity(graph, groups)


def _repair_convexity(graph: DAG[ChunkData],
                      groups: list[list[ChunkData]]) -> list[list[ChunkData]]:
    """Split groups whose fusion would create a subtask-level cycle.

    A group is only a valid subtask if no path leaves it and re-enters
    (convexity); the coloring heuristic can rarely violate this on
    irregular DAGs. Groups participating in a cycle of the condensed
    graph are dissolved into one group per operator instance until the
    condensation is acyclic (siblings read the same inputs, so no path can
    leave one output of an operator and re-enter another).
    """
    while True:
        group_of: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for chunk in group:
                group_of[chunk.key] = gid
        edges: dict[int, set[int]] = {gid: set() for gid in range(len(groups))}
        for node in graph.nodes():
            src = group_of[node.key]
            for succ in graph.successors(node):
                dst = group_of[succ.key]
                if dst != src:
                    edges[src].add(dst)
        cyclic = _cyclic_components(edges)
        if not cyclic:
            return groups
        next_groups: list[list[ChunkData]] = []
        for gid, group in enumerate(groups):
            next_groups.extend(_op_units(group) if gid in cyclic else [group])
        groups = next_groups


def _cyclic_components(edges: dict[int, set[int]]) -> set[int]:
    """Nodes of the condensed graph that sit on a cycle (Tarjan SCC)."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = itertools.count()
    cyclic: set[int] = set()

    def strongconnect(start: int) -> None:
        work = [(start, iter(sorted(edges[start])))]
        index[start] = lowlink[start] = next(counter)
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cyclic.update(component)

    for node in edges:
        if node not in index:
            strongconnect(node)
    return cyclic


def _op_units(chunks: list[ChunkData]) -> list[list[ChunkData]]:
    """``chunks`` split into one group per operator instance."""
    units: dict[int, list[ChunkData]] = {}
    for chunk in chunks:
        owner = chunk if chunk.op is None else chunk.op
        units.setdefault(id(owner), []).append(chunk)
    return list(units.values())


def singleton_groups(graph: DAG[ChunkData]) -> list[list[ChunkData]]:
    """The no-fusion baseline: every operator instance is its own subtask."""
    return _op_units(graph.topological_order())
