"""A small directed-acyclic-graph container used by all three plan levels
(tileable graph, chunk graph, subtask graph)."""

from __future__ import annotations

from collections import deque
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from ..errors import GraphError

N = TypeVar("N", bound=Hashable)


class DAG(Generic[N]):
    """Directed graph with acyclicity enforced at traversal time."""

    def __init__(self):
        self._succ: dict[N, list[N]] = {}
        self._pred: dict[N, list[N]] = {}

    # -- construction ------------------------------------------------------
    def add_node(self, node: N) -> None:
        if node not in self._succ:
            self._succ[node] = []
            self._pred[node] = []

    def add_edge(self, src: N, dst: N) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)

    def remove_node(self, node: N) -> None:
        if node not in self._succ:
            raise GraphError(f"node {node!r} not in graph")
        for succ in self._succ[node]:
            self._pred[succ].remove(node)
        for pred in self._pred[node]:
            self._succ[pred].remove(node)
        del self._succ[node]
        del self._pred[node]

    # -- queries ------------------------------------------------------------
    def __contains__(self, node: N) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[N]:
        return iter(self._succ)

    def nodes(self) -> list[N]:
        return list(self._succ)

    def successors(self, node: N) -> list[N]:
        return list(self._succ[node])

    def predecessors(self, node: N) -> list[N]:
        return list(self._pred[node])

    def in_degree(self, node: N) -> int:
        return len(self._pred[node])

    def sources(self) -> list[N]:
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> list[N]:
        return [n for n in self._succ if not self._succ[n]]

    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ.values())

    # -- traversal -------------------------------------------------------------
    def topological_order(self) -> list[N]:
        """Kahn's algorithm; raises :class:`GraphError` on a cycle."""
        in_deg = {n: len(self._pred[n]) for n in self._succ}
        queue = deque(n for n, d in in_deg.items() if d == 0)
        order: list[N] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for succ in self._succ[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._succ):
            raise GraphError("graph contains a cycle")
        return order

    def reverse_topological_order(self) -> list[N]:
        return list(reversed(self.topological_order()))

    def bfs_layers(self) -> list[list[N]]:
        """Nodes grouped by depth from the sources."""
        depth: dict[N, int] = {}
        for node in self.topological_order():
            preds = self._pred[node]
            depth[node] = 1 + max((depth[p] for p in preds), default=-1)
        layers: dict[int, list[N]] = {}
        for node, d in depth.items():
            layers.setdefault(d, []).append(node)
        return [layers[d] for d in sorted(layers)]

    def ancestors(self, node: N) -> set[N]:
        seen: set[N] = set()
        stack = list(self._pred[node])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._pred[current])
        return seen

    def descendants(self, node: N) -> set[N]:
        seen: set[N] = set()
        stack = list(self._succ[node])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._succ[current])
        return seen

    def subgraph(self, nodes: Iterable[N]) -> "DAG[N]":
        keep = set(nodes)
        out: DAG[N] = DAG()
        for node in self._succ:
            if node in keep:
                out.add_node(node)
        for node in keep:
            for succ in self._succ.get(node, []):
                if succ in keep:
                    out.add_edge(node, succ)
        return out

    def copy(self) -> "DAG[N]":
        out: DAG[N] = DAG()
        out._succ = {n: list(s) for n, s in self._succ.items()}
        out._pred = {n: list(p) for n, p in self._pred.items()}
        return out
