"""Subtasks: fused groups of chunk operators, the unit of scheduling.

A subtask is what graph-level fusion produces from a chunk graph
(Section V-A): a connected set of same-color chunk nodes executed on one
band with no intermediate storage round-trips.
"""

from __future__ import annotations

from typing import Optional

from ..utils import new_key
from .dag import DAG
from .entity import ChunkData


class Subtask:
    """A fused subgraph of chunks plus its scheduling assignment."""

    __slots__ = (
        "key", "chunks", "input_keys", "output_keys", "band",
        "priority", "virtual_cost", "stage_index", "load_estimate",
        "_hash",
    )

    def __init__(self, chunks: list[ChunkData]):
        if not chunks:
            raise ValueError("a subtask needs at least one chunk")
        self.key = new_key("s")
        self._hash = hash(self.key)
        #: chunks in execution (topological) order.
        self.chunks = chunks
        internal = {c.key for c in chunks}
        #: keys of chunks read from storage (produced by other subtasks).
        self.input_keys: list[str] = []
        seen: set[str] = set()
        for chunk in chunks:
            for dep in chunk.inputs:
                if dep.key not in internal and dep.key not in seen:
                    seen.add(dep.key)
                    self.input_keys.append(dep.key)
        #: keys this subtask must write back to storage: its terminal
        #: chunks (consumers are outside the subtask or it has none).
        self.output_keys: list[str] = []
        #: band name this subtask is assigned to (set by the scheduler).
        self.band: Optional[str] = None
        self.priority: int = 0
        self.virtual_cost: float = 0.0
        #: the scheduler's estimated load contribution, remembered so the
        #: executor can release exactly this amount on completion.
        self.load_estimate: float = 0.0
        #: index of the execution stage that first ran this subtask.
        #: Together with ``priority`` (topological position) it forms the
        #: *structural identity* fault injection and retry accounting key
        #: on — stable across sessions and execution modes, unlike the
        #: process-global ``key``.
        self.stage_index: int = 0

    @property
    def n_ops(self) -> int:
        return sum(1 for c in self.chunks if c.op is not None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Subtask) and other.key == self.key

    def __repr__(self) -> str:
        names = "+".join(
            type(c.op).__name__ if c.op is not None else "Data"
            for c in self.chunks[:4]
        )
        extra = "+..." if len(self.chunks) > 4 else ""
        return f"Subtask<{names}{extra} on {self.band}>"


def build_subtask_graph(chunk_graph: DAG[ChunkData],
                        groups: list[list[ChunkData]],
                        keep: frozenset[str] = frozenset()) -> DAG[Subtask]:
    """Assemble the subtask DAG from fusion groups.

    ``groups`` must partition the chunk graph's nodes; edges between
    groups become subtask dependencies. Output keys are chunks consumed
    outside their group, terminal in the chunk graph (which covers the
    outputs of a multi-output operator this graph has no consumer for),
    or named in ``keep`` — read again by something outside this graph.
    """
    position = {
        chunk.key: i for i, chunk in enumerate(chunk_graph.topological_order())
    }
    chunk_to_subtask: dict[str, Subtask] = {}
    subtasks: list[Subtask] = []
    for group in groups:
        ordered = sorted(group, key=lambda c: position[c.key])
        subtask = Subtask(ordered)
        subtasks.append(subtask)
        for chunk in group:
            chunk_to_subtask[chunk.key] = subtask

    graph: DAG[Subtask] = DAG()
    for subtask in subtasks:
        graph.add_node(subtask)
    for chunk in chunk_graph.nodes():
        src = chunk_to_subtask[chunk.key]
        for succ in chunk_graph.successors(chunk):
            dst = chunk_to_subtask[succ.key]
            if dst is not src:
                graph.add_edge(src, dst)

    for subtask in subtasks:
        internal = {c.key for c in subtask.chunks}
        outputs = []
        for chunk in subtask.chunks:
            consumers = chunk_graph.successors(chunk)
            if (not consumers or chunk.key in keep
                    or any(s.key not in internal for s in consumers)):
                outputs.append(chunk.key)
        subtask.output_keys = outputs
    return graph
